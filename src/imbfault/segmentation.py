"""Slice a labeled series into fixed-length sliding windows."""

from __future__ import annotations

import logging

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import WindowBatch
from .errors import ConfigError, DataError
from .ingestion import LabeledSeries

log = logging.getLogger(__name__)

LABEL_RULES = ("majority", "any_fault", "midpoint")


def segment(series: LabeledSeries, window_len: int, slide_len: int,
            rule: str = "majority", default_label: str = "normal") -> WindowBatch:
    """Windows start at 0, N, 2N, ... while start + L <= series length;
    trailing partial windows are dropped.

    Each window is labeled from its per-timestamp labels:

    majority   most frequent label; ties toward a fault label; a tie between
               two faults picks the lexicographically first (and is logged).
    any_fault  any non-default timestamp makes the window faulty (most
               frequent fault wins, ties as above).
    midpoint   label of the middle timestamp (lower middle for even length).
    """
    n_ticks = series.frame.n_ticks
    if slide_len < 1:
        raise DataError("slide length must be >= 1")
    if window_len < 1 or window_len > n_ticks:
        raise DataError(f"window length {window_len} outside [1, {n_ticks}]")
    if rule not in LABEL_RULES:
        raise ConfigError(f"unknown window labeling rule {rule!r}")
    starts = np.arange(0, n_ticks - window_len + 1, slide_len)
    values = sliding_window_view(series.frame.values, window_len, axis=1)[:, ::slide_len]
    labels = _window_labels(series.labels, starts, window_len, rule, default_label)
    return WindowBatch(starts, values.swapaxes(0, 1), labels)


def _window_labels(tick_labels, starts, window_len: int, rule: str,
                   default_label: str) -> np.ndarray:
    """majority and any_fault count each distinct tick label with one cumulative
    sum. Faults are visited in sorted order and a later one takes a window only
    with strictly more ticks, so ties go to the first."""
    if rule == "midpoint":
        return tick_labels[starts + (window_len - 1) // 2]
    names = sorted(set(tick_labels))
    code = {name: k for k, name in enumerate(names)}
    codes = np.fromiter(map(code.__getitem__, tick_labels), dtype=int, count=len(tick_labels))
    names = np.array(names, dtype=object)
    n_default = 0                                # ticks of the default label
    top = np.zeros(len(starts), dtype=int)       # ticks of the best fault
    best = np.zeros(len(starts), dtype=int)      # its index into names
    n_tied = np.zeros(len(starts), dtype=int)    # faults sharing that count
    cum = np.zeros(len(codes) + 1, dtype=int)
    for k, name in enumerate(names):
        np.cumsum(codes == k, out=cum[1:])
        n = cum[starts + window_len] - cum[starts]
        if name == default_label:
            n_default = n
            continue
        n_tied[(n == top) & (n > 0)] += 1
        more = n > top
        top[more], best[more], n_tied[more] = n[more], k, 1
    ambiguous = n_tied > 1
    for start, n in zip(starts[ambiguous], top[ambiguous]):
        counts = np.bincount(codes[start:start + window_len], minlength=len(names))
        tied = names[(counts == n) & (names != default_label)].tolist()
        log.warning("ambiguous window: fault labels %s tie at %d timestamps", tied, n)
    fault_wins = top > 0
    if rule == "majority":
        fault_wins &= top >= n_default
    return np.where(fault_wins, names[best], default_label)
