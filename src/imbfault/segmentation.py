"""Slice a labeled series into fixed-length sliding windows."""

from __future__ import annotations

import logging

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import WindowBatch, label_codes
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
    """majority and any_fault read a (window, label) table of tick counts, each
    a difference of two prefix sums. With the default label's column zeroed,
    the first maximum is the best fault, so ties go to the first in class order."""
    if rule == "midpoint":
        return tick_labels[starts + (window_len - 1) // 2]
    names, codes = label_codes(tick_labels)
    names = np.array(names, dtype=object)
    cum = np.zeros((len(codes) + 1, len(names)), dtype=int)
    np.cumsum(codes[:, None] == np.arange(len(names)), axis=0, out=cum[1:])
    table = cum[starts + window_len] - cum[starts]
    is_default = names == default_label
    n_default = table[:, is_default].sum(axis=1)
    table[:, is_default] = 0
    best = table.argmax(axis=1)
    top = table.max(axis=1)
    tied = (table == top[:, None]) & (top[:, None] > 0)
    ambiguous = tied.sum(axis=1) > 1
    for row, n in zip(tied[ambiguous], top[ambiguous]):
        log.warning("ambiguous window: fault labels %s tie at %d timestamps",
                    names[row].tolist(), n)
    fault_wins = top > 0
    if rule == "majority":
        fault_wins &= top >= n_default
    return np.where(fault_wins, names[best], default_label)
