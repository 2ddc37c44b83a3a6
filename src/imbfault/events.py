"""Turn per-window predictions back into fault intervals.

Faulty windows become closed intervals over their covered timestamps;
overlapping same-label intervals are combined until none remain, which
yields the per-label interval union. Touching-but-not-overlapping events
stay separate.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .core import FaultEvent, as_labels
from .errors import DataError


def windows_to_events(predictions, window_starts, window_len: int, timestamps,
                      normal_label: str = "normal") -> list:
    """One event per non-normal window, spanning the window's first and last
    timestamps; normal windows emit nothing."""
    predictions = as_labels(predictions)
    window_starts = np.asarray(window_starts, dtype=int)
    timestamps = np.asarray(timestamps, dtype=float)
    if len(predictions) != len(window_starts):
        raise DataError("predictions and window starts differ in length")
    if window_len < 1 or (len(window_starts) and window_starts.min() < 0):
        raise DataError(f"window length {window_len} must be >= 1 and starts non-negative")
    if len(window_starts) and window_starts.max() + window_len - 1 >= len(timestamps):
        raise DataError("window extends past the end of the timestamps")
    events = []
    for label, start in zip(predictions, window_starts):
        if label == normal_label:
            continue
        events.append(FaultEvent(
            t_start=float(timestamps[start]),
            t_end=float(timestamps[start + window_len - 1]),
            label=label,
        ))
    return events


def merge_events(events) -> list:
    """Combine overlapping same-label events until no such pair remains.

    Overlap is inclusive (s1 <= e2 and s2 <= e1). Events are bucketed by
    label and sorted by start, so one sweep that extends the last kept event
    or starts a new one yields the same union as pairwise merging in any
    order. Output is sorted by (t_start, t_end, label).
    """
    by_label = defaultdict(list)
    for ev in events:
        by_label[ev.label].append((float(ev.t_start), float(ev.t_end)))
    merged = []
    for label in sorted(by_label):
        out = []
        for s, e in sorted(by_label[label]):
            if out and s <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], e))
            else:
                out.append((s, e))
        merged += [FaultEvent(s, e, label) for s, e in out]
    return sorted(merged, key=lambda ev: (ev.t_start, ev.t_end, ev.label))


def event_confusion(predicted, true_intervals, timestamps) -> tuple:
    """(FN ticks, FP ticks) comparing per-tick label coverage.

    A tick counts as FN when a true interval of some label covers it but no
    predicted event of that label does, and as FP for the reverse, summed
    over labels.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    fn = fp = 0
    for label in {ev.label for ev in predicted} | {iv.label for iv in true_intervals}:
        true_mask = coverage(true_intervals, timestamps, label)
        pred_mask = coverage(predicted, timestamps, label)
        fn += int(np.sum(true_mask & ~pred_mask))
        fp += int(np.sum(pred_mask & ~true_mask))
    return fn, fp


def coverage(intervals, timestamps, label: str | None = None) -> np.ndarray:
    """Mask of the timestamps that some interval covers, bounds included:
    intervals of `label` only, or of every label for None. Overlapping
    intervals cover a tick once."""
    mask = np.zeros(len(timestamps), dtype=bool)
    for iv in intervals:
        if label is None or iv.label == label:
            mask |= iv.covers(timestamps)
    return mask
