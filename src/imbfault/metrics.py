"""Imbalance-aware evaluation: confusion matrices, precision/recall/F,
ROC/AUC, MCC and their FAM average, with one-vs-rest macro reduction.

Every 0/0 corner returns 0 and raises a `degenerate` flag in the per-class
report instead of NaN, because rare-class folds routinely produce empty
prediction or truth sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_labels, label_codes
from .errors import DataError

METRIC_KEYS = ("precision", "recall", "f_measure", "auc", "mcc", "fam")


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = instances of true class i predicted as class j."""

    classes: tuple
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if counts.shape != (len(self.classes), len(self.classes)):
            raise DataError("confusion counts must be C x C")
        if np.any(counts < 0):
            raise DataError("confusion counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def one_vs_rest(self, label: str) -> tuple:
        """(tp, fp, fn, tn) for one class."""
        i = self.classes.index(label)
        tp = int(self.counts[i, i])
        fp = int(self.counts[:, i].sum() - tp)
        fn = int(self.counts[i, :].sum() - tp)
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn


def confusion(y_true, y_pred, classes=None) -> ConfusionMatrix:
    y_true = as_labels(y_true)
    y_pred = as_labels(y_pred)
    if len(y_true) != len(y_pred):
        raise DataError("label vectors differ in length")
    classes, codes = label_codes(np.concatenate([y_true, y_pred]), classes)
    true, pred = codes.reshape(2, -1)
    c = len(classes)
    counts = np.bincount(true * c + pred, minlength=c * c).reshape(c, c)
    return ConfusionMatrix(classes=classes, counts=counts)


def precision_recall_f(cm: ConfusionMatrix, positive: str) -> tuple:
    """(precision, recall, F-measure) for one class; 0/0 cases return 0."""
    tp, fp, fn, _ = cm.one_vs_rest(positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def _ranking_input(y_true, scores, positive: str, what: str) -> tuple:
    """(scores, positive mask, n_pos, n_neg). One score per label and both
    classes are required, and finite scores: NaN has no order and equal
    infinities differ by NaN, so the two rankings would disagree."""
    scores = np.asarray(scores, dtype=float)
    pos = as_labels(y_true) == positive
    if scores.shape != pos.shape:
        raise DataError(f"{what}: {scores.size} scores for {pos.size} labels")
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"{what} needs both positive and negative instances")
    if not np.all(np.isfinite(scores)):
        raise DataError(f"{what} needs finite scores")
    return scores, pos, n_pos, n_neg


def roc_points(y_true, scores, positive: str) -> np.ndarray:
    """(FPR, TPR) at every distinct score threshold, descending, with the
    (0, 0) and (1, 1) endpoints included."""
    scores, pos, n_pos, n_neg = _ranking_input(y_true, scores, positive, "ROC")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp_cum = np.cumsum(pos[order])
    fp_cum = np.cumsum(~pos[order])
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    cuts = np.concatenate([distinct, [len(scores) - 1]])
    points = [(0.0, 0.0)]
    points += [(fp_cum[c] / n_neg, tp_cum[c] / n_pos) for c in cuts]
    return np.asarray(points, dtype=float)


def auc(y_true, scores, positive: str) -> float:
    """Mann-Whitney AUC with half credit for tied scores; equals the
    trapezoidal area under roc_points."""
    scores, pos, n_pos, n_neg = _ranking_input(y_true, scores, positive, "AUC")
    order = np.argsort(scores, kind="stable")
    ends = np.flatnonzero(np.diff(scores[order]) != 0.0)   # last position of each tie run
    starts = np.concatenate([[0], ends + 1])
    ends = np.append(ends, len(scores) - 1)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)   # average, 1-based
    rank_sum = ranks[pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation for a 2x2 matrix; zero denominator returns 0."""
    if len(cm.classes) != 2:
        raise DataError("mcc expects a 2x2 confusion matrix")
    tp, fp, fn, tn = cm.one_vs_rest(cm.classes[1])
    return _mcc_counts(tp, fp, fn, tn)


def _mcc_counts(tp: int, fp: int, fn: int, tn: int) -> float:
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def fam(f: float, auc_value: float, mcc_value: float) -> float:
    """Arithmetic mean of F-measure, AUC and MCC."""
    return (f + auc_value + mcc_value) / 3.0


def macro_metrics(y_true, y_pred, scores, classes=None) -> dict:
    """Per-class one-vs-rest metrics plus their unweighted macro average.

    scores is an (m, C) matrix aligned with the class order. Classes absent
    from y_true get AUC 0 and a degenerate flag rather than an error.
    Returns {"per_class": {label: {...}}, "macro": {...}}.
    """
    y_true = as_labels(y_true)
    cm = confusion(y_true, y_pred, classes)
    classes = cm.classes
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(y_true), len(classes)):
        raise DataError(f"scores must be ({len(y_true)}, {len(classes)})")
    per_class = {}
    for ci, c in enumerate(classes):
        tp, fp, fn, tn = cm.one_vs_rest(c)
        precision, recall, f = precision_recall_f(cm, c)
        degenerate = (tp + fp == 0) or (tp + fn == 0)
        n_pos = tp + fn
        if n_pos == 0 or n_pos == len(y_true):
            auc_value = 0.0
            degenerate = True
        else:
            auc_value = auc(y_true, scores[:, ci], c)
        mcc_value = _mcc_counts(tp, fp, fn, tn)
        per_class[c] = {
            "precision": precision, "recall": recall, "f_measure": f,
            "auc": auc_value, "mcc": mcc_value,
            "fam": fam(f, auc_value, mcc_value),
            "degenerate": degenerate,
        }
    return {"per_class": per_class, "macro": mean_metrics(list(per_class.values())),
            "confusion": cm}


def mean_metrics(rows: list) -> dict:
    """The unweighted mean of each METRIC_KEYS value over metric rows;
    degenerate if any row is."""
    mean = {k: float(np.mean([r[k] for r in rows])) for k in METRIC_KEYS}
    mean["degenerate"] = any(r["degenerate"] for r in rows)
    return mean
