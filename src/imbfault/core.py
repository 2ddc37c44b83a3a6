"""Shared domain types and class-distribution utilities.

All container types copy their array arguments into read-only C-ordered
arrays, so instances are immutable and safe to share across threads.
Class labels are opaque strings, made by `as_labels` alone; `label_codes`
converts every input through it and owns their order: the sorted
distinct labels, which fix majority tie-breaks, classifier and report column
order, fold dealing, per-class random streams and dense ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


def _frozen_array(values, dtype=float, ndim=None) -> np.ndarray:
    try:
        arr = np.array(values, dtype=dtype, copy=True, order="C")
    except ValueError as exc:
        raise DataError(f"not a rectangular array: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise DataError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def as_rows(X, name: str = "X", width: int | None = None) -> np.ndarray:
    """`X` as a finite 2-d float row array; with `width`, its rows must be
    that wide. A FeatureMatrix was checked when it was built, so its `.data`
    is returned as is."""
    if isinstance(X, FeatureMatrix):
        rows = X.data
    else:
        try:
            rows = np.asarray(X, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{name} is not a numeric row array: {exc}") from None
        if rows.ndim != 2:
            raise DataError(f"{name} must be a 2-d row array, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise DataError(f"{name} values must be finite")
    if width is not None and rows.shape[1] != width:
        raise DataError(f"{name} rows have width {rows.shape[1]}, expected {width}")
    return rows


def as_int(value, name: str) -> int:
    """`value` as a Python int. Only an integer, Python or numpy and not a
    bool, passes; anything else is a ConfigError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return int(value)


def int_fields(config, names, optional=()) -> None:
    """Set each named field of `config` to its `as_int`; a field named in
    `optional` may also be None."""
    for name in (*names, *optional):
        value = getattr(config, name)
        if value is not None or name not in optional:
            setattr(config, name, as_int(value, name))


def scale_exponent(*arrays, axis=None):
    """0 unless the largest |coordinate| of the arrays lies outside 2**±400,
    where squares and products could overflow or underflow; then the e for
    which 2**-e scales it into [0.5, 1). Scaling by a power of two is exact,
    so work on rows scaled by 2**-e gives the unscaled result times a power
    of two. e is a numpy integer; with `axis=0`, the 2-d arrays get one
    exponent per column, as an int array."""
    top = np.max([np.maximum(x.max(axis, initial=0.0), -x.min(axis, initial=0.0))
                  for x in arrays], axis=0)
    far = (top > 0.0) & ((top < 2.0 ** -400) | (top > 2.0 ** 400))
    return np.where(far, np.frexp(top)[1], 0)[()]


_to_str = np.frompyfunc(str, 1, 1)


def as_labels(values) -> np.ndarray:
    """`values` flattened into a read-only 1-d object array of `str` labels.
    The values never pass through a fixed-width str array, which would drop
    trailing NULs and merge labels that differ only by them."""
    labels = _to_str(np.asarray(values, dtype=object).ravel())
    labels.setflags(write=False)
    return labels


def label_codes(labels, classes=None) -> tuple:
    """(classes, codes): the sorted distinct labels, or the order given, and
    each label's index into it. A label outside a given order is a DataError.
    The labels go through `as_labels` first."""
    values = as_labels(labels).tolist()
    present = set(values)
    classes = tuple(sorted(present) if classes is None else classes)
    unknown = present.difference(classes)
    if unknown:
        raise DataError(f"labels {sorted(unknown)} missing from the class order")
    index = dict(zip(classes, range(len(classes))))
    return classes, np.fromiter(map(index.__getitem__, values), dtype=int, count=len(values))


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Multichannel time series: `values` is (n_channels, n_ticks)."""

    timestamps: np.ndarray
    channel_names: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps, ndim=1))
        object.__setattr__(self, "channel_names", tuple(str(c) for c in self.channel_names))
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=2))
        if self.values.shape != (len(self.channel_names), len(self.timestamps)):
            raise DataError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.channel_names)} channels x {len(self.timestamps)} ticks"
            )
        if len(self.timestamps) == 0:
            raise DataError("empty time series")
        if len(self.channel_names) == 0:
            raise DataError("a time series needs at least one channel")
        if not np.all(np.isfinite(self.timestamps)):
            raise DataError("timestamps must be finite")
        if np.any(np.diff(self.timestamps) <= 0):
            raise DataError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DataError("channel values must be finite")

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_ticks(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, order=True)
class FaultInterval:
    """Closed interval [t_start, t_end] carrying a class label.

    Orders by (t_start, t_end, label)."""

    t_start: float
    t_end: float
    label: str

    def __post_init__(self):
        if not np.isfinite([self.t_start, self.t_end]).all():
            raise DataError(f"non-finite interval bound ({self.t_start}, {self.t_end})")
        if self.t_start > self.t_end:
            raise DataError(f"inverted interval ({self.t_start}, {self.t_end})")

    def covers(self, timestamps) -> np.ndarray:
        """Mask of the timestamps inside the interval, both bounds included."""
        timestamps = np.asarray(timestamps)
        return (timestamps >= self.t_start) & (timestamps <= self.t_end)


# Prognostic outputs share the interval shape; the alias keeps call sites readable.
FaultEvent = FaultInterval


@dataclass(frozen=True)
class WindowBatch:
    """Sliding windows of one series: window i starts at tick `starts[i]`, holds
    the (n_channels, window_len) slice `values[i]` and is labeled `labels[i]`."""

    starts: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "starts", _frozen_array(self.starts, dtype=int, ndim=1))
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=3))
        object.__setattr__(self, "labels", _frozen_array(self.labels, dtype=object, ndim=1))
        if 0 in self.values.shape[1:]:
            raise DataError("a window needs at least one channel and one tick")
        if not len(self.starts) == len(self.values) == len(self.labels):
            raise DataError("window starts, values and labels do not align")
        if not np.all(np.isfinite(self.values)):
            raise DataError("window values must be finite")

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class FeatureMatrix:
    """(m, d) feature rows with aligned string labels and feature names."""

    data: np.ndarray
    labels: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(as_rows(self.data, "feature")))
        object.__setattr__(self, "labels", as_labels(self.labels))
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))
        if len(self.labels) != self.data.shape[0]:
            raise DataError("labels length must equal row count")
        if len(self.feature_names) != self.data.shape[1]:
            raise DataError("feature_names length must equal column count")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]

    def classes(self) -> tuple:
        return label_codes(self.labels)[0]

    def rows_of(self, label: str) -> np.ndarray:
        return np.asarray(self.data[self.labels == label])

    def select(self, idx) -> "FeatureMatrix":
        return FeatureMatrix(self.data[idx], self.labels[idx], self.feature_names)

    def with_data(self, data) -> "FeatureMatrix":
        return FeatureMatrix(data, self.labels, self.feature_names)


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class counts plus imbalance ratios majority_count / class_count."""

    counts: dict
    majority_label: str
    ratios: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def class_distribution(labels) -> ClassDistribution:
    """Count classes, in class order; majority is the largest count, ties
    going to the first class."""
    classes, codes = label_codes(labels)
    if not len(codes):
        raise DataError("empty label vector")
    n = np.bincount(codes)
    counts = dict(zip(classes, n.tolist()))
    majority = classes[int(np.argmax(n))]
    ratios = {c: counts[majority] / counts[c] for c in counts}
    return ClassDistribution(counts=counts, majority_label=majority, ratios=ratios)


@dataclass
class SamplerParams:
    """Knobs shared by the neighbour-based oversamplers.

    k       SMOTE neighbour count.
    k1      neighbours used to drop noisy minority samples.
    k2      majority neighbours defining the borderline majority set.
    k3      minority neighbours defining the informative set; None means
            ceil(|S_min| / 2), resolved at sampling time.
    cp      cluster-size tuning constant (threshold = cp * mean nn distance).
    cf_th   closeness cutoff; cmax  closeness scale.
    emi_ridge    ridge scale for the imputation Gaussian's covariance.
    """

    k: int = 5
    k1: int = 5
    k2: int = 3
    k3: int | None = None
    cp: float = 3.0
    cf_th: float = 5.0
    cmax: float = 2.0
    emi_ridge: float = 1e-6

    def __post_init__(self):
        int_fields(self, ("k", "k1", "k2"), optional=("k3",))
        if self.k < 1 or self.k1 < 1 or self.k2 < 1:
            raise ConfigError("neighbor counts must be >= 1")
        if self.k3 is not None and self.k3 < 1:
            raise ConfigError("k3 must be >= 1 when given")
        if not all(0 < v < np.inf for v in (self.cp, self.cf_th, self.cmax)):
            raise ConfigError("cp, cf_th and cmax must be positive and finite")
        if not 0 <= self.emi_ridge < np.inf:
            raise ConfigError("emi_ridge must be finite and >= 0")
