"""Per-window statistical features in time, frequency and time-frequency domains.

Each channel of each window is a segment; a segment yields nine statistics:

    mean, rms, max, min, median, range,
    crest   = max|x| / rms,
    impulse = max|x| / mean|x|,
    margin  = max|x| / (mean sqrt|x|)^2.

The frequency domain applies the same nine to the unnormalized full-length
DFT magnitude spectrum; the time-frequency domain applies them to every
terminal subband of a wavelet packet tree.

Statistics of short segments in a wide batch are taken from a sample-major
copy, (samples, ...): a statistic over n samples is a few elementwise passes
over n whole slices, not one short reduction per segment. Other segments
are contiguous rows, (..., samples), which numpy reduces efficiently one row
at a time. Every sum adds in numpy's own pairwise order for a contiguous
row, and a sample-major zero maximum or minimum is read off the segment's
row (numpy picks which signed zero by its reduction order), so each feature
is bit-equal to reducing the segment's own contiguous row in either layout.
The wavelet-packet taps gather whole sample slices of a sample-major copy.
The per-segment functions run through the same kernels on one segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, WindowBatch, as_rows, int_fields, scale_exponent
from .errors import ConfigError, DataError

STAT_NAMES = ("mean", "rms", "max", "min", "median", "range", "crest", "impulse", "margin")
DOMAINS = ("origin", "time", "frequency", "timefreq")

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Orthonormal analysis filters (low-pass); the high-pass is the quadrature
# mirror g_k = (-1)^k h_{L-1-k}.
WAVELETS = {
    "haar": np.array([1.0 / _SQRT2, 1.0 / _SQRT2]),
    "db2": np.array([(1 + _SQRT3), (3 + _SQRT3), (3 - _SQRT3), (1 - _SQRT3)]) / (4.0 * _SQRT2),
}


# Statistics are taken sample-major only where that pays: on segments short
# enough that numpy's per-row reduction costs more than the row's data, in
# batches wide enough that each whole-slice pass covers many segments.
# Measured with numpy 2.4 on 2 vCPUs, sample-major took 0.4-0.9x the
# row-layout time at 2-24 samples and 256 or more segments, but up to 2x at
# 48 or more samples, and more than 1x on a single segment.
_SAMPLE_MAJOR_MAX_N = 24
_SAMPLE_MAJOR_MIN_SEGMENTS = 256


def _sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum over `axis` in the order numpy's pairwise summation adds a
    contiguous row. Over the last axis of contiguous rows that is numpy's own
    reduction. Over axis 0 of sample-major values, at most 24 of them, it is
    a few whole-slice adds: sequential below 8 terms, else 8 running sums
    combined as a tree, then the tail. numpy's reduce starts from +0.0,
    which the caller adds."""
    if axis:
        return x.sum(axis=axis)
    n = len(x)
    if n < 8:
        s = x[0].copy()
        for row in x[1:]:
            s += row
        return s
    r = x[:8].copy()
    end = n - n % 8
    for i in range(8, end, 8):
        r += x[i:i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in x[end:]:
        s += row
    return s


def _mean(x: np.ndarray, axis: int) -> np.ndarray:
    """x.mean over `axis`, bit-equal to numpy's mean of the rows of a
    contiguous (..., n) copy."""
    return (_sum(x, axis) + 0.0) / x.shape[axis]


def _stats(x: np.ndarray, axis: int) -> np.ndarray:
    """The nine statistics over the sample axis of x, `axis` 0 or -1:
    -> (other axes..., 9).

    Short segments in a wide batch (see _SAMPLE_MAJOR_MAX_N) are laid out
    sample-major, (n, ...), so each statistic is a few whole-array passes
    over the n sample slices rather than one short reduction per segment.
    Others are contiguous rows, (..., n), which numpy reduces one row at a
    time. Either way every sum follows numpy's own order, so the result is
    bit-equal to the statistics of each contiguous row of n samples. The
    elementwise temporaries reuse one scratch buffer the size of x.
    """
    if not np.all(np.isfinite(x)):
        raise DataError("segment must be finite")
    n = x.shape[axis]
    wide = x.size // n >= _SAMPLE_MAJOR_MIN_SEGMENTS
    layout = 0 if n <= _SAMPLE_MAJOR_MAX_N and wide else -1
    x, axis = np.ascontiguousarray(np.moveaxis(x, axis, layout)), layout
    mx, mn = np.maximum.reduce(x, axis=axis), np.minimum.reduce(x, axis=axis)
    max_abs = np.maximum(mx, -mn)
    buf = np.abs(x)
    mean_abs = _mean(buf, axis)
    # libm pow rather than m * m: the square is rounded like the scalar
    # definition's Python float ``** 2``.
    mean_sqrt_sq = np.float_power(_mean(np.sqrt(buf, out=buf), axis), 2)
    # Square x over the power of two at or below max|x|: the scaling is exact,
    # and squares of tiny or huge segments neither lose precision nor overflow.
    scale = np.ldexp(1.0, np.frexp(max_abs)[1] - 1)
    np.divide(x, np.expand_dims(scale, axis), out=buf)
    rms = scale * np.sqrt(_mean(np.square(buf, out=buf), axis))
    den = np.stack([rms, mean_abs, mean_sqrt_sq])
    factors = np.divide(max_abs, den, out=np.zeros_like(den), where=den > 0.0)
    # The median sorts a contiguous row-layout copy, which is much faster
    # than sorting along the strided sample axis.
    rows = buf.reshape(*mx.shape, n)
    rows[...] = np.moveaxis(x, axis, -1)
    # Among mixed signed zeros, which zero a sample-major max or min is
    # depends on the reduction order; the segments whose max or min is zero
    # take it from the row-layout copy.
    if axis == 0:
        zero = (mx == 0.0) | (mn == 0.0)
        if zero.any():
            mx[zero], mn[zero] = rows[zero].max(axis=-1), rows[zero].min(axis=-1)
    rows.sort(axis=-1)
    median = rows[..., n // 2] if n % 2 else (rows[..., n // 2 - 1] + rows[..., n // 2]) / 2.0
    # Stacked statistic-major, so each statistic is one contiguous copy.
    return np.moveaxis(np.stack([_mean(x, axis), rms, mx, mn, median, mx - mn, *factors]), 0, -1)


def _spectrum(x: np.ndarray, axis: int) -> np.ndarray:
    """DFT magnitudes over `axis`, laid out like x."""
    return np.abs(np.fft.fft(x, axis=axis))


def _segment(segment) -> np.ndarray:
    """A segment as sample-major values of one series: (n, 1)."""
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DataError("segment must be a non-empty 1-d vector")
    return x[:, None]


def time_stats(segment) -> np.ndarray:
    """The nine segment statistics, in STAT_NAMES order.

    The dimensionless factors (crest, impulse, margin) are 0 where their
    denominator vanishes (an all-zero segment, or a margin whose squared mean
    root underflows), so downstream matrices stay finite.
    """
    return _stats(_segment(segment), 0)[0]


def fft_magnitude(segment) -> np.ndarray:
    """Unnormalized DFT magnitudes |X_k|, k = 0..l-1 (full spectrum)."""
    return _spectrum(_segment(segment), 0)[:, 0]


def freq_stats(segment) -> np.ndarray:
    return _stats(_spectrum(_segment(segment), 0), 0)[0]


def _filter_pair(wavelet: str):
    if wavelet not in WAVELETS:
        raise ConfigError(f"unsupported wavelet {wavelet!r}; available: {sorted(WAVELETS)}")
    lo = WAVELETS[wavelet]
    k = np.arange(len(lo))
    hi = ((-1.0) ** k) * lo[::-1]
    return lo, hi


def _wpt_bands(x: np.ndarray, depth: int, wavelet: str) -> np.ndarray:
    """Terminal subbands of a full wavelet-packet tree over axis 0 of
    sample-major values: (n, ...) -> (m, ..., 2**depth), the subbands in
    natural filter-bank order."""
    if depth < 1:
        raise DataError("depth must be >= 1")
    if len(x) >> depth == 0:            # n < 2**depth, without making 2**depth
        raise DataError(f"segment of length {len(x)} too short for depth {depth}")
    lo, hi = _filter_pair(wavelet)
    bands = x[..., None]
    for _ in range(depth):
        # Periodic extension; an odd-length band wraps its first sample so the
        # filter bank always halves the (possibly padded) length.
        n = len(bands)
        half = (n + 1) // 2
        pos = 2 * np.arange(half)
        # Each band splits into its approximation then its detail, so stepping
        # level by level keeps the depth-first subband order.
        out = np.zeros((half,) + bands.shape[1:] + (2,))
        for j in range(len(lo)):
            tap = bands[(pos + j) % (2 * half) % n]
            out[..., 0] += lo[j] * tap
            out[..., 1] += hi[j] * tap
        bands = out.reshape(*out.shape[:-2], -1)
    return bands


def wpt_decompose(segment, depth: int, wavelet: str = "haar") -> list:
    """Full wavelet-packet tree of the given depth.

    Both approximation and detail branches are recursed; the 2^depth terminal
    subbands come back in natural filter-bank order (all-approximation first).
    """
    return list(_wpt_bands(_segment(segment), depth, wavelet)[:, 0].T)


def wpt_stats(segment, depth: int, wavelet: str = "haar") -> np.ndarray:
    """time_stats of each terminal subband, concatenated in subband order."""
    return _stats(_wpt_bands(_segment(segment), depth, wavelet), 0).ravel()


@dataclass
class FeatureConfig:
    """Which feature domains to compute per channel.

    `origin` flattens the raw window values; `timefreq` uses a wavelet packet
    tree of depth `wpt_depth`. Domains are always assembled in the canonical
    order origin, time, frequency, timefreq no matter how they were listed.
    """

    domains: tuple = ("time",)
    wpt_depth: int = 3
    wavelet: str = "haar"

    def __post_init__(self):
        int_fields(self, ("wpt_depth",))
        domains = tuple(self.domains)
        unknown = [d for d in domains if d not in DOMAINS]
        if unknown:
            raise ConfigError(f"unknown feature domains {unknown}; available: {DOMAINS}")
        if not domains:
            raise ConfigError("at least one feature domain required")
        self.domains = tuple(d for d in DOMAINS if d in domains)
        if "timefreq" in self.domains:
            if self.wpt_depth < 1:
                raise ConfigError("wpt_depth must be >= 1 for the timefreq domain")
            _filter_pair(self.wavelet)


def _domain_block(x: np.ndarray, domain: str, config: FeatureConfig):
    """One domain's (windows, channels, f) block of x = (windows, channels, L),
    and the f per-channel feature names."""
    if domain == "origin":
        return x, [f"origin.t{i}" for i in range(x.shape[-1])]
    if domain == "time":
        return _stats(x, -1), [f"time.{s}" for s in STAT_NAMES]
    if domain == "frequency":
        return _stats(_spectrum(x, -1), -1), [f"freq.{s}" for s in STAT_NAMES]
    bands = _wpt_bands(np.ascontiguousarray(np.moveaxis(x, -1, 0)), config.wpt_depth, config.wavelet)
    return (_stats(bands, 0).reshape(*x.shape[:-1], -1),
            [f"wpt{b}.{s}" for b in range(2 ** config.wpt_depth) for s in STAT_NAMES])


def featurize(windows: WindowBatch, config: FeatureConfig) -> FeatureMatrix:
    """One FeatureMatrix row per window; channel-major feature layout with
    deterministic names like ``ch3.time.rms``."""
    if len(windows) == 0:
        raise DataError("no windows to featurize")
    x = windows.values
    blocks, names = zip(*(_domain_block(x, d, config) for d in config.domains))
    feature_names = [f"ch{ch}.{n}" for ch in range(x.shape[1]) for block in names for n in block]
    data = np.concatenate(blocks, axis=-1).reshape(len(windows), -1)
    return FeatureMatrix(data, windows.labels, feature_names)


@dataclass
class Standardizer:
    """Per-column z-score fitted on training rows only.

    Zero-variance columns keep scale 1 so transforms stay finite. Fits and
    transforms work on columns scaled by the power of two `scale_exponent`
    picks for each, so values near the float limits neither overflow nor
    underflow, and neither do ordinary columns beside them.
    """

    mean_: np.ndarray = field(default=None, repr=False)
    scale_: np.ndarray = field(default=None, repr=False)

    def fit(self, X) -> "Standardizer":
        X = as_rows(X)
        if not len(X):
            raise DataError("cannot fit a standardizer on zero rows")
        e = scale_exponent(X, axis=0)
        X = np.ldexp(X, -e)
        self.mean_ = np.ldexp(X.mean(axis=0), e)
        scale = np.ldexp(X.std(axis=0), e)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None:
            raise DataError("standardizer not fitted")
        X = as_rows(X, "X", self.mean_.shape[0])
        e = scale_exponent(X, self.mean_[None], axis=0)
        out = np.ldexp(X, -e)   # the one working copy; X is never written
        out -= np.ldexp(self.mean_, -e)
        out /= np.ldexp(self.scale_, -e)
        return out
