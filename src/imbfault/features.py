"""Per-window statistical features in time, frequency and time-frequency domains.

Each channel of each window is a segment; a segment yields nine statistics:

    mean, rms, max, min, median, range,
    crest   = max|x| / rms,
    impulse = max|x| / mean|x|,
    margin  = max|x| / (mean sqrt|x|)^2.

The frequency domain applies the same nine to the unnormalized full-length
DFT magnitude spectrum; the time-frequency domain applies them to every
terminal subband of a wavelet packet tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, WindowBatch, as_rows, scale_exponent
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


def _stats(x: np.ndarray) -> np.ndarray:
    """The nine statistics along the last axis: (..., n) -> (..., 9).

    The elementwise temporaries reuse one scratch buffer the size of x.
    """
    if not np.all(np.isfinite(x)):
        raise DataError("segment must be finite")
    n = x.shape[-1]
    mx, mn = x.max(axis=-1), x.min(axis=-1)
    buf = np.abs(x)
    max_abs, mean_abs = buf.max(axis=-1), buf.mean(axis=-1)
    # libm pow rather than m * m: the square is rounded like the scalar
    # definition's Python float ``** 2``.
    mean_sqrt_sq = np.float_power(np.sqrt(buf, out=buf).mean(axis=-1), 2)
    # Square x over the power of two at or below max|x|: the scaling is exact,
    # and squares of tiny or huge segments neither lose precision nor overflow.
    scale = np.ldexp(1.0, np.frexp(max_abs)[1] - 1)
    np.divide(x, scale[..., None], out=buf)
    rms = scale * np.sqrt(np.square(buf, out=buf).mean(axis=-1))
    den = np.stack([rms, mean_abs, mean_sqrt_sq], axis=-1)
    factors = np.divide(max_abs[..., None], den, out=np.zeros_like(den), where=den > 0.0)
    buf[...] = x
    buf.sort(axis=-1)
    median = buf[..., n // 2] if n % 2 else (buf[..., n // 2 - 1] + buf[..., n // 2]) / 2.0
    return np.concatenate([np.stack([x.mean(axis=-1), rms, mx, mn, median, mx - mn], axis=-1),
                           factors], axis=-1)


def _spectrum(x: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.fft(x, axis=-1))


def _segment(segment) -> np.ndarray:
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DataError("segment must be a non-empty 1-d vector")
    return x


def time_stats(segment) -> np.ndarray:
    """The nine segment statistics, in STAT_NAMES order.

    The dimensionless factors (crest, impulse, margin) are 0 where their
    denominator vanishes (an all-zero segment, or a margin whose squared mean
    root underflows), so downstream matrices stay finite.
    """
    return _stats(_segment(segment))


def fft_magnitude(segment) -> np.ndarray:
    """Unnormalized DFT magnitudes |X_k|, k = 0..l-1 (full spectrum)."""
    return _spectrum(_segment(segment))


def freq_stats(segment) -> np.ndarray:
    return _stats(fft_magnitude(segment))


def _filter_pair(wavelet: str):
    if wavelet not in WAVELETS:
        raise ConfigError(f"unsupported wavelet {wavelet!r}; available: {sorted(WAVELETS)}")
    lo = WAVELETS[wavelet]
    k = np.arange(len(lo))
    hi = ((-1.0) ** k) * lo[::-1]
    return lo, hi


def _wpt_bands(x: np.ndarray, depth: int, wavelet: str) -> np.ndarray:
    """Terminal subbands of a full wavelet-packet tree over the last axis:
    (..., n) -> (..., 2**depth, m), in natural filter-bank order."""
    if depth < 1:
        raise DataError("depth must be >= 1")
    if x.shape[-1] < 2 ** depth:
        raise DataError(f"segment of length {x.shape[-1]} too short for depth {depth}")
    lo, hi = _filter_pair(wavelet)
    bands = x[..., None, :]
    for _ in range(depth):
        # Periodic extension; an odd-length band wraps its first sample so the
        # filter bank always halves the (possibly padded) length.
        n = bands.shape[-1]
        half = (n + 1) // 2
        pos = 2 * np.arange(half)
        # Each band splits into its approximation then its detail, so stepping
        # level by level keeps the depth-first subband order.
        out = np.zeros(bands.shape[:-1] + (2, half))
        for j in range(len(lo)):
            tap = bands[..., (pos + j) % (2 * half) % n]
            out[..., 0, :] += lo[j] * tap
            out[..., 1, :] += hi[j] * tap
        bands = out.reshape(*out.shape[:-3], -1, half)
    return bands


def wpt_decompose(segment, depth: int, wavelet: str = "haar") -> list:
    """Full wavelet-packet tree of the given depth.

    Both approximation and detail branches are recursed; the 2^depth terminal
    subbands come back in natural filter-bank order (all-approximation first).
    """
    return list(_wpt_bands(_segment(segment), depth, wavelet))


def wpt_stats(segment, depth: int, wavelet: str = "haar") -> np.ndarray:
    """time_stats of each terminal subband, concatenated in subband order."""
    return _stats(_wpt_bands(_segment(segment), depth, wavelet)).ravel()


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
    with the f per-channel feature names."""
    if domain == "origin":
        return x, [f"origin.t{i}" for i in range(x.shape[-1])]
    if domain == "time":
        return _stats(x), [f"time.{s}" for s in STAT_NAMES]
    if domain == "frequency":
        return _stats(_spectrum(x)), [f"freq.{s}" for s in STAT_NAMES]
    block = _stats(_wpt_bands(x, config.wpt_depth, config.wavelet))
    return (block.reshape(*x.shape[:-1], -1),
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

    Zero-variance columns keep scale 1 so transforms stay finite. The
    moments are taken on rows scaled by the power of two `scale_exponent`
    picks, so rows near the float limits neither overflow nor underflow.
    """

    mean_: np.ndarray = field(default=None, repr=False)
    scale_: np.ndarray = field(default=None, repr=False)

    def fit(self, X) -> "Standardizer":
        X = as_rows(X)
        if not len(X):
            raise DataError("cannot fit a standardizer on zero rows")
        e = scale_exponent(X)
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
        return (X - self.mean_) / self.scale_
