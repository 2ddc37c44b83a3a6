"""Seed-deterministic synthetic datasets for experiments and tests.

Two 2-d scenarios reproduce the geometric failure modes the oversamplers
differ on: isolated noisy minority points deep inside the majority mass, and
a minority chain whose middle is interrupted by planted majority points (the
"gap") that segment-interpolating samplers generate into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FaultInterval, FeatureMatrix, TimeSeriesFrame
from .errors import DataError
from .rng import Pcg32


def _mvn(rng: Pcg32, mean, cov, count: int) -> np.ndarray:
    mean = np.asarray(mean, dtype=float)
    d = mean.size
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(d)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    chol = np.linalg.cholesky(cov)
    z = rng.normals(count * d).reshape(count, d)
    return mean + z @ chol.T


def gaussian_blobs(class_specs, seed: int) -> FeatureMatrix:
    """One Gaussian blob per (mean, cov, count, label) spec.

    cov may be a scalar, a variance vector or a full matrix. Rows appear in
    spec order; feature names are f0..f{d-1}.
    """
    if not class_specs:
        raise DataError("at least one class spec required")
    rng = Pcg32(seed)
    dim = np.asarray(class_specs[0][0], dtype=float).size
    blocks, labels = [], []
    for mean, cov, count, label in class_specs:
        if count < 1:
            raise DataError(f"class {label!r}: count must be >= 1, got {count}")
        blocks.append(_mvn(rng, mean, cov, count))
        labels += [str(label)] * count
    return FeatureMatrix(np.vstack(blocks), labels,
                         tuple(f"f{i}" for i in range(dim)))


@dataclass(frozen=True)
class Scenario:
    """A 2-d scenario matrix plus the geometry tests need to check claims."""

    matrix: FeatureMatrix
    minority_label: str
    majority_label: str
    noise_rows: tuple = ()        # planted noisy minority rows (matrix indices)
    gap_center: tuple = ()
    gap_radius: float = 0.0

    def minority_rows(self) -> np.ndarray:
        return self.matrix.rows_of(self.minority_label)

    def majority_rows(self) -> np.ndarray:
        return self.matrix.rows_of(self.majority_label)


def fig2a_noisy_scenario(seed: int, n_minority: int = 30, n_majority: int = 300,
                         n_noise: int = 3) -> Scenario:
    """Minority cluster plus isolated minority outliers planted deep inside
    the majority mass, far from each other and from the cluster."""
    rng = Pcg32(seed)
    minority = _mvn(rng, (0.0, 0.0), 0.4 ** 2, n_minority)
    majority = _mvn(rng, (5.0, 0.0), 1.2 ** 2, n_majority)
    offsets = np.array([(0.5, 0.5), (-0.6, 0.3), (0.1, -0.7), (0.7, -0.4), (-0.3, -0.6)])
    if n_noise > len(offsets):
        raise DataError(f"at most {len(offsets)} noise points supported")
    noise = np.array([(5.0, 0.0) + offsets[i] + rng.normals(2) * 0.05
                      for i in range(n_noise)])
    data = np.vstack([minority, noise, majority])
    labels = ["fault"] * (n_minority + n_noise) + ["normal"] * n_majority
    fm = FeatureMatrix(data, labels, ("f0", "f1"))
    return Scenario(matrix=fm, minority_label="fault", majority_label="normal",
                    noise_rows=tuple(range(n_minority, n_minority + n_noise)))


def fig2b_split_cluster_scenario(seed: int) -> Scenario:
    """An elongated diagonal minority chain with majority points planted in
    its middle. Within-cluster interpolation crosses the planted gap; the
    chain itself stays clear of it."""
    rng = Pcg32(seed)
    # The two points flanking the gap sit closer together than the chain
    # spacing, so average-linkage always keeps them in one cluster that spans
    # the planted majority points.
    t_values = np.array([-2.55, -1.80, -1.05, -0.30, 0.30, 1.05, 1.80, 2.55])
    along = np.array([1.0, 1.0]) / np.sqrt(2.0)
    across = np.array([1.0, -1.0]) / np.sqrt(2.0)
    minority = np.array([t * np.sqrt(2.0) * along + rng.normal(0.0, 0.03) * across
                         for t in t_values])
    trap = _mvn(rng, (0.0, 0.0), 0.05 ** 2, 3)
    mass = _mvn(rng, (4.0, -4.0), 0.8 ** 2, 150)
    data = np.vstack([minority, trap, mass])
    labels = ["fault"] * len(minority) + ["normal"] * (len(trap) + len(mass))
    fm = FeatureMatrix(data, labels, ("f0", "f1"))
    return Scenario(matrix=fm, minority_label="fault", majority_label="normal",
                    gap_center=(0.0, 0.0), gap_radius=0.28)


def synthetic_timeseries(n_ticks: int, intervals, n_channels: int, shift: float, seed: int):
    """Gaussian-noise channels with a per-channel mean shift during fault
    ticks; distinct fault labels get distinct shift multiples.

    Returns (TimeSeriesFrame, validated interval list).
    """
    if n_ticks < 1 or n_channels < 1:
        raise DataError("need at least one tick and one channel")
    rng = Pcg32(seed)
    timestamps = np.arange(n_ticks, dtype=float)
    values = rng.normals(n_channels * n_ticks).reshape(n_channels, n_ticks)
    intervals = [FaultInterval(iv.t_start, iv.t_end, iv.label) for iv in intervals]
    labels = sorted({iv.label for iv in intervals})
    scale = {lab: i + 1 for i, lab in enumerate(labels)}
    for iv in intervals:
        mask = iv.covers(timestamps)
        for ch in range(n_channels):
            values[ch, mask] += shift * scale[iv.label] * (1.0 + 0.25 * ch)
    frame = TimeSeriesFrame(
        timestamps=timestamps,
        channel_names=tuple(f"ch{i}" for i in range(n_channels)),
        values=values,
    )
    return frame, intervals
