"""PCA and LDA projections, fitted on training data only.

Both fits return a Projection. Eigenvector signs are fixed by making each
vector's largest-magnitude entry positive, so fits are identical across
platforms. Both fit on rows scaled by the power of two `scale_exponent`
picks, so rows near the float limits neither overflow nor underflow. Fits
and transforms accept a FeatureMatrix or a plain 2-d array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FeatureMatrix, as_rows, label_codes, scale_exponent
from .errors import ConfigError, DataError


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])] < 0
    out = vectors.copy()
    out[:, flip] = -out[:, flip]
    return out


@dataclass(frozen=True)
class Projection:
    """Rows map to (X - mean) @ components. spectrum has one value per
    component: the explained-variance ratio for PCA, the eigenvalue for LDA.
    """

    mean: np.ndarray
    components: np.ndarray           # (d, r)
    spectrum: np.ndarray             # (r,)
    name_prefix: str

    def transform(self, X):
        """A FeatureMatrix comes back with its labels and features named
        name_prefix + component index; an array comes back as an array."""
        reduced = (as_rows(X, "X", self.mean.shape[0]) - self.mean) @ self.components
        if not isinstance(X, FeatureMatrix):
            return reduced
        names = tuple(f"{self.name_prefix}{i}" for i in range(reduced.shape[1]))
        return FeatureMatrix(reduced, X.labels, names)


# pipeline.py calls the transform through these names, and
# perfbench/tracing.py wraps them there by name.
pca_transform = lda_transform = Projection.transform


def pca_fit(X, n_components: int | None = None, variance: float | None = None) -> Projection:
    """Eigendecompose the sample covariance (1/(m-1)) of centered X.

    Exactly one of n_components / variance must be given; with a variance
    fraction the smallest r whose cumulative explained ratio reaches it is
    used. Requests beyond the numerical rank are clipped with a warning.
    """
    data = as_rows(X)
    if (n_components is None) == (variance is None):
        raise ConfigError("specify exactly one of n_components or variance")
    m, d = data.shape
    if m < 2 or d == 0:
        raise DataError(f"PCA needs at least 2 rows and 1 column, got {m} x {d}")
    e = scale_exponent(data)
    data = np.ldexp(data, -e)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (m - 1)
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    ratios = eigvals / total if total > 0 else np.zeros_like(eigvals)
    rank = int(np.sum(eigvals > (eigvals[0] * 1e-10 if eigvals[0] > 0 else 0.0)))
    if variance is not None:
        if not 0 < variance <= 1:
            raise ConfigError("variance fraction must be in (0, 1]")
        # tolerance so e.g. a true 0.9 cumulative ratio satisfies target 0.9
        r = int(np.searchsorted(np.cumsum(ratios), variance - 1e-12) + 1)
        r = min(r, rank) if rank else 0
    else:
        r = int(n_components)
        if r < 0:
            raise ConfigError("n_components must be >= 0")
        if r > rank:
            warnings.warn(f"requested {r} components but rank is {rank}; clipping")
            r = rank
    return Projection(np.ldexp(mean, e), _fix_signs(eigvecs[:, :r]), ratios[:r], "pc")


def lda_fit(X, labels=None, n_components: int | None = None) -> Projection:
    """Generalized eigenvectors of between-class vs within-class scatter.

    The within-class scatter is ridge-regularized by 1e-6 * trace / d and
    factored as L L^T; the eigenvectors W of L^-1 S_b L^-T map back to
    components L^-T W, which are orthonormal in the ridged scatter. The
    projection dimension is capped at n_classes - 1; larger requests are
    clipped with a warning.
    """
    data = as_rows(X)
    if isinstance(X, FeatureMatrix) and labels is None:
        labels = X.labels
    if labels is None:
        raise DataError("LDA needs labels")
    classes, codes = label_codes(labels)
    if len(codes) != data.shape[0]:
        raise DataError("labels length must equal row count")
    if len(classes) < 2:
        raise DataError("LDA needs at least 2 classes")
    m, d = data.shape
    e = scale_exponent(data)
    data = np.ldexp(data, -e)
    mean = data.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for k in range(len(classes)):
        rows = data[codes == k]
        mu_c = rows.mean(axis=0)
        centered = rows - mu_c
        sw += centered.T @ centered
        diff = (mu_c - mean)[:, None]
        sb += len(rows) * (diff @ diff.T)
    trace = np.trace(sw)
    ridge = 1e-6 * (trace / d if trace > 0 else 1.0)
    sw_r = (sw + sw.T) / 2.0 + ridge * np.eye(d)
    whiten = np.linalg.inv(np.linalg.cholesky(sw_r))
    eigvals, eigvecs = np.linalg.eigh(whiten @ ((sb + sb.T) / 2.0) @ whiten.T)
    eigvecs = whiten.T @ eigvecs
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    cap = min(len(classes) - 1, d)
    r = cap if n_components is None else int(n_components)
    if r > cap:
        warnings.warn(f"requested {r} LDA components but the cap is {cap}; clipping")
        r = cap
    if r < 1:
        raise ConfigError("LDA needs at least 1 component")
    return Projection(np.ldexp(mean, e), _fix_signs(np.ldexp(eigvecs[:, :r], -e)),
                      eigvals[:r], "ld")
