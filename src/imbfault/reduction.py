"""PCA and LDA projections, fitted on training data only.

Eigenvector signs are fixed by making each vector's largest-magnitude entry
positive, so fitted models are identical across platforms. Functions accept
either a FeatureMatrix or a plain 2-d array and return the matching kind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import FeatureMatrix, as_labels
from .errors import ConfigError, DataError


def _as_array(X):
    if isinstance(X, FeatureMatrix):
        return X.data, X
    return np.asarray(X, dtype=float), None


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    flip = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])] < 0
    out = vectors.copy()
    out[:, flip] = -out[:, flip]
    return out


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray           # (d, r), orthonormal columns
    explained_variance_ratio: np.ndarray


@dataclass(frozen=True)
class LdaModel:
    mean: np.ndarray
    components: np.ndarray           # (d, r), r <= n_classes - 1
    eigenvalues: np.ndarray


def pca_fit(X, n_components: int | None = None, variance: float | None = None) -> PcaModel:
    """Eigendecompose the sample covariance (1/(m-1)) of centered X.

    Exactly one of n_components / variance must be given; with a variance
    fraction the smallest r whose cumulative explained ratio reaches it is
    used. Requests beyond the numerical rank are clipped with a warning.
    """
    data, _ = _as_array(X)
    if (n_components is None) == (variance is None):
        raise ConfigError("specify exactly one of n_components or variance")
    m, d = data.shape
    if m < 2:
        raise DataError("PCA needs at least 2 rows")
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
    return PcaModel(mean=mean, components=_fix_signs(eigvecs[:, :r]),
                    explained_variance_ratio=ratios[:r])


def pca_transform(model: PcaModel, X):
    data, fm = _as_array(X)
    if data.shape[1] != model.mean.shape[0]:
        raise DataError("column count does not match the fitted PCA model")
    reduced = (data - model.mean) @ model.components
    if fm is None:
        return reduced
    names = tuple(f"pc{i}" for i in range(reduced.shape[1]))
    return FeatureMatrix(reduced, fm.labels, names)


def lda_fit(X, labels=None, n_components: int | None = None) -> LdaModel:
    """Generalized eigenvectors of between-class vs within-class scatter.

    The within-class scatter is ridge-regularized by 1e-6 * trace / d. The
    projection dimension is capped at n_classes - 1; larger requests are
    clipped with a warning.
    """
    data, fm = _as_array(X)
    if fm is not None and labels is None:
        labels = fm.labels
    if labels is None:
        raise DataError("LDA needs labels")
    labels = as_labels(labels)
    if len(labels) != data.shape[0]:
        raise DataError("labels length must equal row count")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise DataError("LDA needs at least 2 classes")
    m, d = data.shape
    mean = data.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for c in classes:
        rows = data[labels == c]
        mu_c = rows.mean(axis=0)
        centered = rows - mu_c
        sw += centered.T @ centered
        diff = (mu_c - mean)[:, None]
        sb += len(rows) * (diff @ diff.T)
    trace = np.trace(sw)
    ridge = 1e-6 * (trace / d if trace > 0 else 1.0)
    sw_r = (sw + sw.T) / 2.0 + ridge * np.eye(d)
    eigvals, eigvecs = scipy.linalg.eigh((sb + sb.T) / 2.0, sw_r)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    cap = min(len(classes) - 1, d)
    r = cap if n_components is None else int(n_components)
    if r > cap:
        warnings.warn(f"requested {r} LDA components but the cap is {cap}; clipping")
        r = cap
    if r < 1:
        raise ConfigError("LDA needs at least 1 component")
    return LdaModel(mean=mean, components=_fix_signs(eigvecs[:, :r]),
                    eigenvalues=eigvals[:r])


def lda_transform(model: LdaModel, X):
    data, fm = _as_array(X)
    if data.shape[1] != model.mean.shape[0]:
        raise DataError("column count does not match the fitted LDA model")
    reduced = (data - model.mean) @ model.components
    if fm is None:
        return reduced
    names = tuple(f"ld{i}" for i in range(reduced.shape[1]))
    return FeatureMatrix(reduced, fm.labels, names)
