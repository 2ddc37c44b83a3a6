"""Gaussian estimation over minority rows and conditional-mean imputation.

The minority training rows are complete, so the maximum-likelihood mean and
covariance are already the fixed point of the usual iterative estimator and
no iteration is needed. Masked attributes are filled with the conditional
Gaussian expectation given the observed ones: one solve with the ridged
covariance serves a whole batch of rows, each with its own masked set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_rows
from .errors import DataError


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector, sample covariance and the ridge actually applied."""

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise DataError("covariance shape must match the mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DataError("mean and covariance must be finite")
        if not 0 <= self.ridge < np.inf:
            raise DataError("ridge must be finite and >= 0")
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(cov).max(initial=0.0)):
            raise DataError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", (cov + cov.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.mean.size


def fit_gaussian(rows, ridge_scale: float = 1e-6) -> GaussianModel:
    """Column means and 1/(m-1) covariance with ridge ridge_scale * trace / d.

    A vanishing trace (identical rows) would leave the ridge zero, so it is
    floored at 1e-12 to keep the covariance positive definite.
    """
    X = as_rows(rows, "rows")
    if X.shape[0] < 2:
        raise DataError("need at least 2 complete rows to fit a Gaussian")
    if not 0 <= ridge_scale < np.inf:
        raise DataError("ridge_scale must be finite and >= 0")
    m, d = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (m - 1)
    trace = float(np.trace(cov))
    ridge = max(ridge_scale * trace / d, 1e-12)
    return GaussianModel(mean=mean, covariance=cov, ridge=ridge)


def _index_sets(missing, n: int, d: int) -> np.ndarray:
    """`missing` as a (1, k) index set shared by all n rows, or (n, k), one per row.
    Indices of any other than an integer dtype (floats, bools) are refused, not truncated."""
    try:
        miss = np.asarray(missing)
    except (TypeError, ValueError) as exc:
        raise DataError(f"missing is not an index array: {exc}") from None
    if miss.size and miss.dtype.kind not in "iu":
        raise DataError(f"missing indices must be integers, not {miss.dtype}")
    shared = miss.ndim < 2
    miss = miss.reshape(1, -1) if shared else miss
    if miss.ndim > 2 or not (shared or len(miss) == n):
        raise DataError(f"missing must be one index set or one per row of x, got shape {miss.shape}")
    if miss.shape[1] == 0:
        raise DataError("missing index set is empty")
    if np.any(miss < 0) or np.any(miss >= d):
        raise DataError("missing index out of range")
    if miss.shape[1] >= d:
        raise DataError("cannot impute with every attribute missing")
    if np.any(np.diff(np.sort(miss, axis=1), axis=1) == 0):
        raise DataError("missing index repeated in a set")
    return miss


def impute_conditional(model: GaussianModel, x, missing) -> np.ndarray:
    """Fill x, one row (d,) or rows (n, d), at the missing indices with the
    conditional mean: `missing` is one index set shared by every row or an
    (n, k) array of per-row sets. With z = x - mean zeroed at M, the block
    inverse of A = covariance + ridge*I gives mean_M - ((A^-1)_MM)^-1 (A^-1 z)_M
    from one LU of A for every row (an explicit inverse times z loses digits).
    Observed coordinates are returned untouched."""
    try:
        one_row = np.ndim(x) == 1
    except ValueError:                  # ragged; as_rows names it
        one_row = False
    d = model.dim
    x = as_rows([x] if one_row else x, "x", d)
    miss = _index_sets(missing, len(x), d)
    rows = np.arange(len(x))[:, None]
    z = x - model.mean
    z[rows, miss] = 0.0
    # sol = [A^-1 | A^-1 z^T]: (A^-1)_MM from its left block, (A^-1 z)_M from its right.
    sol = np.linalg.solve(model.covariance + model.ridge * np.eye(d), np.hstack([np.eye(d), z.T]))
    out = x.copy()
    out[rows, miss] = model.mean[miss] - np.linalg.solve(
        sol[miss[:, :, None], miss[:, None, :]], sol[miss, d + rows][..., None])[..., 0]
    return out[0] if one_row else out
