"""Gaussian estimation over minority rows and conditional-mean imputation.

The minority training rows are complete, so the maximum-likelihood mean and
covariance are already the fixed point of the usual iterative estimator and
no iteration is needed. Masked attributes are filled with the conditional
Gaussian expectation given the observed ones.
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
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
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
    if ridge_scale < 0:
        raise DataError("ridge_scale must be >= 0")
    m, d = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (m - 1)
    trace = float(np.trace(cov))
    ridge = max(ridge_scale * trace / d, 1e-12)
    return GaussianModel(mean=mean, covariance=cov, ridge=ridge)


def _split_indices(model: GaussianModel, missing) -> tuple:
    miss = np.unique(np.asarray(missing, dtype=int))
    if miss.size == 0:
        raise DataError("missing index set is empty")
    if np.any(miss < 0) or np.any(miss >= model.dim):
        raise DataError("missing index out of range")
    if miss.size == model.dim:
        raise DataError("cannot impute with every attribute missing")
    obs = np.setdiff1d(np.arange(model.dim), miss)
    return miss, obs


def _conditional(model: GaussianModel, x: np.ndarray, miss, obs):
    """Conditional mean of the missing coordinates of x, one row (d,) or a
    batch (n, d); a batch is one solve with n right-hand sides."""
    cov = model.covariance
    sig_oo = cov[np.ix_(obs, obs)] + model.ridge * np.eye(obs.size)
    sig_mo = cov[np.ix_(miss, obs)]
    sol = np.linalg.solve(sig_oo, (x[..., obs] - model.mean[obs]).T)
    return model.mean[miss] + (sig_mo @ sol).T


def impute_conditional(model: GaussianModel, x, missing) -> np.ndarray:
    """Fill x at the missing indices with the conditional mean.

    x is one row (d,) or a batch of rows (n, d) that share the missing set.
    Observed coordinates are returned untouched; the result is deterministic.
    """
    try:
        one_row = np.ndim(x) == 1
    except ValueError:                  # ragged; as_rows names it
        one_row = False
    x = as_rows([x], "x", model.dim)[0] if one_row else as_rows(x, "x", model.dim)
    miss, obs = _split_indices(model, missing)
    out = x.copy()
    out[..., miss] = _conditional(model, x, miss, obs)
    return out
