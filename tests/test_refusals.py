"""Every public refusal ends in its typed error, with the message naming the fault."""

import numpy as np
import pytest

from imbfault.classifier import GbtParams
from imbfault.core import TimeSeriesFrame
from imbfault.errors import ConfigError, DataError
from imbfault.features import FeatureConfig, wpt_decompose
from imbfault.imputation import GaussianModel
from imbfault.metrics import ConfusionMatrix, confusion, macro_metrics, mcc
from imbfault.pipeline import PipelineConfig, stratified_folds
from imbfault.reduction import lda_fit, pca_fit
from imbfault.rng import Pcg32
from imbfault.sampling import agglomerative_clusters, knn
from imbfault.synthgen import fig2a_noisy_scenario

ROWS = np.arange(12, dtype=float).reshape(6, 2) ** 1.5


@pytest.mark.parametrize("call, error, detail", [
    (lambda: GbtParams(max_depth=0), ConfigError, "max_depth must be >= 1"),
    (lambda: GbtParams(min_leaf=0), ConfigError, "min_leaf must be >= 1"),
    (lambda: PipelineConfig(reduce="x"), ConfigError, "unknown reducer 'x'"),
    (lambda: PipelineConfig(sampler="x"), ConfigError, "unknown sampler 'x'"),
    (lambda: PipelineConfig(resample_stage="x"), ConfigError, "unknown resample stage 'x'"),
    (lambda: PipelineConfig(folds=1), ConfigError, "folds must be >= 2"),
    (lambda: stratified_folds(["a", "b"] * 3, 1, Pcg32(0)), ConfigError,
     "need at least 2 folds"),
    (lambda: TimeSeriesFrame([], ("a",), np.empty((1, 0))), DataError, "empty time series"),
    (lambda: GaussianModel(np.zeros(2), np.eye(3), 0.0), DataError,
     "covariance shape must match the mean"),
    (lambda: ConfusionMatrix(("a", "b"), np.zeros((2, 3))), DataError,
     "confusion counts must be C x C"),
    (lambda: confusion(["a", "b"], ["a"]), DataError, "label vectors differ in length"),
    (lambda: mcc(confusion(["a", "b", "c"], ["a", "b", "c"])), DataError,
     "mcc expects a 2x2 confusion matrix"),
    (lambda: macro_metrics(["a", "b"], ["a", "b"], np.zeros((2, 3))), DataError,
     r"scores must be \(2, 2\)"),
    (lambda: pca_fit(ROWS, variance=1.5), ConfigError, r"variance fraction must be in \(0, 1\]"),
    (lambda: pca_fit(ROWS, n_components=-1), ConfigError, "n_components must be >= 0"),
    (lambda: lda_fit(ROWS), DataError, "LDA needs labels"),
    (lambda: lda_fit(ROWS, ["a", "b"] * 2), DataError, "labels length must equal row count"),
    (lambda: lda_fit(ROWS, ["a", "b"] * 3, n_components=0), ConfigError,
     "LDA needs at least 1 component"),
    (lambda: knn(ROWS[0], ROWS, 0), DataError, "k must be >= 1"),
    (lambda: agglomerative_clusters(np.empty((0, 2)), 3.0), DataError,
     "cannot cluster an empty set"),
    (lambda: wpt_decompose(np.arange(8.0), 0), DataError, "depth must be >= 1"),
    (lambda: FeatureConfig(domains=()), ConfigError, "at least one feature domain"),
    (lambda: FeatureConfig(domains=("timefreq",), wpt_depth=0), ConfigError,
     "wpt_depth must be >= 1 for the timefreq domain"),
    (lambda: fig2a_noisy_scenario(0, n_noise=6), DataError, "at most 5 noise points"),
])
def test_refusal_raises_its_typed_error(call, error, detail):
    with pytest.raises(error, match=detail):
        call()
