import hashlib

import numpy as np
import pytest

from imbfault.classifier import GbtParams, gbt_train
from imbfault.core import FaultInterval, class_distribution
from imbfault.errors import DataError
from imbfault.features import FeatureConfig, featurize
from imbfault.ingestion import label_timestamps
from imbfault.sampling import filtered_minority
from imbfault.segmentation import segment
from imbfault.synthgen import (fig2a_noisy_scenario, fig2b_split_cluster_scenario,
                               gaussian_blobs, synthetic_timeseries)


class TestGaussianBlobs:
    def test_seed_deterministic(self):
        a = gaussian_blobs([((0, 0), 1.0, 30, "x")], seed=5)
        b = gaussian_blobs([((0, 0), 1.0, 30, "x")], seed=5)
        assert a.data.tobytes() == b.data.tobytes()

    def test_single_blob_one_class(self):
        fm = gaussian_blobs([((1, 2), 0.5, 25, "only")], seed=1)
        assert fm.classes() == ("only",)

    def test_case1_ratio_scaled(self):
        fm = gaussian_blobs([((0, 0), 1.0, 2577, "N"), ((3, 0), 1.0, 155, "F")], seed=2)
        dist = class_distribution(fm.labels)
        assert round(dist.ratios["F"], 1) == round(25768 / 1554, 1)

    def test_empirical_means_within_tolerance(self):
        mean = np.array([2.0, -1.0])
        fm = gaussian_blobs([(mean, 1.0, 4000, "x")], seed=3)
        # 3 sigma / sqrt(n)
        np.testing.assert_allclose(fm.data.mean(axis=0), mean, atol=3 / np.sqrt(4000))

    def test_full_covariance_respected(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        fm = gaussian_blobs([((0, 0), cov, 20000, "x")], seed=4)
        np.testing.assert_allclose(np.cov(fm.data, rowvar=False), cov, atol=0.1)

    def test_variance_vector_equals_scalar_variance(self):
        a = gaussian_blobs([((0, 1, 2), 2.25, 40, "x"), ((3, 0, 0), 0.5, 9, "y")], seed=6)
        b = gaussian_blobs([((0, 1, 2), [2.25] * 3, 40, "x"), ((3, 0, 0), [0.5] * 3, 9, "y")],
                           seed=6)
        assert a.data.tobytes() == b.data.tobytes() and a.labels.tolist() == b.labels.tolist()

    def test_empty_specs_error(self):
        with pytest.raises(DataError):
            gaussian_blobs([], seed=0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_error(self, count):
        with pytest.raises(DataError, match="count must be >= 1"):
            gaussian_blobs([((0, 0), 1.0, count, "N"), ((2, 0), 1.0, 2, "F")], seed=0)


class TestFig2aScenario:
    def test_noise_rows_are_minority(self):
        sc = fig2a_noisy_scenario(0)
        assert all(sc.matrix.labels[i] == sc.minority_label for i in sc.noise_rows)

    def test_noise_filtered_out(self):
        for seed in range(8):
            sc = fig2a_noisy_scenario(seed)
            s_min = sc.minority_rows()
            kept = set(filtered_minority(s_min, sc.majority_rows(), 5).tolist())
            n_clean = len(s_min) - len(sc.noise_rows)
            planted = set(range(n_clean, len(s_min)))
            assert not (kept & planted)

    def test_clean_cluster_survives(self):
        sc = fig2a_noisy_scenario(1)
        kept = filtered_minority(sc.minority_rows(), sc.majority_rows(), 5)
        n_clean = len(sc.minority_rows()) - len(sc.noise_rows)
        assert len([i for i in kept if i < n_clean]) == n_clean

    def test_deterministic(self):
        assert (fig2a_noisy_scenario(7).matrix.data.tobytes()
                == fig2a_noisy_scenario(7).matrix.data.tobytes())


class TestFig2bScenario:
    def test_geometry_fields(self):
        sc = fig2b_split_cluster_scenario(0)
        assert sc.gap_radius > 0
        assert len(sc.minority_rows()) == 8

    def test_trap_points_inside_gap(self):
        sc = fig2b_split_cluster_scenario(3)
        maj = sc.majority_rows()
        center = np.asarray(sc.gap_center)
        inside = np.linalg.norm(maj - center, axis=1) <= sc.gap_radius
        assert inside.sum() == 3

    def test_minority_chain_clear_of_gap(self):
        sc = fig2b_split_cluster_scenario(4)
        dist = np.linalg.norm(sc.minority_rows() - np.asarray(sc.gap_center), axis=1)
        assert dist.min() > sc.gap_radius

    @pytest.mark.parametrize("seed, digest", [
        (0, "76649ff86398793cfdb60b32ccd0d52691eb7300959274361db3027f9d65117f"),
        (7, "3748c3f5954f37f45bd7c284c6c615861c4c2c9494b477c186d87d59b079fee7"),
    ])
    def test_matrix_bytes_pinned(self, seed, digest):
        # Digests of the rows as drawn by one scalar normal() per chain point.
        data = fig2b_split_cluster_scenario(seed).matrix.data
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest


class TestSyntheticTimeseries:
    def test_interval_round_trip(self):
        ivs = [FaultInterval(10, 30, "F"), FaultInterval(50, 70, "G")]
        frame, out = synthetic_timeseries(100, ivs, 2, 1.0, seed=0)
        assert out == ivs
        assert frame.n_ticks == 100 and frame.n_channels == 2

    @pytest.mark.parametrize("seed, digest", [
        (3, "0ad5c74a2108e175a1bd5285dccc21e12bf51842b98106cb3b8bda98f8bdb337"),
        (11, "1032af3107d5f5cde8e8c11ad4b8b7d4928e190c85f3841ba2940b60df010c45"),
    ])
    def test_reversed_fault_labels_pinned(self, seed, digest):
        # Shift multiples follow class order: F gets 1 and G gets 2, though G comes first.
        ivs = [FaultInterval(70, 99, "G"), FaultInterval(10, 39, "F")]
        frame, _ = synthetic_timeseries(120, ivs, 3, 1.5, seed=seed)
        assert hashlib.sha256(frame.values.tobytes()).hexdigest() == digest

    def test_seed_deterministic(self):
        a, _ = synthetic_timeseries(50, [], 2, 0.0, seed=9)
        b, _ = synthetic_timeseries(50, [], 2, 0.0, seed=9)
        assert a.values.tobytes() == b.values.tobytes()

    def _recall(self, shift, seed=0):
        ivs = [FaultInterval(200, 349, "F"), FaultInterval(600, 749, "F")]
        frame, ivs = synthetic_timeseries(1000, ivs, 2, shift, seed=seed)
        series = label_timestamps(frame, ivs, "normal")
        windows = segment(series, 20, 5)
        fm = featurize(windows, FeatureConfig(domains=("time",)))
        half = fm.n_rows // 2
        train, test = fm.select(np.arange(half)), fm.select(np.arange(half, fm.n_rows))
        model = gbt_train(train, GbtParams(rounds=25, max_depth=3))
        pred = model.predict(test)
        fault_rows = test.labels == "F"
        return float(np.mean(pred[fault_rows] == "F"))

    def test_zero_shift_carries_no_signal(self):
        assert self._recall(0.0) <= 0.3

    def test_large_shift_separates(self):
        assert self._recall(4.0) >= 0.9

    def test_bad_args(self):
        with pytest.raises(DataError):
            synthetic_timeseries(0, [], 1, 1.0, seed=0)
        with pytest.raises(DataError):
            synthetic_timeseries(10, [], 0, 1.0, seed=0)
