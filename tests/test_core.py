import numpy as np
import pytest

from imbfault.classifier import GbtParams, gbt_train
from imbfault.core import (ClassDistribution, FaultInterval, FeatureMatrix,
                           SamplerParams, TimeSeriesFrame, WindowBatch,
                           as_labels, as_rows, class_distribution, label_codes)
from imbfault.errors import ConfigError, DataError
from imbfault.features import Standardizer
from imbfault.imputation import fit_gaussian, impute_conditional
from imbfault.reduction import lda_fit, lda_transform, pca_fit, pca_transform
from imbfault.rng import Pcg32
from imbfault.sampling import (SAMPLERS, agglomerative_clusters, borderline_majority,
                               filtered_minority, knn, selection_probabilities)


class TestClassDistribution:
    def test_wind_turbine_ratio(self):
        labels = ["N"] * 25768 + ["F"] * 1554
        dist = class_distribution(labels)
        assert dist.counts == {"N": 25768, "F": 1554}
        assert dist.majority_label == "N"
        assert dist.ratios["F"] == pytest.approx(25768 / 1554)
        assert round(dist.ratios["F"], 2) == 16.58

    def test_single_class(self):
        dist = class_distribution(["a", "a", "a"])
        assert dist.counts == {"a": 3}
        assert dist.ratios["a"] == 1.0

    def test_plant_failure_ratio(self):
        labels = ["N"] * 77043 + ["F4"] * 72
        dist = class_distribution(labels)
        assert round(dist.ratios["F4"], 2) == 1070.04

    def test_counts_partition(self):
        rng = Pcg32(0)
        labels = [f"c{rng.randint(4)}" for _ in range(500)]
        dist = class_distribution(labels)
        assert sum(dist.counts.values()) == 500
        assert dist.total == 500

    def test_majority_tie_breaks_by_label_order(self):
        dist = class_distribution(["b", "a", "b", "a"])
        assert dist.majority_label == "a"

    def test_tied_majority_counts(self):
        dist = class_distribution(["c", "b", "a", "b", "c", "a", "d"])
        assert dist.majority_label == "a"
        assert list(dist.counts.items()) == [("a", 2), ("b", 2), ("c", 2), ("d", 1)]
        assert dist.ratios == {"a": 1.0, "b": 1.0, "c": 1.0, "d": 2.0}

    def test_empty_labels_error(self):
        with pytest.raises(DataError):
            class_distribution([])


class TestLabelCodes:
    def test_sorted_order_by_default(self):
        classes, codes = label_codes(["b", "c", "a", "b"])
        assert classes == ("a", "b", "c")
        assert codes.tolist() == [1, 2, 0, 1]

    def test_given_order(self):
        classes, codes = label_codes(["b", "c", "b"], ["c", "a", "b"])
        assert classes == ("c", "a", "b")
        assert codes.tolist() == [2, 0, 2]

    def test_label_outside_given_order(self):
        with pytest.raises(DataError, match=r"labels \['x'\] missing"):
            label_codes(["a", "x"], ["a"])


class TestPcg32:
    def test_reference_stream(self):
        # Published pcg32 outputs for initstate=42, initseq=54.
        rng = Pcg32(42, 54)
        expected = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
        assert [int(rng._take(1)[0]) for _ in range(6)] == expected

    def test_same_seed_same_stream(self):
        a = Pcg32(42)
        b = Pcg32(42)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = [Pcg32(1).random() for _ in range(20)]
        b = [Pcg32(2).random() for _ in range(20)]
        assert a != b

    def test_uniform_mean(self):
        rng = Pcg32(7)
        draws = rng.uniforms(100_000)
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() < 1.0

    def test_randint_bounds_and_coverage(self):
        rng = Pcg32(3)
        draws = [rng.randint(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6
        assert rng.randint(1) == 0

    def test_randint_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Pcg32(0).randint(0)

    def test_child_streams_independent(self):
        root = Pcg32(9)
        c0, c1 = root.child(0), root.child(1)
        s0 = [c0.random() for _ in range(10)]
        s1 = [c1.random() for _ in range(10)]
        assert s0 != s1
        again = Pcg32(9).child(0)
        assert s0 == [again.random() for _ in range(10)]

    def test_normal_moments(self):
        rng = Pcg32(11)
        z = rng.normals(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_shuffle_is_permutation(self):
        rng = Pcg32(5)
        arr = np.arange(30)
        rng.shuffle(arr)
        assert sorted(arr.tolist()) == list(range(30))


class TestCoreTypes:
    def test_frame_requires_monotone_timestamps(self):
        with pytest.raises(DataError):
            TimeSeriesFrame([0, 2, 1], ("a",), [[1.0, 2.0, 3.0]])
        with pytest.raises(DataError):
            TimeSeriesFrame([0, 1, 1], ("a",), [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("ts", [[0, np.nan], [0, np.inf], [0, np.inf, np.inf], [-np.inf, 0]])
    def test_frame_rejects_non_finite_timestamps(self, ts):
        # NaN compares false to everything, and inf - inf is NaN with a
        # RuntimeWarning, so the ordering check alone passes these.
        with pytest.raises(DataError, match="finite"):
            TimeSeriesFrame(ts, ("a",), [np.ones(len(ts))])

    def test_frame_shape_mismatch(self):
        with pytest.raises(DataError):
            TimeSeriesFrame([0, 1], ("a", "b"), [[1.0, 2.0]])

    def test_frame_needs_a_channel(self):
        with pytest.raises(DataError, match="at least one channel"):
            TimeSeriesFrame([0, 1], (), np.empty((0, 2)))

    def test_frame_is_readonly(self):
        frame = TimeSeriesFrame([0, 1], ("a",), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            frame.values[0, 0] = 9.0

    def test_interval_inverted(self):
        with pytest.raises(DataError):
            FaultInterval(5, 3, "F")
        assert FaultInterval(3, 3, "F").covers(3)
        assert FaultInterval(3, 3, "F").covers([2, 3, 4]).tolist() == [False, True, False]

    @pytest.mark.parametrize("t_start, t_end", [(2, 5), (2.0, 5.0), (3, 3), (2.5, 2.5)])
    def test_interval_covers_both_bounds(self, t_start, t_end):
        ts = np.arange(0.0, 7.0, 0.5)
        expected = [t_start <= t <= t_end for t in ts.tolist()]
        assert FaultInterval(t_start, t_end, "F").covers(ts).tolist() == expected

    def test_as_labels_stringifies_and_freezes(self):
        labels = as_labels(np.array([[1, 2], [3, 1]]))
        assert labels.tolist() == ["1", "2", "3", "1"] and labels.dtype == object
        strs = as_labels(np.array(["a", "b"]))
        assert [type(v) for v in strs] == [str, str] and strs.tolist() == ["a", "b"]
        assert as_labels([]).shape == (0,)
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0] = "x"

    def test_labels_differing_by_a_trailing_nul_stay_apart(self):
        # A fixed-width str array would drop the NUL and merge the two classes.
        assert as_labels(["F\x00", "F"]).tolist() == ["F\x00", "F"]
        fm = FeatureMatrix(np.zeros((2, 1)), ["F\x00", "F"], ("a",))
        assert fm.classes() == ("F", "F\x00")
        assert class_distribution(fm.labels).counts == {"F": 1, "F\x00": 1}

    @pytest.mark.parametrize("bounds", [(np.nan, 5), (0, np.inf), (-np.inf, 0),
                                        (np.nan, np.nan)])
    def test_interval_non_finite(self, bounds):
        with pytest.raises(DataError, match="non-finite"):
            FaultInterval(*bounds, "F")

    @pytest.mark.parametrize("shape", [(1, 0, 4), (1, 2, 0)])
    def test_window_rejects_empty(self, shape):
        with pytest.raises(DataError, match="at least one channel and one tick"):
            WindowBatch([0], np.zeros(shape), ["N"])

    def test_window_rejects_nan(self):
        with pytest.raises(DataError, match="finite"):
            WindowBatch([0], [[[np.nan, 1.0]]], ["N"])

    def test_window_rejects_2d_values(self):
        with pytest.raises(DataError, match="3-d"):
            WindowBatch([0], np.zeros((2, 4)), ["N"])

    @pytest.mark.parametrize("starts,labels", [([0], ["N", "N"]), ([0, 1, 2], ["N", "N"]),
                                               ([0, 1], ["N"])])
    def test_window_rejects_misaligned_lengths(self, starts, labels):
        with pytest.raises(DataError, match="do not align"):
            WindowBatch(starts, np.zeros((2, 1, 4)), labels)

    def test_window_batch_copies_and_freezes(self):
        values = np.zeros((2, 3, 1)).swapaxes(1, 2)     # a strided view
        batch = WindowBatch([0, 3], values, ["N", "F"])
        values[0, 0, 0] = 1.0
        assert len(batch) == 2 and batch.values[0, 0, 0] == 0.0
        assert batch.values.flags.c_contiguous
        assert not any(a.flags.writeable for a in (batch.starts, batch.values, batch.labels))

    def test_feature_matrix_invariants(self):
        fm = FeatureMatrix([[1.0, 2.0]], ["a"], ("x", "y"))
        assert fm.n_rows == 1 and fm.n_features == 2
        with pytest.raises(DataError):
            FeatureMatrix([[np.inf, 0.0]], ["a"], ("x", "y"))
        with pytest.raises(DataError):
            FeatureMatrix([[1.0, 2.0]], ["a", "b"], ("x", "y"))
        with pytest.raises(DataError):
            FeatureMatrix([[1.0, 2.0]], ["a"], ("x",))

    def test_feature_matrix_select(self):
        fm = FeatureMatrix([[1.0], [2.0], [3.0]], ["a", "b", "a"], ("x",))
        sub = fm.select(fm.labels == "a")
        assert sub.n_rows == 2
        assert np.array_equal(sub.rows_of("a")[:, 0], [1.0, 3.0])

    def test_sampler_params_validation(self):
        SamplerParams()
        nan, inf = float("nan"), float("inf")
        for bad in ({"k": 0}, {"cp": 0}, {"k3": 0}, {"emi_ridge": -1e-6},
                    {"emi_ridge": nan}, {"emi_ridge": inf}, {"cf_th": inf}, {"cmax": inf},
                    {"cp": nan}, {"cf_th": -inf}):
            with pytest.raises(ConfigError):
                SamplerParams(**bad)


class TestAsRows:
    def test_feature_matrix_data_is_returned_as_is(self):
        fm = FeatureMatrix([[1.0, 2.0], [3.0, 4.0]], ["a", "b"], ("x", "y"))
        assert as_rows(fm) is fm.data
        assert as_rows([[1, 2]]).dtype == float
        with pytest.raises(DataError, match="s_maj rows have width 2, expected 3"):
            as_rows(fm, "s_maj", 3)


def _entry_points():
    """(id, one_row, fixed_width, call) for every public entry point that
    takes row arrays: `call(X)` passes X in the named slot and well-formed
    values everywhere else. one_row: the slot takes a single (d,) row;
    fixed_width: its width is set by another argument or a fitted model."""
    rows = Pcg32(5).normals(16).reshape(8, 2)
    other = rows + 3.0
    labels = ["a", "b"] * 4
    params = SamplerParams()

    def two_labels(x):
        return [("a", "b")[i % 2] for i in range(len(x))]

    gaussian = fit_gaussian(rows)
    model = gbt_train(FeatureMatrix(rows, labels, ("x", "y")), GbtParams(rounds=2, max_depth=1))
    table = [(f"{name}.s_min", False, False,
              lambda x, f=sampler: f(x, other, 4, params, Pcg32(0)))
             for name, sampler in SAMPLERS.items()]
    table += [(f"{name}.s_maj", False, True,
               lambda x, f=SAMPLERS[name]: f(rows, x, 4, params, Pcg32(0)))
              for name in ("mwmote", "ewmote")]
    return table + [
        ("filtered_minority.s_min", False, False, lambda x: filtered_minority(x, other, 3)),
        ("filtered_minority.s_maj", False, True, lambda x: filtered_minority(rows, x, 3)),
        ("borderline_majority.s_minf", False, False,
         lambda x: borderline_majority(x, other, 3)),
        ("borderline_majority.s_maj", False, True, lambda x: borderline_majority(rows, x, 3)),
        ("selection_probabilities.s_min", False, False,
         lambda x: selection_probabilities(x, other, params)),
        ("selection_probabilities.s_maj", False, True,
         lambda x: selection_probabilities(rows, x, params)),
        ("agglomerative_clusters", False, False, lambda x: agglomerative_clusters(x, 3.0)),
        ("knn.pool", False, True, lambda x: knn(rows[0], x, 1)),
        ("knn.query", True, True, lambda x: knn(x, rows, 1)),
        ("fit_gaussian", False, False, fit_gaussian),
        ("impute_conditional.batch", False, True,
         lambda x: impute_conditional(gaussian, x, [0])),
        ("impute_conditional.row", True, True, lambda x: impute_conditional(gaussian, x, [0])),
        ("predict_proba", False, True, model.predict_proba),
        ("pca_fit", False, False, lambda x: pca_fit(x, 1)),
        ("pca_transform", False, True, lambda x: pca_transform(pca_fit(rows, 1), x)),
        ("lda_fit", False, False, lambda x: lda_fit(x, two_labels(x))),
        ("lda_transform", False, True, lambda x: lda_transform(lda_fit(rows, labels), x)),
        ("Standardizer.fit", False, False, lambda x: Standardizer().fit(x)),
        ("Standardizer.transform", False, True,
         lambda x: Standardizer().fit(rows).transform(x)),
        ("FeatureMatrix", False, True,
         lambda x: FeatureMatrix(x, two_labels(x), ("x", "y"))),
    ]


def _malformed(one_row: bool, fixed_width: bool) -> dict:
    """Malformed values for a slot whose well-formed width is 2."""
    if one_row:
        return {"3d": [[[0.0, 1.0]]], "ragged": [0.0, [1.0, 2.0]], "nan": [np.nan, 1.0],
                "inf": [1.0, -np.inf], "wrong_width": [0.0, 1.0, 2.0]}
    good = Pcg32(6).normals(12).reshape(6, 2)
    nan, inf = good.copy(), good.copy()
    nan[2, 1], inf[4, 0] = np.nan, np.inf
    cases = {"1d": np.zeros(5), "3d": np.zeros((3, 2, 2)),
             "ragged": [[0.0, 1.0], [2.0], [3.0, 4.0]], "nan": nan, "inf": inf}
    if fixed_width:
        cases["wrong_width"] = np.zeros((6, 3))
    return cases


_MALFORMED = [pytest.param(call, bad, id=f"{name}-{case}")
              for name, one_row, fixed_width, call in _entry_points()
              for case, bad in _malformed(one_row, fixed_width).items()]
_MALFORMED.append(pytest.param(lambda x: Standardizer().fit(x), np.empty((0, 2)),
                               id="Standardizer.fit-zero_rows"))


@pytest.mark.parametrize("call, bad", _MALFORMED)
def test_every_array_entry_point_refuses_malformed_rows(call, bad):
    with pytest.raises(DataError):
        call(bad)
