import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbfault.errors import DataError
from imbfault.metrics import (ConfusionMatrix, auc, confusion, fam, macro_metrics,
                              mcc, precision_recall_f, roc_points)
from imbfault.rng import Pcg32


def auc_pair_oracle(y_true, scores, positive):
    """Brute-force concordant / tied pair counting."""
    pos = [s for s, t in zip(scores, y_true) if t == positive]
    neg = [s for s, t in zip(scores, y_true) if t != positive]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_rank_loop_oracle(y_true, scores, positive):
    """Mann-Whitney AUC from a scalar average-rank loop: each run of tied
    sorted scores gets the mean of its 1-based positions."""
    scores = np.asarray(scores, dtype=float)
    pos = np.array([t == positive for t in y_true])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def roc_threshold_oracle(y_true, scores, positive):
    """Evaluate (FPR, TPR) at every distinct threshold by rescanning."""
    points = [(0.0, 0.0)]
    n_pos = sum(1 for t in y_true if t == positive)
    n_neg = len(y_true) - n_pos
    for th in sorted(set(scores), reverse=True):
        tp = sum(1 for s, t in zip(scores, y_true) if s >= th and t == positive)
        fp = sum(1 for s, t in zip(scores, y_true) if s >= th and t != positive)
        points.append((fp / n_neg, tp / n_pos))
    return points


def trapezoid_area(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion(["a", "b", "a"], ["a", "b", "a"])
        assert np.array_equal(cm.counts, [[2, 0], [0, 1]])

    def test_swapped_binary_is_antidiagonal(self):
        cm = confusion(["a", "a", "b", "b"], ["b", "b", "a", "a"])
        assert np.array_equal(cm.counts, [[0, 2], [2, 0]])

    def test_vs_counting_oracle(self):
        rng = Pcg32(0)
        y_true = [f"c{rng.randint(3)}" for _ in range(200)]
        y_pred = [f"c{rng.randint(3)}" for _ in range(200)]
        cm = confusion(y_true, y_pred, classes=["c0", "c1", "c2"])
        for i, t in enumerate(cm.classes):
            for j, p in enumerate(cm.classes):
                want = sum(1 for a, b in zip(y_true, y_pred) if a == t and b == p)
                assert cm.counts[i, j] == want

    def test_row_sums_are_class_counts(self):
        rng = Pcg32(1)
        y_true = [f"c{rng.randint(4)}" for _ in range(100)]
        y_pred = [f"c{rng.randint(4)}" for _ in range(100)]
        classes = sorted(set(y_true) | set(y_pred))
        cm = confusion(y_true, y_pred, classes)
        for i, c in enumerate(classes):
            assert cm.counts[i].sum() == y_true.count(c)

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            confusion(["a"], ["b"], classes=["a"])

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(("a", "b"), np.array([[1, -1], [0, 1]]))


class TestPrecisionRecallF:
    def test_perfect(self):
        cm = confusion(["p"], ["p"], classes=["n", "p"])
        assert precision_recall_f(cm, "p") == (1.0, 1.0, 1.0)

    def test_zero_tp_with_fp(self):
        cm = ConfusionMatrix(("n", "p"), np.array([[5, 3], [2, 0]]))
        precision, recall, f = precision_recall_f(cm, "p")
        assert precision == 0.0 and recall == 0.0 and f == 0.0

    def test_baseline_row_consistency(self):
        # any confusion matrix with recall .5385 / precision .9167 to 4 dp
        cm = ConfusionMatrix(("n", "p"), np.array([[100, 7], [66, 77]]))
        precision, recall, _ = precision_recall_f(cm, "p")
        assert round(recall, 4) == 0.5385
        assert round(precision, 4) == 0.9167

    def test_f_is_harmonic_mean_and_bounded(self):
        rng = Pcg32(2)
        for _ in range(50):
            tp, fp, fn, tn = (rng.randint(20) for _ in range(4))
            cm = ConfusionMatrix(("n", "p"), np.array([[tn, fp], [fn, tp]]))
            precision, recall, f = precision_recall_f(cm, "p")
            assert f <= max(precision, recall) + 1e-12
            if precision > 0 and recall > 0:
                assert f == pytest.approx(2 / (1 / precision + 1 / recall))


class TestRoc:
    def test_perfect_separation_passes_through_corner(self):
        y = ["n", "n", "p", "p"]
        s = [0.1, 0.2, 0.8, 0.9]
        pts = roc_points(y, s, "p")
        assert (0.0, 1.0) in {tuple(p) for p in pts}

    def test_constant_scores_diagonal(self):
        pts = roc_points(["n", "p", "n", "p"], [0.5] * 4, "p")
        assert np.array_equal(pts, [[0.0, 0.0], [1.0, 1.0]])

    def test_six_point_case_vs_oracle(self):
        y = ["p", "n", "p", "n", "p", "n"]
        s = [0.9, 0.8, 0.8, 0.4, 0.3, 0.1]
        got = [tuple(p) for p in roc_points(y, s, "p")]
        assert got == roc_threshold_oracle(y, s, "p")

    def test_endpoints(self):
        rng = Pcg32(3)
        y = ["p" if rng.random() < 0.4 else "n" for _ in range(30)]
        y[0], y[1] = "p", "n"
        s = rng.uniforms(30)
        pts = roc_points(y, s, "p")
        assert tuple(pts[0]) == (0.0, 0.0)
        assert tuple(pts[-1]) == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_points(["p", "p"], [0.1, 0.2], "p")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [roc_points, auc])
def test_non_finite_scores_rejected(fn, bad):
    with pytest.raises(DataError, match="finite scores"):
        fn(["p", "q", "q"], [bad, 0.5, 0.2], "p")


@pytest.mark.parametrize("fn", [roc_points, auc])
def test_score_count_must_match_labels(fn):
    with pytest.raises(DataError, match="3 scores for 2 labels"):
        fn(["p", "q"], [0.1, 0.2, 0.3], "p")


class TestAuc:
    def test_perfect_and_reversed(self):
        y = ["n", "n", "p", "p"]
        assert auc(y, [0.1, 0.2, 0.8, 0.9], "p") == 1.0
        assert auc(y, [0.9, 0.8, 0.2, 0.1], "p") == 0.0

    def test_tie_heavy_case_vs_pair_oracle(self):
        y = ["p", "p", "p", "n", "n", "n", "p", "n"]
        s = [0.5, 0.5, 0.7, 0.5, 0.2, 0.7, 0.2, 0.2]
        assert auc(y, s, "p") == pytest.approx(auc_pair_oracle(y, s, "p"), abs=1e-12)

    def test_random_cases_vs_pair_oracle(self):
        rng = Pcg32(4)
        for _ in range(30):
            n = 5 + rng.randint(15)
            y = ["p" if rng.random() < 0.5 else "n" for _ in range(n)]
            if "p" not in y:
                y[0] = "p"
            if "n" not in y:
                y[-1] = "n"
            s = [round(rng.random(), 1) for _ in range(n)]   # force ties
            assert auc(y, s, "p") == pytest.approx(auc_pair_oracle(y, s, "p"), abs=1e-12)

    def test_tie_heavy_random_cases_equal_rank_loop(self):
        rng = Pcg32(6)
        for case in range(60):
            n = 2 + rng.randint(400)
            y = ["p" if rng.random() < 0.3 else "n" for _ in range(n)]
            y[0], y[-1] = "p", "n"
            levels = 1 + rng.randint(12)             # few distinct scores: long tie runs
            s = [rng.randint(levels) / levels - 0.5 for _ in range(n)]
            if case % 3 == 0:                         # -0.0 ties with 0.0
                s, y = s + [-0.0, 0.0], y + ["p", "n"]
            assert auc(y, s, "p") == auc_rank_loop_oracle(y, s, "p")

    def test_trapezoid_equals_rank_auc(self):
        rng = Pcg32(5)
        for _ in range(20):
            n = 6 + rng.randint(20)
            y = ["p" if rng.random() < 0.5 else "n" for _ in range(n)]
            if "p" not in y:
                y[0] = "p"
            if "n" not in y:
                y[-1] = "n"
            s = [round(rng.random(), 1) for _ in range(n)]
            area = trapezoid_area(roc_points(y, s, "p"))
            assert area == pytest.approx(auc(y, s, "p"), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0, 1, allow_nan=False)),
                    min_size=4, max_size=30))
    def test_monotone_transform_invariance(self, pairs):
        y = ["p" if b else "n" for b, _ in pairs]
        if "p" not in y or "n" not in y:
            return
        # round so the transforms stay injective in float arithmetic
        s = np.array([round(v, 3) for _, v in pairs])
        base = auc(y, s, "p")
        assert auc(y, 3.0 * s + 1.0, "p") == pytest.approx(base, abs=1e-12)
        assert auc(y, np.exp(s), "p") == pytest.approx(base, abs=1e-12)


class TestMccFam:
    def test_perfect_is_one(self):
        cm = ConfusionMatrix(("n", "p"), np.array([[5, 0], [0, 5]]))
        assert mcc(cm) == pytest.approx(1.0)

    def test_uniform_cells_zero(self):
        cm = ConfusionMatrix(("n", "p"), np.array([[3, 3], [3, 3]]))
        assert mcc(cm) == 0.0

    def test_zero_denominator_returns_zero(self):
        cm = ConfusionMatrix(("n", "p"), np.array([[0, 0], [2, 3]]))
        assert mcc(cm) == 0.0

    def test_vs_formula_oracle(self):
        rng = Pcg32(6)
        for _ in range(50):
            tn, fp, fn, tp = (rng.randint(30) for _ in range(4))
            cm = ConfusionMatrix(("n", "p"), np.array([[tn, fp], [fn, tp]]))
            denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
            want = (tp * tn - fp * fn) / denom if denom else 0.0
            assert mcc(cm) == pytest.approx(want, abs=1e-12)

    def test_fam_values(self):
        assert fam(0.8, 0.9, 0.7) == pytest.approx(0.8)
        assert fam(1.0, 1.0, 1.0) == 1.0


class TestMacroMetrics:
    def _scores(self, y, classes, good=0.9):
        rng = Pcg32(7)
        out = np.zeros((len(y), len(classes)))
        for i, label in enumerate(y):
            for j, c in enumerate(classes):
                out[i, j] = good + 0.1 * rng.random() if c == label else 0.1 * rng.random()
        return out

    def test_binary_macro_is_mean_of_rows(self):
        y_true = ["a", "a", "b", "b", "a"]
        y_pred = ["a", "b", "b", "b", "a"]
        scores = self._scores(y_true, ["a", "b"])
        rep = macro_metrics(y_true, y_pred, scores, ["a", "b"])
        for key in ("precision", "recall", "f_measure", "fam"):
            want = (rep["per_class"]["a"][key] + rep["per_class"]["b"][key]) / 2
            assert rep["macro"][key] == pytest.approx(want)

    def test_identical_per_class_equals_macro(self):
        y_true = ["a", "b", "a", "b"]
        y_pred = ["a", "b", "a", "b"]
        scores = self._scores(y_true, ["a", "b"])
        rep = macro_metrics(y_true, y_pred, scores, ["a", "b"])
        assert rep["macro"]["recall"] == pytest.approx(1.0)
        assert rep["macro"]["precision"] == pytest.approx(1.0)

    def test_three_class_vs_per_class_oracle(self):
        rng = Pcg32(8)
        classes = ["a", "b", "c"]
        y_true = [classes[rng.randint(3)] for _ in range(60)]
        y_pred = [classes[rng.randint(3)] for _ in range(60)]
        scores = self._scores(y_true, classes)
        rep = macro_metrics(y_true, y_pred, scores, classes)
        cm = confusion(y_true, y_pred, classes)
        for ci, c in enumerate(classes):
            precision, recall, f = precision_recall_f(cm, c)
            assert rep["per_class"][c]["precision"] == pytest.approx(precision)
            assert rep["per_class"][c]["recall"] == pytest.approx(recall)
            assert rep["per_class"][c]["f_measure"] == pytest.approx(f)
            assert rep["per_class"][c]["auc"] == pytest.approx(
                auc(y_true, scores[:, ci], c))
            tp, fp, fn, tn = cm.one_vs_rest(c)
            denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
            want_mcc = (tp * tn - fp * fn) / denom if denom else 0.0
            assert rep["per_class"][c]["mcc"] == pytest.approx(want_mcc)
            assert rep["per_class"][c]["fam"] == pytest.approx(
                fam(f, rep["per_class"][c]["auc"], want_mcc))

    def test_absent_class_flagged_degenerate(self):
        y_true = ["a", "a", "b"]
        y_pred = ["a", "a", "b"]
        scores = self._scores(y_true, ["a", "b", "ghost"])
        rep = macro_metrics(y_true, y_pred, scores, ["a", "b", "ghost"])
        assert rep["per_class"]["ghost"]["degenerate"] is True
        assert rep["per_class"]["ghost"]["auc"] == 0.0
        assert rep["macro"]["degenerate"] is True
