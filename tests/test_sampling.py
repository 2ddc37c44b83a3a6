import math

import numpy as np
import pytest

from imbfault.core import FeatureMatrix, SamplerParams, class_distribution
from imbfault.errors import ConfigError, DataError
from imbfault.features import Standardizer
from imbfault.imputation import fit_gaussian, impute_conditional
from imbfault.rng import Pcg32
from imbfault.sampling import (METHODS, SAMPLERS, _nearest, agglomerative_clusters,
                               borderline_majority, emicil, ewmote, filtered_minority,
                               knn, mwmote, random_oversample, resample_multiclass,
                               selection_probabilities, smote)

P = SamplerParams()


def no_maj(s_min):
    """An empty majority set matching s_min's width, for samplers that ignore it."""
    return np.empty((0, np.shape(s_min)[1]))


def knn_oracle(query, pool, k):
    """Exhaustive sort by (distance, index)."""
    scored = sorted((np.linalg.norm(p - query), i) for i, p in enumerate(pool))
    return [i for _, i in scored[:k]]


def filtered_oracle(s_min, s_maj, k1):
    pooled = np.vstack([s_min, s_maj])
    kept = []
    for i, x in enumerate(s_min):
        ranked = [j for j in knn_oracle(x, pooled, k1 + 1) if j != i][:k1]
        if any(j < len(s_min) for j in ranked):
            kept.append(i)
    return kept


def smote_oracle(s_min, n, k, rng):
    """Per row: a base, one of its k oracle neighbours (itself left out) and
    an interpolation weight, drawn in that order."""
    nbrs = [[j for j in knn_oracle(x, s_min, k + 1) if j != i][:k]
            for i, x in enumerate(s_min)]
    out = np.empty((n, s_min.shape[1]))
    for t in range(n):
        i = rng.randint(len(s_min))
        z = s_min[nbrs[i][rng.randint(k)]]
        out[t] = s_min[i] + rng.random() * (z - s_min[i])
    return out


def with_duplicates(rng, m, d, copies):
    """m random rows followed by exact copies of the rows listed in `copies`."""
    base = rng.normals(m * d).reshape(m, d) * (1 + rng.randint(3))
    return np.vstack([base, base[copies]])


def closeness_factor(y, x, cf_th, cmax):
    """Capped reciprocal of the dimension-normalized distance, rescaled so the
    cap maps to cmax. Zero distance hits the cap."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    d_n = float(np.linalg.norm(y - x)) / y.size
    recip = math.inf if d_n == 0.0 else 1.0 / d_n
    return min(recip, cf_th) / cf_th * cmax


def information_weight(y, x_index, s_imin, nmin_indices, cf_th, cmax):
    """I_w for one (borderline-majority y, informative-minority x) pair.

    nmin_indices are the indices (into s_imin) of y's nearest-minority set;
    rows outside it contribute zero closeness. The weight is the closeness of
    x times its share of y's total closeness.
    """
    s_imin = np.asarray(s_imin, dtype=float)
    cf = np.zeros(len(s_imin))
    for q in np.unique(np.asarray(nmin_indices, dtype=int)):
        cf[q] = closeness_factor(y, s_imin[q], cf_th, cmax)
    total = cf.sum()
    if total == 0.0 or cf[x_index] == 0.0:
        return 0.0
    return float(cf[x_index] * cf[x_index] / total)


def average_linkage_oracle(points, cp):
    """O(n^3) agglomeration recomputing every cluster distance from scratch."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 1:
        return [{0}]
    nn = [min(np.linalg.norm(points[i] - points[j]) for j in range(n) if j != i)
          for i in range(n)]
    threshold = cp * sum(nn) / n
    clusters = [{i} for i in range(n)]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = np.mean([np.linalg.norm(points[i] - points[j])
                             for i in clusters[a] for j in clusters[b]])
                if best is None or d < best[0] - 1e-12:
                    best = (d, a, b)
        if best[0] > threshold:
            break
        _, a, b = best
        clusters[a] |= clusters[b]
        del clusters[b]
    return clusters


def emicil_oracle(s_min, n, params, rng):
    """Draw a row and an attribute, impute that one row, repeat."""
    model = fit_gaussian(s_min, params.emi_ridge)
    out = np.empty((n, s_min.shape[1]))
    for t in range(n):
        i = rng.randint(len(s_min))
        out[t] = impute_conditional(model, s_min[i], [rng.randint(s_min.shape[1])])
    return out


def ewmote_oracle(s_min, s_maj, n, params, rng):
    """Per row: one inverse-CDF base draw, one attribute draw, one imputation."""
    wset = selection_probabilities(s_min, s_maj, params)
    if wset.is_empty:
        return emicil_oracle(s_min, n, params, rng)
    model = fit_gaussian(s_min, params.emi_ridge)
    cum = np.cumsum(wset.probabilities)
    out = np.empty((n, s_min.shape[1]))
    for t in range(n):
        u = rng.random() * cum[-1]
        b = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
        out[t] = impute_conditional(model, wset.s_imin[b], [rng.randint(s_min.shape[1])])
    return out


def random_oracle(s_min, n, rng):
    """Per row: one uniformly chosen minority row."""
    return np.array([s_min[rng.randint(len(s_min))] for _ in range(n)]).reshape(n, -1)


def mwmote_oracle(s_min, s_maj, n, params, rng):
    """Per row: a weighted base, a uniform partner from the base's cluster
    (no draw when the cluster is the base alone) and an interpolation weight."""
    wset = selection_probabilities(s_min, s_maj, params)
    s_minf = s_min[wset.minf_indices]
    clusters = agglomerative_clusters(s_minf, params.cp)
    cum = np.cumsum(wset.probabilities)
    out = np.empty((n, s_min.shape[1]))
    for t in range(n):
        u = rng.random() * cum[-1]
        b = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
        base_pos = int(wset.imin_in_minf[b])
        pool = np.flatnonzero(clusters == clusters[base_pos])
        x, z = s_minf[base_pos], s_minf[pool[rng.randint(len(pool))]]
        out[t] = x + rng.random() * (z - x)
    return out


class TestKnn:
    def test_hand_case(self):
        pool = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        assert knn([0.0, 0.0], pool, 2).tolist() == [0, 2]

    def test_k_equals_pool(self):
        pool = np.array([[1.0], [2.0], [3.0]])
        assert sorted(knn([0.0], pool, 3).tolist()) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(DataError):
            knn([0.0], np.array([[1.0]]), 2)

    def test_ties_to_lower_index(self):
        pool = np.array([[1.0], [-1.0], [1.0]])
        assert knn([0.0], pool, 2).tolist() == [0, 1]

    def test_vs_oracle(self):
        rng = Pcg32(0)
        for _ in range(20):
            pool = rng.normals(100 * 3).reshape(100, 3)
            q = rng.normals(3)
            assert knn(q, pool, 5).tolist() == knn_oracle(q, pool, 5)

    @pytest.mark.parametrize("query", [[0.0, 0.0, 0.0], [[0.0, 0.0]], [0.0], 0.0])
    def test_query_must_be_one_row_of_pool_width(self, query):
        with pytest.raises(DataError, match="query"):
            knn(query, np.ones((4, 2)), 1)


class TestNearest:
    def test_skip_self_with_duplicate_rows(self):
        # A duplicate sits at distance 0 and must be found; the row itself
        # never is. Duplicates may rank in either order, so rows are compared.
        rng = Pcg32(21)
        for trial in range(40):
            d = 1 + trial % 4
            pool = with_duplicates(rng, 10, d, [0, 3, 3, 9])
            nbrs = _nearest(pool, pool, 3, skip_self=True)
            assert np.all(nbrs != np.arange(len(pool))[:, None])
            want = [[j for j in knn_oracle(x, pool, 4) if j != i][:3]
                    for i, x in enumerate(pool)]
            assert pool[nbrs].tobytes() == pool[np.array(want)].tobytes()
            for i, j in [(0, 10), (10, 0), (9, 13), (13, 9)]:
                assert j in nbrs[i]
            assert {11, 12} <= set(nbrs[3]) and {3, 12} <= set(nbrs[11])


class TestRandomOversample:
    def test_zero(self):
        out = random_oversample(np.ones((3, 2)), no_maj(np.ones((3, 2))), 0, P, Pcg32(0))
        assert out.shape == (0, 2)

    def test_singleton(self):
        out = random_oversample(np.array([[1.0, 2.0]]), np.empty((0, 2)), 5, P, Pcg32(0))
        assert np.array_equal(out, np.tile([1.0, 2.0], (5, 1)))

    def test_membership(self):
        rng = Pcg32(1)
        s_min = rng.normals(10).reshape(5, 2)
        out = random_oversample(s_min, no_maj(s_min), 20, P, rng)
        rows = {tuple(r) for r in s_min}
        assert all(tuple(r) in rows for r in out)

    def test_empty_error(self):
        with pytest.raises(DataError):
            random_oversample(np.empty((0, 2)), np.empty((0, 2)), 1, P, Pcg32(0))


class TestSmote:
    def test_two_point_segment(self):
        s_min = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = smote(s_min, no_maj(s_min), 50, SamplerParams(k=1), Pcg32(0))
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_duplicate_points_give_base(self):
        s_min = np.array([[2.0, 3.0], [2.0, 3.0]])
        out = smote(s_min, no_maj(s_min), 10, SamplerParams(k=1), Pcg32(0))
        assert np.array_equal(out, np.tile([2.0, 3.0], (10, 1)))

    def test_bounding_box(self):
        rng = Pcg32(2)
        s_min = rng.normals(30).reshape(15, 2)
        out = smote(s_min, no_maj(s_min), 200, P, rng)
        lo, hi = s_min.min(axis=0), s_min.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_k_clipped_with_warning(self):
        s_min = np.arange(6, dtype=float).reshape(3, 2)
        with pytest.warns(UserWarning, match="clipped"):
            smote(s_min, no_maj(s_min), 4, SamplerParams(k=10), Pcg32(0))

    def test_tiny_set_falls_back(self):
        s_min = np.array([[1.0, 1.0]])
        with pytest.warns(UserWarning, match="random"):
            out = smote(s_min, no_maj(s_min), 3, P, Pcg32(0))
        assert np.array_equal(out, np.tile([1.0, 1.0], (3, 1)))

    def test_duplicate_rows_vs_oracle(self):
        rng = Pcg32(22)
        for trial in range(20):
            s_min = with_duplicates(rng, 8, 1 + trial % 3, [0, 2, 2, 7])
            got = smote(s_min, no_maj(s_min), 60, SamplerParams(k=3), Pcg32(trial))
            want = smote_oracle(s_min, 60, 3, Pcg32(trial))
            assert got.tobytes() == want.tobytes()


class TestFilteredMinority:
    def test_lone_minority_filtered(self):
        s_min = np.array([[0.0, 0.0]])
        s_maj = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.1, 0.1]])
        assert filtered_minority(s_min, s_maj, 5).tolist() == []

    def test_adjacent_pair_kept(self):
        s_min = np.array([[0.0, 0.0], [0.1, 0.0]])
        s_maj = np.array([[10.0, 0.0], [11.0, 0.0], [12.0, 0.0], [13.0, 0.0], [14.0, 0.0]])
        assert filtered_minority(s_min, s_maj, 5).tolist() == [0, 1]

    def test_vs_oracle(self):
        rng = Pcg32(3)
        for _ in range(15):
            s_min = rng.normals(16).reshape(8, 2)
            s_maj = rng.normals(40).reshape(20, 2) * 1.5
            got = filtered_minority(s_min, s_maj, 5).tolist()
            assert got == filtered_oracle(s_min, s_maj, 5)

    def test_duplicate_rows_vs_oracle(self):
        rng = Pcg32(23)
        for trial in range(20):
            s_min = with_duplicates(rng, 6, 2, [1, 4, 4])
            s_maj = with_duplicates(rng, 20, 2, [0, 5]) * 1.5
            assert filtered_minority(s_min, s_maj, 5).tolist() == filtered_oracle(s_min, s_maj, 5)

    def test_lone_duplicate_pair_kept(self):
        # each copy's only minority neighbour is the other copy, at distance 0
        s_min = np.array([[0.3, 0.7], [0.3, 0.7]])
        s_maj = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.1, 0.1]])
        assert filtered_minority(s_min, s_maj, 1).tolist() == [0, 1]
        assert filtered_minority(s_min[:1], s_maj, 1).tolist() == []

    def test_restoring_a_neighbor(self):
        # a filtered point regains minority support when a neighbor appears
        s_maj = np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.1, 0.1]])
        lone = np.array([[0.0, 0.0]])
        assert filtered_minority(lone, s_maj, 5).tolist() == []
        buddy = np.vstack([lone, [[0.01, 0.0]]])
        assert filtered_minority(buddy, s_maj, 5).tolist() == [0, 1]


class TestBorderlineInformative:
    def test_line_configuration(self):
        s_minf = np.array([[0.0], [1.0], [2.0]])
        s_maj = np.array([[3.0], [4.0], [10.0]])
        bm = borderline_majority(s_minf, s_maj, 2)
        assert bm.tolist() == [0, 1]
        wset = selection_probabilities(s_minf, s_maj, SamplerParams(k2=2, k3=2))
        assert wset.bmaj_indices.tolist() == [0, 1]
        assert wset.imin_in_minf.tolist() == [1, 2]

    def test_empty_inputs(self):
        empty = np.empty((0, 2))
        pts = np.ones((3, 2))
        assert borderline_majority(empty, pts, 2).tolist() == []
        assert borderline_majority(pts, empty, 2).tolist() == []
        assert selection_probabilities(empty, pts, P).is_empty
        assert selection_probabilities(pts, empty, P).is_empty

    def test_vs_oracle(self):
        rng = Pcg32(4)
        for _ in range(10):
            s_minf = rng.normals(12).reshape(6, 2)
            s_maj = rng.normals(20).reshape(10, 2)
            got = borderline_majority(s_minf, s_maj, 3).tolist()
            want = sorted({j for x in s_minf for j in knn_oracle(x, s_maj, 3)})
            assert got == want
            s_bmaj = s_maj[got]
            nmin = _nearest(s_bmaj, s_minf, 2)
            assert nmin.tolist() == [knn_oracle(y, s_minf, 2) for y in s_bmaj]


class TestWidthMismatch:
    @pytest.mark.parametrize("search", [
        lambda a, b: filtered_minority(a, b, 5),
        lambda a, b: borderline_majority(a, b, 3),
        lambda a, b: selection_probabilities(a, b, P),
        lambda a, b: mwmote(a, b, 4, P, Pcg32(0)),
        lambda a, b: ewmote(a, b, 4, P, Pcg32(0)),
    ], ids=["filtered_minority", "borderline_majority", "selection_probabilities",
            "mwmote", "ewmote"])
    @pytest.mark.parametrize("n_maj", [5, 0])
    def test_mismatched_widths_raise(self, search, n_maj):
        rng = Pcg32(24)
        with pytest.raises(DataError, match="width"):
            search(rng.normals(12).reshape(6, 2), rng.normals(n_maj * 3).reshape(n_maj, 3))


class TestInformationWeight:
    def test_cap_hit(self):
        # 1/d_n above the cutoff -> closeness equals cmax
        assert closeness_factor([0.0, 0.0], [0.1, 0.0], cf_th=5.0, cmax=2.0) == pytest.approx(2.0)
        assert closeness_factor([1.0], [1.0], cf_th=5.0, cmax=2.0) == pytest.approx(2.0)

    def test_below_cap(self):
        # d_n = 0.5 -> 1/d_n = 2 -> (2/5)*2 = 0.8
        assert closeness_factor([0.5], [0.0], 5.0, 2.0) == pytest.approx(0.8)

    def test_single_member_normalizes_to_closeness(self):
        s_imin = np.array([[0.0], [50.0]])
        iw = information_weight([0.5], 0, s_imin, [0], 5.0, 2.0)
        assert iw == pytest.approx(closeness_factor([0.5], [0.0], 5.0, 2.0))

    def test_three_point_hand_oracle(self):
        s_imin = np.array([[0.0], [1.0], [3.0]])
        y = [0.5]
        nmin = [0, 1, 2]
        # closeness: 0.8, 0.8, 0.16; weight_i = c_i^2 / sum(c)
        total = 0.8 + 0.8 + 0.16
        assert information_weight(y, 0, s_imin, nmin, 5.0, 2.0) == pytest.approx(0.64 / total, abs=1e-9)
        assert information_weight(y, 1, s_imin, nmin, 5.0, 2.0) == pytest.approx(0.64 / total, abs=1e-9)
        assert information_weight(y, 2, s_imin, nmin, 5.0, 2.0) == pytest.approx(0.0256 / total, abs=1e-9)

    def test_outside_nmin_is_zero(self):
        s_imin = np.array([[0.0], [1.0]])
        assert information_weight([0.5], 1, s_imin, [0], 5.0, 2.0) == 0.0


class TestSelectionProbabilities:
    def test_probabilities_sum_to_one(self):
        rng = Pcg32(5)
        s_min = rng.normals(20).reshape(10, 2)
        s_maj = rng.normals(60).reshape(30, 2) + 2.0
        wset = selection_probabilities(s_min, s_maj, SamplerParams())
        assert wset.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_geometry_equal_probabilities(self):
        s_min = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.2, 0.0], [1.2, 0.0]])
        s_maj = np.array([[0.0, 0.05], [0.0, -0.05], [0.0, 0.0],
                          [-6.0, 6.0], [6.0, 6.0]])
        wset = selection_probabilities(s_min, s_maj, SamplerParams(k1=3, k2=2, k3=2))
        probs = {tuple(r): p for r, p in zip(wset.s_imin, wset.probabilities)}
        for left, right in [((-1.0, 0.0), (1.0, 0.0)), ((-1.2, 0.0), (1.2, 0.0))]:
            if left in probs and right in probs:
                assert probs[left] == pytest.approx(probs[right], abs=1e-9)

    def test_boundary_point_gets_largest_probability(self):
        s_min = np.array([[0.0], [1.0], [2.0]])
        s_maj = np.array([[3.0], [4.0], [5.0], [6.0]])
        wset = selection_probabilities(s_min, s_maj, SamplerParams(k1=3, k2=2, k3=2))
        best = wset.s_imin[np.argmax(wset.probabilities)]
        assert best[0] == 2.0

    def test_matches_scalar_information_weight(self):
        rng = Pcg32(6)
        s_min = rng.normals(16).reshape(8, 2)
        s_maj = rng.normals(30).reshape(15, 2) + 1.5
        params = SamplerParams(k3=3)
        wset = selection_probabilities(s_min, s_maj, params)
        for j in range(len(wset.s_imin)):
            total = 0.0
            for i, y in enumerate(wset.s_bmaj):
                nmin = np.flatnonzero(wset.nmin_member[i])
                total += information_weight(y, j, wset.s_imin, nmin,
                                            params.cf_th, params.cmax)
            assert total == pytest.approx(wset.weights[j], abs=1e-9)

    def test_argmax_stable_under_isotropic_rescaling(self):
        rng = Pcg32(7)
        X_min = rng.normals(20).reshape(10, 2)
        X_maj = rng.normals(50).reshape(25, 2) + 1.8
        params = SamplerParams()

        def probs(scale):
            data = np.vstack([X_min, X_maj]) * scale
            z = Standardizer().fit(data).transform(data)
            return selection_probabilities(z[:10], z[10:], params)

        a, b = probs(1.0), probs(37.5)
        assert np.argmax(a.probabilities) == np.argmax(b.probabilities)
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-9)

    def test_all_filtered_returns_empty(self):
        s_min = np.array([[0.0, 0.0], [30.0, 30.0]])
        s_maj = np.vstack([
            [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.12, 0.05]],
            [[30.1, 30.0], [30.0, 30.1], [29.9, 30.0], [30.0, 29.9], [30.1, 30.1]],
        ])
        wset = selection_probabilities(s_min, s_maj, SamplerParams(k1=5))
        assert wset.is_empty


class TestAgglomerativeClusters:
    def test_two_tight_groups(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                        [50.0, 50.0], [50.1, 50.0], [50.0, 50.1]])
        labels = agglomerative_clusters(pts, cp=3.0)
        assert len(set(labels)) == 2
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1

    def test_all_identical_one_cluster(self):
        labels = agglomerative_clusters(np.ones((5, 2)), cp=3.0)
        assert set(labels) == {0}

    def test_singleton(self):
        assert agglomerative_clusters(np.array([[1.0, 2.0]]), 3.0).tolist() == [0]

    def test_vs_naive_oracle(self):
        cases = [
            # duplicated rows sit at distance 0, so they merge at any threshold
            (np.array([[0.1, -0.4]] * 3 + [[-0.4, 0.1]] * 2), 1.0),
            # the last merge lands exactly on the threshold 5/3
            (np.array([[2, 2], [2, 1], [2, 2], [1, 1], [0, 1], [2, 0]], dtype=float), 2.5),
        ]
        rng = Pcg32(8)
        for _ in range(20):
            n = 5 + rng.randint(8)     # up to 12 points
            cases.append((rng.normals(n * 2).reshape(n, 2) * (1 + rng.randint(3)), 2.0))
        for trial, (pts, cp) in enumerate(cases):
            labels = agglomerative_clusters(pts, cp)
            got = {frozenset(np.flatnonzero(labels == c).tolist()) for c in set(labels)}
            want = {frozenset(c) for c in average_linkage_oracle(pts, cp)}
            assert got == want, f"trial {trial}"

    def test_cluster_ids_ordered_by_first_member(self):
        pts = np.array([[0.0], [100.0], [0.1]])
        labels = agglomerative_clusters(pts, cp=0.5)
        assert labels[0] == 0 and labels[2] == 0 and labels[1] == 1


class TestMwmote:
    def test_single_cluster_two_points(self):
        s_min = np.array([[0.0, 0.0], [1.0, 1.0]])
        s_maj = np.array([[0.4, 0.6], [0.6, 0.4], [5.0, 5.0]])
        out = mwmote(s_min, s_maj, 40, SamplerParams(k1=3, k2=2, k3=2), Pcg32(0))
        assert out.shape == (40, 2)
        np.testing.assert_allclose(out[:, 0], out[:, 1], atol=1e-12)

    def test_singleton_cluster_synthetic_equals_base(self):
        # 10 tight points plus one remote outlier that stays its own cluster;
        # the nearby majority points make the outlier the weighted favourite.
        rng = Pcg32(1)
        tight = rng.normals(20).reshape(10, 2) * 0.05
        outlier = np.array([[100.0, 100.0]])
        s_min = np.vstack([tight, outlier])
        s_maj = np.array([[101.0, 100.0], [100.0, 101.0], [101.0, 101.0]])
        params = SamplerParams(k1=5, k2=3, k3=1)
        out = mwmote(s_min, s_maj, 30, params, Pcg32(2))
        assert all(np.array_equal(r, outlier[0]) for r in out)

    def test_count_exact(self):
        rng = Pcg32(3)
        s_min = rng.normals(20).reshape(10, 2)
        s_maj = rng.normals(40).reshape(20, 2) + 2
        out = mwmote(s_min, s_maj, 17, SamplerParams(), rng)
        assert out.shape == (17, 2)

    def test_collinearity_with_minority_pairs(self):
        rng = Pcg32(4)
        s_min = rng.normals(16).reshape(8, 2)
        s_maj = rng.normals(30).reshape(15, 2) + 2
        out = mwmote(s_min, s_maj, 60, SamplerParams(), Pcg32(5))
        for row in out:
            ok = False
            for i in range(len(s_min)):
                for j in range(len(s_min)):
                    seg = s_min[j] - s_min[i]
                    rel = row - s_min[i]
                    cross = seg[0] * rel[1] - seg[1] * rel[0]
                    denom = seg @ seg
                    if denom == 0:
                        inside = np.allclose(rel, 0, atol=1e-9)
                    else:
                        t = (rel @ seg) / denom
                        inside = abs(cross) < 1e-9 and -1e-9 <= t <= 1 + 1e-9
                    if inside:
                        ok = True
                        break
                if ok:
                    break
            assert ok

    def test_fallback_to_smote_when_empty(self):
        s_min = np.array([[0.0, 0.0], [30.0, 30.0]])
        s_maj = np.vstack([
            [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.12, 0.05]],
            [[30.1, 30.0], [30.0, 30.1], [29.9, 30.0], [30.0, 29.9], [30.1, 30.1]],
        ])
        with pytest.warns(UserWarning, match="smote"):
            out = mwmote(s_min, s_maj, 5, SamplerParams(), Pcg32(0))
        assert out.shape == (5, 2)


class TestEmicil:
    def test_diagonal_covariance_mean_imputation(self):
        s_min = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out = emicil(s_min, no_maj(s_min), 30, P, Pcg32(0))
        for row in out:
            diffs = [not any(abs(row[j] - base[j]) > 1e-9 for j in range(2) if j != a)
                     and abs(row[a]) < 1e-6
                     for base in s_min for a in range(2)]
            assert any(diffs)

    def test_zero_count(self):
        assert emicil(np.ones((3, 2)), np.empty((0, 2)), 0, P, Pcg32(0)).shape == (0, 2)

    def test_unmasked_coordinates_equal_base(self):
        rng = Pcg32(1)
        s_min = rng.normals(40).reshape(10, 4)
        out = emicil(s_min, no_maj(s_min), 50, P, Pcg32(2))
        for row in out:
            matches = max(int(np.sum(row == base)) for base in s_min)
            assert matches >= 3

    def test_one_dimension_falls_back(self):
        with pytest.warns(UserWarning, match="random"):
            out = emicil(np.array([[1.0], [2.0]]), np.empty((0, 1)), 4, P, Pcg32(0))
        assert out.shape == (4, 1)


class TestEwmote:
    def _sets(self, seed=0):
        rng = Pcg32(seed)
        s_min = rng.normals(24).reshape(8, 3)
        s_maj = rng.normals(90).reshape(30, 3) + 2.0
        return s_min, s_maj

    def test_zero_count_returns_no_rows(self):
        s_min, s_maj = self._sets()
        out = ewmote(s_min, s_maj, 0, SamplerParams(), Pcg32(0))
        assert out.shape == (0, 3)

    def test_returns_only_synthetic_rows(self):
        s_min, s_maj = self._sets()
        out = ewmote(s_min, s_maj, 12, SamplerParams(), Pcg32(1))
        assert out.shape == (12, 3)
        assert not any(np.array_equal(row, base) for row in out for base in s_min)

    def test_single_coordinate_deviation(self):
        s_min, s_maj = self._sets(2)
        out = ewmote(s_min, s_maj, 40, SamplerParams(), Pcg32(3))
        for row in out:
            matches = max(int(np.sum(row == base)) for base in s_min)
            assert matches >= 2       # all but the imputed coordinate

    def test_base_frequencies_follow_selection_probabilities(self):
        s_min, s_maj = self._sets(4)
        params = SamplerParams()
        wset = selection_probabilities(s_min, s_maj, params)
        out = ewmote(s_min, s_maj, 4000, params, Pcg32(5))
        eq = (out[:, None, :] == wset.s_imin[None, :, :]).sum(axis=2)
        base = np.argmax(eq, axis=1)
        assert np.all(eq[np.arange(len(out)), base] >= 2)
        freq = np.bincount(base, minlength=len(wset.s_imin)) / len(out)
        tv = 0.5 * np.abs(freq - wset.probabilities).sum()
        assert tv < 0.05

    def test_tiny_minority_falls_back_to_random(self):
        s_maj = np.zeros((5, 2))
        with pytest.warns(UserWarning, match="random"):
            out = ewmote(np.array([[1.0, 2.0]]), s_maj, 3, SamplerParams(), Pcg32(0))
        assert out.shape == (3, 2)
        assert all(np.array_equal(r, [1.0, 2.0]) for r in out)

    def test_one_dimension_falls_back_to_random(self):
        s_min = np.array([[1.0], [2.0], [3.0]])
        with pytest.warns(UserWarning, match="ewmote .*falling back to random"):
            out = ewmote(s_min, np.array([[9.0], [8.0]]), 4, SamplerParams(), Pcg32(0))
        assert out.shape == (4, 1)
        assert set(out.ravel()) <= {1.0, 2.0, 3.0}

    def test_no_informative_set_falls_back_to_emicil(self):
        s_min = np.array([[0.0, 0.0], [30.0, 30.0]])
        s_maj = np.vstack([
            [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.12, 0.05]],
            [[30.1, 30.0], [30.0, 30.1], [29.9, 30.0], [30.0, 29.9], [30.1, 30.1]],
        ])
        with pytest.warns(UserWarning, match="emicil"):
            out = ewmote(s_min, s_maj, 6, SamplerParams(), Pcg32(0))
        assert out.shape == (6, 2)

    def test_seed_determinism(self):
        s_min, s_maj = self._sets(6)
        a = ewmote(s_min, s_maj, 25, SamplerParams(), Pcg32(9))
        b = ewmote(s_min, s_maj, 25, SamplerParams(), Pcg32(9))
        assert a.tobytes() == b.tobytes()


class TestBatchedImputationSamplers:
    @pytest.mark.parametrize("method", ["emicil", "ewmote"])
    @pytest.mark.parametrize("d", [2, 3, 6, 12])
    def test_matches_row_by_row_oracle(self, method, d):
        for seed in range(4):
            rng = Pcg32(100 * d + seed)
            s_min = rng.normals(5 * d * d).reshape(5 * d, d)
            s_maj = rng.normals(15 * d * d).reshape(15 * d, d) + 1.5
            got_rng, want_rng = Pcg32(seed), Pcg32(seed)
            got = SAMPLERS[method](s_min, s_maj, 60, P, got_rng)
            want = (emicil_oracle(s_min, 60, P, want_rng) if method == "emicil"
                    else ewmote_oracle(s_min, s_maj, 60, P, want_rng))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            assert got_rng.random() == want_rng.random()


class TestBatchedDrawSamplers:
    """random, smote and mwmote draw all their rows in one batch; they must
    give the bytes of the row-by-row loops they replace."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_and_smote(self, d, seed):
        s_min = Pcg32(seed).normals(10 * d).reshape(10, d)
        for k in (1, 3):
            got_rng, want_rng = Pcg32(seed), Pcg32(seed)
            got = smote(s_min, no_maj(s_min), 70, SamplerParams(k=k), got_rng)
            want = smote_oracle(s_min, 70, k, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.random() == want_rng.random()
        got_rng, want_rng = Pcg32(seed), Pcg32(seed)
        got = random_oversample(s_min, no_maj(s_min), 70, P, got_rng)
        assert got.tobytes() == random_oracle(s_min, 70, want_rng).tobytes()
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("cp", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_mwmote(self, cp, seed):
        # Classes mixed at one scale: most minority rows are informative,
        # and a small cp leaves many of them in clusters of their own.
        rng = Pcg32(seed)
        s_min = rng.normals(24).reshape(12, 2) * 3
        s_maj = rng.normals(120).reshape(60, 2) * 3
        params = SamplerParams(cp=cp)
        wset = selection_probabilities(s_min, s_maj, params)
        clusters = agglomerative_clusters(s_min[wset.minf_indices], cp)
        if cp == 1.0:
            # Some bases a row may draw have no partner draw.
            assert np.any(np.bincount(clusters)[clusters[wset.imin_in_minf]] == 1)
        got_rng, want_rng = Pcg32(seed), Pcg32(seed)
        got = mwmote(s_min, s_maj, 80, params, got_rng)
        assert got.tobytes() == mwmote_oracle(s_min, s_maj, 80, params, want_rng).tobytes()
        assert got_rng.random() == want_rng.random()


class TestSamplerContract:
    def test_methods_are_none_plus_the_table(self):
        assert METHODS == ("none", "random", "smote", "emicil", "mwmote", "ewmote")
        assert METHODS[1:] == tuple(SAMPLERS)

    @pytest.mark.parametrize("method", list(SAMPLERS))
    @pytest.mark.parametrize("n", [0, 9])
    def test_returns_exactly_n_rows(self, method, n):
        rng = Pcg32(10)
        s_min = rng.normals(24).reshape(8, 3)
        s_maj = rng.normals(90).reshape(30, 3) + 2.0
        out = SAMPLERS[method](s_min, s_maj, n, SamplerParams(), Pcg32(11))
        assert out.shape == (n, 3)


class TestResampleMulticlass:
    def _fm(self, counts, seed=0, dim=3):
        rng = Pcg32(seed)
        blocks, labels = [], []
        for i, (label, count) in enumerate(sorted(counts.items())):
            blocks.append(rng.normals(count * dim).reshape(count, dim) + 3.0 * i)
            labels += [label] * count
        return FeatureMatrix(np.vstack(blocks), labels, tuple(f"f{i}" for i in range(dim)))

    def test_balanced_input_unchanged(self):
        fm = self._fm({"a": 20, "b": 20})
        out = resample_multiclass(fm, "smote", SamplerParams(), Pcg32(0))
        assert out.n_rows == fm.n_rows
        assert np.array_equal(out.data, fm.data)

    def test_binary_one_to_sixteen_balances(self):
        fm = self._fm({"N": 160, "F": 10})
        out = resample_multiclass(fm, "ewmote", SamplerParams(), Pcg32(1))
        dist = class_distribution(out.labels)
        assert dist.counts == {"N": 160, "F": 160}

    def test_plant_scale_counts(self):
        counts = {"N": 77043, "F1": 5502, "F2": 4268, "F3": 3820,
                  "F4": 72, "F5": 723, "F6": 21774}
        fm = self._fm(counts, dim=2)
        out = resample_multiclass(fm, "random", SamplerParams(), Pcg32(2))
        dist = class_distribution(out.labels)
        assert set(dist.counts.values()) == {77043}
        assert dist.total == 77043 * 7

    @pytest.mark.parametrize("method", list(SAMPLERS))
    def test_originals_first_and_unchanged(self, method):
        fm = self._fm({"N": 30, "F": 5})
        out = resample_multiclass(fm, method, SamplerParams(k=3), Pcg32(3))
        assert np.array_equal(out.data[:35], fm.data)
        assert list(out.labels[:35]) == list(fm.labels)
        assert set(out.labels[35:]) == {"F"}

    def test_none_is_identity(self):
        fm = self._fm({"a": 4, "b": 2})
        assert resample_multiclass(fm, "none", SamplerParams(), Pcg32(0)) is fm

    def test_unknown_method(self):
        fm = self._fm({"a": 4, "b": 2})
        with pytest.raises(ConfigError):
            resample_multiclass(fm, "adasyn", SamplerParams(), Pcg32(0))

    def test_multiclass_definition_of_majority_pool(self):
        # each class is oversampled against all other rows
        fm = self._fm({"N": 40, "F1": 8, "F2": 4})
        out = resample_multiclass(fm, "smote", SamplerParams(k=2), Pcg32(4))
        dist = class_distribution(out.labels)
        assert dist.counts == {"N": 40, "F1": 40, "F2": 40}
