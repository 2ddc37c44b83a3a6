import hashlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from imbfault import classifier
from imbfault.classifier import (_EPS, _KEY_STEP, _TREE_KEYS, GbtModel, GbtParams,
                                 _distinct_rows, _fit_tree, _predict_tree, _SplitScan,
                                 gbt_train)
from imbfault.core import FeatureMatrix
from imbfault.errors import ConfigError, DataError
from imbfault.rng import Pcg32


def _fm(X, y):
    X = np.asarray(X, dtype=float)
    return FeatureMatrix(X, y, tuple(f"f{i}" for i in range(X.shape[1])))


def _separable_1d(n=40, seed=0):
    rng = Pcg32(seed)
    lo = np.array([[rng.random()] for _ in range(n // 2)])
    hi = np.array([[rng.random() + 2.0] for _ in range(n // 2)])
    return _fm(np.vstack([lo, hi]), ["a"] * (n // 2) + ["b"] * (n // 2))


class TestGbtTrain:
    def test_separable_perfect_fit(self):
        fm = _separable_1d()
        model = gbt_train(fm, GbtParams(rounds=30, max_depth=1))
        assert np.all(model.predict(fm) == fm.labels)

    def test_vanishing_rate_predicts_prior(self):
        fm = _fm([[0.0], [1.0], [2.0], [3.0]], ["a", "a", "a", "b"])
        model = gbt_train(fm, GbtParams(rounds=1, learning_rate=1e-9))
        proba = model.predict_proba(fm)
        np.testing.assert_allclose(proba[:, 0], 0.75, atol=1e-3)
        np.testing.assert_allclose(proba[:, 1], 0.25, atol=1e-3)

    def test_xor_needs_depth_two(self):
        rng = Pcg32(1)
        centers = [(0, 0, "a"), (1, 1, "a"), (0, 1, "b"), (1, 0, "b")]
        X, y = [], []
        for cx, cy, label in centers:
            for _ in range(25):
                X.append([cx + rng.normal(0, 0.1), cy + rng.normal(0, 0.1)])
                y.append(label)
        fm = _fm(X, y)
        model = gbt_train(fm, GbtParams(rounds=50, max_depth=2))
        acc = float(np.mean(model.predict(fm) == fm.labels))
        assert acc >= 0.95

    def test_single_class_errors(self):
        with pytest.raises(DataError):
            gbt_train(_fm([[0.0], [1.0]], ["a", "a"]), GbtParams(rounds=1))

    def test_multiclass_softmax(self):
        rng = Pcg32(2)
        X, y = [], []
        for i, label in enumerate(["a", "b", "c"]):
            for _ in range(30):
                X.append([3 * i + rng.normal(0, 0.3), rng.normal(0, 0.3)])
                y.append(label)
        fm = _fm(X, y)
        model = gbt_train(fm, GbtParams(rounds=25, max_depth=2))
        assert model.binary is False
        assert float(np.mean(model.predict(fm) == fm.labels)) == 1.0

    @pytest.mark.parametrize("a, b", [(1.0 + 2.0**-52, 1.0 + 2.0**-51), (1.5e308, 1.7e308)],
                             ids=["adjacent_floats", "near_float_max"])
    def test_threshold_falls_between_the_values(self, tmp_path, a, b):
        """Their midpoint rounds up to b for the first pair and overflows for
        the second; either would send every row left."""
        fm = _fm([[a]] * 10 + [[b]] * 10, ["a"] * 10 + ["b"] * 10)
        model = gbt_train(fm, GbtParams(rounds=5, max_depth=1))
        threshold = model.trees[0][0]["threshold"][0]
        assert a <= threshold < b
        assert np.all(model.predict(fm) == fm.labels)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GbtModel.load(path)
        assert loaded.predict_proba(fm).tobytes() == model.predict_proba(fm).tobytes()

    def test_loss_validation(self):
        with pytest.raises(ConfigError):
            GbtParams(rounds=0)
        with pytest.raises(ConfigError):
            GbtParams(learning_rate=0.0)

    @pytest.mark.parametrize("bad", [{"max_depth": 2.5}, {"rounds": 2.5}, {"min_leaf": 1e300},
                                     {"rounds": True}, {"max_depth": "2"}, {"rounds": None}])
    def test_counts_must_be_integers(self, bad):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be an integer"):
            GbtParams(**{"rounds": 2, **bad})

    @pytest.mark.parametrize("bad", [True, "0.3", None, 1j])
    def test_learning_rate_must_be_a_real_number(self, bad):
        with pytest.raises(ConfigError, match="learning_rate must be a real number"):
            GbtParams(rounds=2, learning_rate=bad)

    def test_numpy_params_save_and_load(self, tmp_path):
        params = GbtParams(rounds=np.int64(2), learning_rate=np.float32(0.5),
                           max_depth=np.uint8(2), min_leaf=np.int64(2))
        assert [type(v) for v in (params.rounds, params.max_depth, params.min_leaf,
                                  params.learning_rate)] == [int, int, int, float]
        fm = _separable_1d()
        model = gbt_train(fm, params)
        model.save(tmp_path / "m.json")
        loaded = GbtModel.load(tmp_path / "m.json")
        assert loaded.params == params
        assert loaded.predict_proba(fm).tobytes() == model.predict_proba(fm).tobytes()


def _pinned_set(n_classes):
    rng = Pcg32(40 + n_classes)
    X = np.round(rng.normals(240).reshape(80, 3), 1)   # rounded: many tied values
    score = X[:, 0] + 0.5 * X[:, 1] - 0.3 * X[:, 2] + 0.4 * rng.normals(80)
    y = np.array(["a", "b", "c"])[np.digitize(score, [-0.4, 0.6][:n_classes - 1])]
    return _fm(X, list(y))


# sha256 of json.dumps(model.trees, sort_keys=True) and of predict_proba(...).tobytes().
# Any change to split search, leaf values, boosting or the link functions moves them.
PINNED = {
    2: ("0a802ff6b26a39d0dc978ddff2668b0d0d9f576c1b9e33d311397ea872e73f56",
        "7fa9792dc0adc1c9d41e200c9952264c4f89a9b25509f9f16b7df5c812378018"),
    3: ("41e1ff162ddec6e09818c28e2aaa0d6c13440ede36b0bdd6190afc45eaa3e93a",
        "e1cb349badd21cf0cc4903ab97381485c338ce62988b7e2bba7cbf7382e2a37a"),
}


def _tie_free_set():
    """2,000 rows of 44 distinct normal features, 3 classes: the root scans
    its features in two chunks."""
    rng = Pcg32(26)
    X = rng.normals(2000 * 44).reshape(2000, 44)
    score = X[:, 0] - X[:, 1] + 0.5 * X[:, 2] * X[:, 3] + 0.5 * rng.normals(2000)
    return _fm(X, list(np.array(["a", "b", "c"])[np.digitize(score, [-0.5, 1.0])]))


# sha256 of json.dumps(model.trees, sort_keys=True) for _tie_free_set, by min_leaf.
PINNED_TIE_FREE = {
    1: "8d1fedf7fa4a6d4e927792fa73bd24eeb2bf2bc1f3719829bd0d5b8e5199c2dd",
    3: "39170dd8dc3ab66aa7e9aa644725d6d50c88d5ad87e6242112bb6809b6889a95",
}


def _scan_elements(value, rows):
    """Patch the split scan's chunk budget to `value` elements, -1 meaning
    rows - 1; None keeps the default."""
    budget = classifier._SCAN_ELEMENTS if value is None else rows - 1 if value == -1 else value
    return mock.patch.object(classifier, "_SCAN_ELEMENTS", budget)


def _weighted_case(rng, rows):
    """Weights 1-3 and gradients and hessians that are multiples of 2**-4 of
    at most 2 in magnitude, so every sum over a few hundred such rows is
    exact in any order, and a weighted fit must match the oracle on every
    training row."""
    w = 1.0 + rng.randints([3] * rows)
    return w, (rng.randints([65] * rows) - 32.0) / 16, rng.randints([33] * rows) / 16.0


def _weighted_oracle(X, w, g, h, params):
    """fit_tree_oracle on the training rows a weighted set stands for, and
    the index of each training row's row in X."""
    of = np.repeat(np.arange(len(X)), w.astype(int))
    return (*fit_tree_oracle(X[of], g[of], h[of], params), of)


def fit_tree_oracle(X, g, h, params):
    """Scalar reference for `_fit_tree`: every node argsorts every feature of
    its own rows and scans them one feature at a time. A node whose rows all
    share one (g, h) pair with h >= eps is not scanned: each of its splits
    gains exactly 0, so any split a scan took would be rounding noise."""
    tree = {key: [] for key in _TREE_KEYS}
    fitted = np.empty(len(X))

    def build(idx, depth):
        nid = len(tree["feature"])
        for key, default in zip(_TREE_KEYS, (-1, 0.0, 0, 0, 0.0)):
            tree[key].append(default)
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        uniform = len(idx) > 0 and h[idx[0]] >= _EPS \
            and (g[idx] == g[idx[0]]).all() and (h[idx] == h[idx[0]]).all()
        if depth < params.max_depth and len(idx) >= 2 * params.min_leaf and not uniform:
            parent = G * G / max(H, _EPS)
            for f in range(X.shape[1]):
                xs = X[idx, f]
                order = np.argsort(xs, kind="stable")
                xs_sorted = xs[order]
                gl = np.cumsum(g[idx][order])[:-1]
                hl = np.cumsum(h[idx][order])[:-1]
                counts = np.arange(1, len(idx))
                valid = (xs_sorted[:-1] < xs_sorted[1:])
                valid &= (counts >= params.min_leaf) & (len(idx) - counts >= params.min_leaf)
                if not valid.any():
                    continue
                gains = (gl * gl / np.maximum(hl, _EPS)
                         + (G - gl) ** 2 / np.maximum(H - hl, _EPS) - parent)
                gains[~valid] = -np.inf
                p = int(np.argmax(gains))
                if gains[p] > best_gain + 1e-12:
                    best_gain = float(gains[p])
                    best_feature = f
                    a, b = float(xs_sorted[p]), float(xs_sorted[p + 1])
                    best_threshold = a / 2 + b / 2
                    if not a <= best_threshold < b:   # adjacent floats: the midpoint is b
                        best_threshold = a
        if best_feature < 0:
            tree["value"][nid] = fitted[idx] = -G / max(H, _EPS)
            return nid
        mask = X[idx, best_feature] <= best_threshold
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        for key, v in zip(_TREE_KEYS, (best_feature, best_threshold, left, right)):
            tree[key][nid] = v
        return nid

    build(np.arange(len(X)), 0)
    return tree, fitted


class TestPinnedModels:
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_trees_and_proba_bytes(self, n_classes):
        fm = _pinned_set(n_classes)
        model = gbt_train(fm, GbtParams(rounds=6, learning_rate=0.3, max_depth=3, min_leaf=2))
        assert model.binary is (n_classes == 2)
        trees = json.dumps(model.trees, sort_keys=True).encode()
        proba = model.predict_proba(fm).tobytes()
        assert (hashlib.sha256(trees).hexdigest(),
                hashlib.sha256(proba).hexdigest()) == PINNED[n_classes]

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_tie_free_trees(self, min_leaf):
        fm = _tie_free_set()
        model = gbt_train(fm, GbtParams(rounds=4, max_depth=4, min_leaf=min_leaf))
        trees = json.dumps(model.trees, sort_keys=True).encode()
        assert hashlib.sha256(trees).hexdigest() == PINNED_TIE_FREE[min_leaf]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 3), levels=st.integers(1, 5),
           min_leaf=st.integers(1, 4), max_depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_fitted_matches_predict_tree(self, rows, cols, levels, min_leaf, max_depth, seed):
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols)   # ties
        g = rng.normals(rows)
        h = rng.uniforms(rows) + 0.01
        tree, fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g, h,
                                 GbtParams(max_depth=max_depth, min_leaf=min_leaf))
        assert fitted.tobytes() == _predict_tree(tree, X).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 5),
           levels=st.sampled_from([1, 2, 3, 5, 10, 2**30]),
           column=st.sampled_from(["as drawn", "constant", "duplicate"]),
           min_leaf=st.integers(1, 4), max_depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_presorted_split_search_matches_oracle(self, rows, cols, levels, column,
                                                   min_leaf, max_depth, seed):
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols) / levels
        if column == "constant":
            X[:, rng.randint(cols)] = 0.5
        elif column == "duplicate":    # equal gains: the first feature must win
            X[:, rng.randint(cols)] = X[:, rng.randint(cols)]
        g = rng.normals(rows)
        h = rng.uniforms(rows) + 0.01
        params = GbtParams(max_depth=max_depth, min_leaf=min_leaf)
        tree, fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g, h, params)
        want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
        assert json.dumps(tree) == json.dumps(want_tree)
        assert fitted.tobytes() == want_fitted.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 4), levels=st.sampled_from([2, 5, 2**30]),
           hessian=st.sampled_from(["some zero", "all zero", "underflowed"]),
           min_leaf=st.integers(1, 4), max_depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_and_underflowed_hessians_match_oracle(self, rows, cols, levels, hessian,
                                                        min_leaf, max_depth, seed):
        """p(1 - p) is 0 where a probability has saturated, and subnormal near it."""
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols) / levels
        g = rng.normals(rows)
        h = rng.uniforms(rows)
        if hessian == "some zero":
            h[h < 0.5] = 0.0
        elif hessian == "all zero":
            h[:] = 0.0
        else:
            h = np.ldexp(h, -1070)   # subnormal, some rounded to 0
        params = GbtParams(max_depth=max_depth, min_leaf=min_leaf)
        tree, fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g, h, params)
        want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
        assert json.dumps(tree) == json.dumps(want_tree)
        assert fitted.tobytes() == want_fitted.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 4), levels=st.sampled_from([2, 5, 2**30]),
           trees=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_trees_sharing_one_scan_match_fresh_fits(self, rows, cols, levels, trees, seed):
        """Scratch left by one tree must not reach the next, whatever its
        gradients, hessians, depth or min_leaf."""
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols) / levels
        shared = _SplitScan(X, np.ones(len(X)))
        for _ in range(trees):
            g = rng.normals(rows)
            h = rng.uniforms(rows) + 0.01
            params = GbtParams(max_depth=1 + rng.randint(4), min_leaf=1 + rng.randint(4))
            tree, fitted = _fit_tree(shared, g, h, params)
            fresh_tree, fresh_fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g, h, params)
            want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
            assert json.dumps(tree) == json.dumps(fresh_tree) == json.dumps(want_tree)
            assert fitted.tobytes() == fresh_fitted.tobytes() == want_fitted.tobytes()

    @settings(max_examples=600, deadline=None)
    @given(rows=st.integers(2, 60), cols=st.integers(1, 5),
           pattern=st.sampled_from(["ewmote", "one column without ties", "every value tied",
                                    "tie free"]),
           min_leaf=st.integers(1, 5), trees=st.integers(1, 3), weighted=st.booleans(),
           elements=st.sampled_from([None, 1, 7, -1]), seed=st.integers(0, 2**32 - 1))
    def test_tie_patterns_match_oracle(self, rows, cols, pattern, min_leaf, trees, weighted,
                                       elements, seed):
        """Only the positions between distinct values are scored, whichever
        positions those are, and trees sharing one scan see the same ones.
        min_leaf > 1 starts the root's split positions after position 0.
        Weighted sets count min_leaf in training rows. A scan budget of 1, 7
        or rows - 1 elements makes every node scan its features in several
        chunks."""
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * 3).reshape(rows, cols)
        j = rng.randint(cols)
        if pattern == "ewmote":   # copies of a few base rows, each with one attribute redrawn
            X = X[rng.randints([3] * rows) % rows]
            X[np.arange(rows), rng.randints([cols] * rows)] = rng.uniforms(rows)
        elif pattern == "one column without ties":
            X[:, j] = np.argsort(rng.uniforms(rows), kind="stable")
        elif pattern == "every value tied":   # each value at least twice
            X[:, j] = rng.uniforms(rows // 2)[np.minimum(np.arange(rows) // 2, rows // 2 - 1)]
        else:
            X = np.argsort(rng.uniforms(rows * cols).reshape(cols, rows), axis=1).T / rows
        w = _weighted_case(rng, rows)[0] if weighted else np.ones(rows)
        with _scan_elements(elements, rows):
            shared = _SplitScan(X, w)
        assert shared.tie_free == all(len(set(X[:, f])) == rows for f in range(cols))
        for _ in range(trees):
            if weighted:
                _, g, h = _weighted_case(rng, rows)
            else:
                g = rng.normals(rows)
                h = rng.uniforms(rows) + 0.01
            params = GbtParams(max_depth=1 + rng.randint(4), min_leaf=min_leaf)
            tree, fitted = _fit_tree(shared, g, h, params)
            want_tree, want_fitted, of = _weighted_oracle(X, w, g, h, params)
            assert json.dumps(tree) == json.dumps(want_tree)
            assert fitted[of].tobytes() == want_fitted.tobytes()


def _spied_scan(X, w):
    """A split scan that records each call of its best_split and partition."""
    scan, calls = _SplitScan(X, w), []
    for name in ("best_split", "partition"):
        def spy(*args, _name=name, _method=getattr(scan, name)):
            calls.append(_name)
            return _method(*args)
        setattr(scan, name, spy)
    return scan, calls


class TestUniformNodes:
    def test_uniform_node_is_one_leaf(self):
        """Every split of 2,000 rows sharing (0.9, 0.09) gains exactly 0,
        but rounding in the prefix sums lifts some gains over the 1e-12
        bar; the node must still be one leaf."""
        n = 2000
        X = np.arange(n, dtype=float)[:, None]
        g, h = np.full(n, 0.9), np.full(n, 0.09)
        scan, calls = _spied_scan(X, np.ones(len(X)))
        tree, fitted = _fit_tree(scan, g, h, GbtParams(max_depth=2))
        value = -float(g.sum()) / float(h.sum())
        assert tree == {"feature": [-1], "threshold": [0.0], "left": [0], "right": [0],
                        "value": [value]}
        assert set(fitted.tolist()) == {value}
        assert calls == []

    def test_uniform_node_of_weighted_rows_is_one_leaf(self):
        """The same with weights 1-3: the weighted pairs differ, but the
        5,999 training rows they stand for share one pair."""
        n = 2000
        X = np.arange(n, dtype=float)[:, None]
        g, h, w = np.full(n, 0.9), np.full(n, 0.09), 1.0 + np.arange(n) % 3
        scan, calls = _spied_scan(X, w)
        tree, fitted = _fit_tree(scan, g, h, GbtParams(max_depth=2, min_leaf=2))
        value = -float(np.sum(w * g)) / float(np.sum(w * h))
        assert tree == {"feature": [-1], "threshold": [0.0], "left": [0], "right": [0],
                        "value": [value]}
        assert set(fitted.tolist()) == {value}
        assert calls == []

    @pytest.mark.parametrize("h0", [0.0, 1e-17])
    def test_uniform_node_below_eps_is_scanned(self, h0):
        """With h < eps the clamps act, the gains are not exactly 0, and the
        node is scanned as any other."""
        n = 64
        X = np.floor(Pcg32(9).uniforms(n * 2) * 8).reshape(n, 2)
        g, h = np.full(n, 0.4), np.full(n, h0)
        params = GbtParams(max_depth=3)
        scan, calls = _spied_scan(X, np.ones(len(X)))
        tree, fitted = _fit_tree(scan, g, h, params)
        want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
        assert calls[0] == "best_split"
        assert json.dumps(tree) == json.dumps(want_tree)
        assert fitted.tobytes() == want_fitted.tobytes()

    def test_no_partition_when_no_child_is_scanned(self):
        """The root separates two uniform halves: neither child is scanned,
        so their per-feature orders are never formed."""
        X = np.arange(40, dtype=float)[:, None]
        g = np.repeat([-0.5, 0.5], 20)
        scan, calls = _spied_scan(X, np.ones(len(X)))
        tree, fitted = _fit_tree(scan, g, np.full(40, 0.25), GbtParams(max_depth=3))
        assert calls == ["best_split"]
        assert tree["feature"] == [0, -1, -1] and tree["threshold"][0] == 19.5
        assert fitted.tolist() == [2.0] * 20 + [-2.0] * 20

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(200, 2500), cols=st.integers(1, 3), pairs=st.integers(1, 3),
           levels=st.sampled_from([2, 7, 2**30]), min_leaf=st.integers(1, 3),
           max_depth=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_few_gradient_pairs_match_oracle(self, rows, cols, pairs, levels, min_leaf,
                                             max_depth, seed):
        """Boosting's first rounds give every row of a class one (g, h) pair,
        so large nodes often hold a single pair."""
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols)
        p = rng.uniforms(pairs)
        which = rng.randints([pairs] * rows)
        g, h = (p - (np.arange(pairs) % 2))[which], (p * (1.0 - p))[which]
        params = GbtParams(max_depth=max_depth, min_leaf=min_leaf)
        tree, fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g, h, params)
        want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
        assert json.dumps(tree) == json.dumps(want_tree)
        assert fitted.tobytes() == want_fitted.tobytes()


class TestTieFreeScan:
    @pytest.mark.parametrize("min_leaf", [1, 3, 7])
    def test_tie_free_set_scans_by_position(self, min_leaf):
        """A tie-free set takes the positional scan under any min_leaf,
        weighted or not, and with any scan budget (see `_scan_elements`): no
        node looks for split positions, and the trees match the oracle."""
        for weighted in (False, True):
            for elements in (None, 1, 7, -1):
                rng = Pcg32(min_leaf)
                X = rng.normals(300).reshape(100, 3)
                w = _weighted_case(rng, 100)[0] if weighted else np.ones(100)
                with _scan_elements(elements, 100):
                    scan = _SplitScan(X, w)
                assert scan.tie_free

                def no_split_positions(order, offsets):
                    raise AssertionError("a tie-free set looked for split positions")
                scan._splits = no_split_positions
                params = GbtParams(max_depth=4, min_leaf=min_leaf)
                for _ in range(3):
                    if weighted:
                        _, g, h = _weighted_case(rng, 100)
                    else:
                        g, h = rng.normals(100), rng.uniforms(100) + 0.01
                    tree, fitted = _fit_tree(scan, g, h, params)
                    want_tree, want_fitted, of = _weighted_oracle(X, w, g, h, params)
                    assert json.dumps(tree) == json.dumps(want_tree)
                    assert fitted[of].tobytes() == want_fitted.tobytes()

    @pytest.mark.parametrize("rows, cols", [(300, 300), (70_000, 2)])
    def test_scratch_is_bounded(self, rows, cols):
        """Past _SCAN_ELEMENTS elements, the scan's scratch holds whole
        features' rows up to that budget, or one feature's rows."""
        bound = max(rows, classifier._SCAN_ELEMENTS)
        assert rows * cols > classifier._SCAN_ELEMENTS
        scan = _SplitScan(Pcg32(5).normals(rows * cols).reshape(rows, cols), np.ones(rows))
        assert scan.prefix.size <= bound and scan.mask.size <= bound
        assert scan.work.shape == (2, scan.prefix.size)


class TestScanOrders:
    COLUMNS = ("tie free", "partly tied", "all tied", "signed zeros", "subnormals")

    @staticmethod
    def _column(rng, kind, rows):
        if kind == "tie free":
            return np.argsort(rng.uniforms(rows), kind="stable") - rows / 2
        if kind == "partly tied":
            x = np.floor(rng.uniforms(rows) * max(1, rows // 3))
            return np.where(rng.uniforms(rows) < 0.3, x + rng.uniforms(rows), x)
        if kind == "all tied":
            return np.full(rows, 0.75)
        if kind == "signed zeros":   # -0.0 < 0.0 is False: they are tied
            return np.array([-0.0, 0.0, 1.0, -1.0])[rng.randints([4] * rows) % (2 + rng.randint(3))]
        return (rng.randints([7] * rows) - 3.0) * 5e-324   # subnormals and zeros of both signs

    @settings(max_examples=300, deadline=None)
    @given(rows=st.one_of(st.sampled_from([1, 2]), st.integers(3, 600)),
           kinds=st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_orders_are_the_stable_argsort(self, rows, kinds, seed):
        """Each column's order lists equal values by row index, and the
        root's split positions are where a sorted value is below the next."""
        rng = Pcg32(seed)
        X = np.column_stack([self._column(rng, kind, rows) for kind in kinds])
        scan = _SplitScan(X, np.ones(rows))
        want = np.argsort(X.T, axis=1, kind="stable")
        assert scan.orders.tolist() == want.tolist()
        xs = np.take_along_axis(X.T, want, axis=1)
        splits = np.zeros((len(kinds), rows), dtype=bool)
        splits[:, :-1] = xs[:, :-1] < xs[:, 1:]
        assert scan.root_splits.tolist() == splits.tolist()
        assert scan.tie_free is bool(splits[:, :-1].all())


class TestRepeatedRows:
    """gbt_train fits each distinct (row, class) pair once, with the number
    of rows it stands for as its weight."""

    @settings(max_examples=400, deadline=None)
    @given(base=st.integers(1, 20), cols=st.integers(1, 4), levels=st.sampled_from([1, 2, 3, 2**30]),
           pattern=st.sampled_from(["some repeat", "every row repeats", "constant column"]),
           pairs=st.sampled_from([1, 2, 65]), min_leaf=st.integers(1, 4),
           max_depth=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_weighted_distinct_rows_fit_like_every_row(self, base, cols, levels, pattern, pairs,
                                                       min_leaf, max_depth, seed):
        """Gradients and hessians are multiples of 2**-4 of at most 2 in
        magnitude, over at most 100 rows, so every sum is exact in any
        order, and fitting the distinct rows with their
        weights must give the tree that fitting every row gives: min_leaf
        counts training rows, and a node whose rows share one (g, h) pair
        is a leaf whatever its weights."""
        rng = Pcg32(seed)
        rows = np.floor(rng.uniforms(base * cols) * levels).reshape(base, cols) / levels
        if pattern == "constant column":
            rows[:, rng.randint(cols)] = 0.5
        copies = rng.randints([4] * base) + (2 if pattern == "every row repeats" else 1)
        which = np.repeat(np.arange(base), copies)
        rng.shuffle(which)
        X = rows[which]
        U, _, w = _distinct_rows(X, np.zeros(len(X), dtype=int))
        assert w.sum() == len(X)
        index = {u.tobytes(): i for i, u in enumerate(U)}
        of = np.array([index[x.tobytes()] for x in X])   # each row's distinct row
        g_pairs = (rng.randints([65] * pairs) - 32.0) / 16
        h_pairs = rng.randints([33] * pairs) / 16.0
        pair = rng.randints([pairs] * len(U))
        g, h = g_pairs[pair], h_pairs[pair]
        params = GbtParams(max_depth=max_depth, min_leaf=min_leaf)
        tree, fitted = _fit_tree(_SplitScan(U, w), g, h, params)
        want_tree, want_fitted = _fit_tree(_SplitScan(X, np.ones(len(X))), g[of], h[of], params)
        oracle_tree, oracle_fitted = fit_tree_oracle(X, g[of], h[of], params)
        assert json.dumps(tree) == json.dumps(want_tree) == json.dumps(oracle_tree)
        assert fitted[of].tobytes() == want_fitted.tobytes() == oracle_fitted.tobytes()

    def test_distinct_rows_in_first_occurrence_order(self, monkeypatch):
        """Rows repeat only with the same bytes and the same class: -0.0 is
        not 0.0, and one row under two classes is two rows."""
        scans = []

        class RecordingScan(_SplitScan):
            def __init__(self, X, w):
                scans.append((X, w))
                super().__init__(X, w)

        monkeypatch.setattr(classifier, "_SplitScan", RecordingScan)
        fm = _fm([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]],
                 ["a", "b", "a", "b", "b", "a"])
        gbt_train(fm, GbtParams(rounds=1))
        X, w = scans.pop()
        assert X.tobytes() == fm.data[[0, 1, 3, 5]].tobytes() and w.tolist() == [2, 2, 1, 1]
        fm = _separable_1d()
        gbt_train(fm, GbtParams(rounds=1))
        X, w = scans.pop()
        assert X is fm.data and w.tolist() == [1] * len(X)   # no row repeats: nothing is copied

    def test_rows_whose_keys_collide_stay_apart(self):
        """(5e-324, 1.0) and (0.0, x), where x's bits are 1.0's plus the key
        step, get one key: 1·step + bits(1.0) = 0·step + bits(x)."""
        x = (np.array([1.0]).view(np.uint64) + _KEY_STEP).view(float)[0]
        X = np.array([[5e-324, 1.0], [0.0, x]])
        U, codes, w = _distinct_rows(X, np.zeros(2, dtype=int))
        assert U.tobytes() == X.tobytes() and w.tolist() == [1, 1]
        U, codes, w = _distinct_rows(X[[0, 1, 0]], np.zeros(3, dtype=int))
        assert U.tobytes() == X.tobytes() and w.tolist() == [2, 1]

    @pytest.mark.parametrize("min_leaf, split", [(3, True), (4, False)])
    def test_min_leaf_counts_training_rows(self, min_leaf, split):
        """Two distinct rows of three copies each: each side of the one
        split holds three training rows."""
        fm = _fm([[0.0]] * 3 + [[1.0]] * 3, ["a"] * 3 + ["b"] * 3)
        tree = gbt_train(fm, GbtParams(rounds=1, min_leaf=min_leaf)).trees[0][0]
        assert (tree["feature"][0] == 0) is split

    def test_prior_counts_every_row(self):
        fm = _fm([[0.0], [0.0], [0.0], [1.0]], ["a", "a", "a", "b"])
        assert gbt_train(fm, GbtParams(rounds=1)).init.tolist() == [math.log(0.25 / 0.75)]
        fm = _fm([[0.0], [0.0], [1.0], [1.0], [2.0]], ["a", "a", "b", "b", "c"])
        assert gbt_train(fm, GbtParams(rounds=1)).init.tolist() == np.log([0.4, 0.4, 0.2]).tolist()

    def test_rows_without_features(self):
        fm = FeatureMatrix(np.zeros((4, 0)), ["a", "b", "a", "b"], ())
        model = gbt_train(fm, GbtParams(rounds=2))
        assert model.predict_proba(fm).tolist() == [[0.5, 0.5]] * 4

    def test_rows_without_features_at_min_leaf_2(self):
        # The min_leaf mask reads each feature's own total: there are none.
        fm = FeatureMatrix(np.zeros((4, 0)), ["a", "b", "a", "b"], ())
        model = gbt_train(fm, GbtParams(rounds=2, min_leaf=2))
        assert model.predict_proba(fm).tolist() == [[0.5, 0.5]] * 4


class TestPredictProba:
    def test_rows_sum_to_one_and_open_interval(self):
        fm = _separable_1d(seed=3)
        model = gbt_train(fm, GbtParams(rounds=40, max_depth=2))
        proba = model.predict_proba(fm)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert proba.min() > 0.0 and proba.max() < 1.0

    def test_argmax_matches_labels_on_separable(self):
        fm = _separable_1d(seed=4)
        model = gbt_train(fm, GbtParams(rounds=30, max_depth=1))
        proba = model.predict_proba(fm)
        picked = [model.classes[i] for i in np.argmax(proba, axis=1)]
        assert picked == list(fm.labels)

    def test_decide_ties_go_to_lower_class(self):
        fm = _separable_1d(seed=4)
        model = gbt_train(fm, GbtParams(rounds=5, max_depth=1))
        picked = model.decide(np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]]))
        assert list(picked) == ["a", "b", "a"]
        assert list(model.decide(model.predict_proba(fm))) == list(model.predict(fm))

    def test_margin_monotone_in_rounds(self):
        fm = _separable_1d(seed=5)
        x = fm.data[:1]
        true_first = fm.labels[0]
        prev = None
        for rounds in (1, 3, 6, 10, 20):
            model = gbt_train(fm, GbtParams(rounds=rounds, max_depth=1))
            p = model.predict_proba(x)[0][model.classes.index(true_first)]
            if prev is not None:
                assert p >= prev - 1e-9
            prev = p

    def test_feature_count_checked(self):
        fm = _separable_1d(seed=6)
        model = gbt_train(fm, GbtParams(rounds=2))
        with pytest.raises(DataError):
            model.predict(np.ones((2, 3)))


class TestModelInvariants:
    def test_label_permutation_equivariance(self):
        fm = _separable_1d(seed=7)
        swapped = FeatureMatrix(fm.data, ["b" if l == "a" else "a" for l in fm.labels],
                                fm.feature_names)
        params = GbtParams(rounds=15, max_depth=2)
        pa = gbt_train(fm, params).predict_proba(fm)
        pb = gbt_train(swapped, params).predict_proba(fm)
        np.testing.assert_allclose(pa[:, 0], pb[:, 1], atol=1e-12)
        np.testing.assert_allclose(pa[:, 1], pb[:, 0], atol=1e-12)

    def test_feature_order_invariance_on_train_predictions(self):
        rng = Pcg32(8)
        X = rng.normals(80).reshape(40, 2)
        y = ["a" if x0 + x1 > 0 else "b" for x0, x1 in X]
        if len(set(y)) < 2:
            y[0] = "a" if y[0] == "b" else "b"
        params = GbtParams(rounds=20, max_depth=3)
        fm = _fm(X, y)
        fm_rev = _fm(X[:, ::-1], y)
        pred_a = gbt_train(fm, params).predict(fm)
        pred_b = gbt_train(fm_rev, params).predict(fm_rev)
        assert np.array_equal(pred_a, pred_b)

    def test_duplicated_feature_column_harmless(self):
        fm = _separable_1d(seed=9)
        dup = FeatureMatrix(np.column_stack([fm.data, fm.data[:, 0]]), fm.labels,
                            ("f0", "f1"))
        params = GbtParams(rounds=10, max_depth=2)
        pred_a = gbt_train(fm, params).predict(fm)
        pred_b = gbt_train(dup, params).predict(dup)
        assert np.array_equal(pred_a, pred_b)

    def test_serialization_deterministic(self, tmp_path):
        fm = _separable_1d(seed=10)
        params = GbtParams(rounds=8, max_depth=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        gbt_train(fm, params).save(p1)
        gbt_train(fm, params).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        fm = _separable_1d(seed=11)
        model = gbt_train(fm, GbtParams(rounds=6, max_depth=2))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GbtModel.load(path)
        np.testing.assert_array_equal(model.predict_proba(fm), loaded.predict_proba(fm))
        assert loaded.classes == model.classes

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataError):
            GbtModel.load(path)


def _set(key, value):
    def mutate(blob):
        blob[key] = value
    return mutate


def _set_node(field, nid, value):
    def mutate(blob):
        blob["trees"][0][0][field][nid] = value
    return mutate


def _drop_key(key):
    return lambda blob: blob.pop(key)


def _one_ensemble(**changes):
    """Keep the first ensemble only: a well-formed model, but for `changes`."""
    def mutate(blob):
        blob.update(init=[0.0], trees=[round_trees[:1] for round_trees in blob["trees"]],
                    **changes)
    return mutate


def _all_leaves(n_features):
    """No node of an all-leaf model reads n_features, so only the file check
    can refuse a bad one; otherwise predict would blame its input."""
    def mutate(blob):
        leaf = {"feature": [-1], "threshold": [0.0], "left": [0], "right": [0], "value": [0.5]}
        blob.update(n_features=n_features,
                    trees=[[leaf] * len(round_trees) for round_trees in blob["trees"]])
    return mutate


def _overflowing_margin(blob):
    blob.update(init=[1.7e308] * 3, learning_rate=1.0)
    blob["trees"][0][0]["value"][-1] = 1.7e308


def _truncate_round(blob):
    blob["trees"][1] = blob["trees"][1][:2]


def _shorten_list(blob):
    blob["trees"][0][0]["value"].pop()


def _empty_tree(blob):
    blob["trees"][0][1] = {key: [] for key in blob["trees"][0][1]}


MALFORMED = {
    "no_trees": _drop_key("trees"),
    "no_classes": _drop_key("classes"),
    "no_init": _drop_key("init"),
    "no_rounds": _drop_key("rounds"),
    "no_n_features": _drop_key("n_features"),
    "no_binary": _drop_key("binary"),
    "binary_three_classes": _one_ensemble(binary=True),
    "one_class": _one_ensemble(classes=["a"]),
    "init_too_short": _set("init", [0.0, 0.0]),
    "init_too_long": _set("init", [0.0, 0.0, 0.0, 0.0]),
    "init_nan": _set("init", [0.0, float("nan"), 0.0]),
    "round_too_few_trees": _truncate_round,
    "lists_unequal": _shorten_list,
    "lists_empty": _empty_tree,
    "feature_eq_n_features": _set_node("feature", 0, 2),
    "feature_far_out": _set_node("feature", 0, 99),
    "feature_float": _set_node("feature", 0, 1.0),
    "feature_string": _set_node("feature", 0, "0"),
    "left_self": _set_node("left", 0, 0),   # predict would cycle on node 0 forever
    "right_self": _set_node("right", 0, 0),
    "left_negative": _set_node("left", 0, -1),
    "right_past_end": _set_node("right", 0, 10_000),
    "left_float": _set_node("left", 0, 1.5),
    "threshold_nan": _set_node("threshold", 0, float("nan")),
    "threshold_inf": _set_node("threshold", 0, float("inf")),
    "value_neg_inf": _set_node("value", -1, float("-inf")),
    "value_null": _set_node("value", -1, None),
    "learning_rate_zero": _set("learning_rate", 0.0),
    "learning_rate_true": _set("learning_rate", True),
    "rounds_float": _set("rounds", 2.5),
    "rounds_not_len_trees": _set("rounds", 2),
    "rounds_true": _set("rounds", True),
    "max_depth_true": _set("max_depth", True),
    "min_leaf_float": _set("min_leaf", 1e300),
    "classes_repeated": _set("classes", ["a", "b", "a"]),
    "classes_equal_numbers": _set("classes", [1, 1.0, 2]),
    "classes_string": _set("classes", "abc"),
    "value_int_too_big": _set_node("value", -1, 10**400),
    "margin_overflow": _overflowing_margin,
    **{f"all_leaves_n_features_{name}": _all_leaves(value) for name, value in
       (("str", "1"), ("null", None), ("negative", -1), ("zero", 0), ("true", True),
        ("float", 1.0))},
}


class TestModelFileValidation:
    """`GbtModel.load` rejects every file whose trees could not be evaluated."""

    @pytest.fixture
    def saved(self, tmp_path):
        rng = Pcg32(14)
        X = rng.normals(90).reshape(45, 2)
        fm = _fm(X, ["a", "b", "c"] * 15)
        model = gbt_train(fm, GbtParams(rounds=3, max_depth=2))
        path = tmp_path / "model.json"
        model.save(path)
        blob = json.loads(path.read_text())
        assert len(blob["trees"][0][0]["feature"]) > 1   # the root is an internal node
        return model, fm, path, blob

    def _rewrite(self, path, blob):
        path.write_text(json.dumps(blob))
        return path

    def test_valid_file_loads(self, saved):
        model, fm, path, _ = saved
        loaded = GbtModel.load(path)
        assert loaded.predict_proba(fm).tobytes() == model.predict_proba(fm).tobytes()

    @pytest.mark.parametrize("raw", [b"not json at all", b'{"format": ', b"\xff\xfe",
                                     b"[1, 2]", b"3", b"null", b'"imbfault-gbt"',
                                     b"[" * 100_000 + b"]" * 100_000])   # too deep to parse
    def test_not_a_json_object(self, tmp_path, raw):
        path = tmp_path / "garbage.json"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="garbage.json"):
            GbtModel.load(path)

    @pytest.mark.parametrize("mutate", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed(self, saved, mutate):
        _, _, path, blob = saved
        mutate(blob)
        with pytest.raises(DataError, match="model.json"):
            GbtModel.load(self._rewrite(path, blob))

    def test_files_with_a_loss_key_still_load(self, tmp_path):
        """Files written before the loss followed the class count carry a "loss"
        key; a 2-class "softmax" file holds one tree per class per round."""
        leaf = {"feature": [-1], "threshold": [0.0], "left": [0], "right": [0],
                "value": [0.5]}
        stump = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, 0, 0],
                 "right": [2, 0, 0], "value": [0.0, -1.0, 1.0]}
        blob = {"format": "imbfault-gbt", "version": 1, "classes": ["a", "b"],
                "n_features": 1, "binary": False, "init": [0.0, 0.0], "learning_rate": 1.0,
                "rounds": 1, "max_depth": 1, "min_leaf": 1, "loss": "softmax",
                "trees": [[leaf, stump]]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(blob))
        model = GbtModel.load(path)
        assert model.binary is False
        proba = model.predict_proba(np.array([[0.0], [1.0]]))
        e = np.exp([[0.5, -1.0], [0.5, 1.0]])
        np.testing.assert_allclose(proba, e / e.sum(axis=1, keepdims=True), rtol=1e-15)
        blob.update(binary=True, loss="logistic", init=[0.0], trees=[[stump]])
        path.write_text(json.dumps(blob))
        p = 1.0 / (1.0 + np.exp([1.0, -1.0]))
        np.testing.assert_allclose(GbtModel.load(path).predict_proba([[0.0], [1.0]]),
                                   np.column_stack([1 - p, p]), rtol=1e-15)

    @pytest.mark.parametrize("margin", [-800.0, 800.0])
    def test_saturated_margins_give_finite_probabilities(self, tmp_path, margin):
        leaf = {"feature": [-1], "threshold": [0.0], "left": [0], "right": [0], "value": [0.5]}
        blob = {"format": "imbfault-gbt", "version": 1, "classes": ["a", "b"], "n_features": 1,
                "binary": True, "init": [margin], "learning_rate": 0.3, "rounds": 1,
                "max_depth": 1, "min_leaf": 1, "trees": [[leaf]]}
        proba = GbtModel.load(self._rewrite(tmp_path / "model.json", blob)).predict_proba([[0.0]])
        assert np.isfinite(proba).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


def _saved_blob(n_classes: int) -> str:
    """The text `save` writes for a small trained model."""
    rng = Pcg32(15 + n_classes)
    X = rng.normals(60).reshape(30, 2)
    model = gbt_train(_fm(X, ["a", "b", "c"][:n_classes] * (30 // n_classes)),
                      GbtParams(rounds=2, max_depth=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        return path.read_text()


VALID_BLOBS = {n: _saved_blob(n) for n in (2, 3)}

ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.integers(2**63, 2**1100),
    st.floats(), st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324]),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3), st.just({}))


def _well_formed_trees(blob) -> list:
    """Every tree dict of `blob` whose node lists are lists, or [] once a
    mutation has broken the nesting."""
    rounds = blob.get("trees")
    if not isinstance(rounds, list) or not all(isinstance(r, list) for r in rounds):
        return []
    trees = [t for r in rounds for t in r]
    ok = all(isinstance(t, dict) and all(isinstance(t.get(k), list) and t[k] for k in _TREE_KEYS)
             for t in trees)
    return trees if ok else []


class TestModelFileFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n_classes=st.sampled_from([2, 3]), mutations=st.integers(1, 3))
    def test_mutated_file_loads_or_fails_typed(self, tmp_path_factory, data, n_classes,
                                               mutations):
        """A mutated model file either is refused with a DataError naming it,
        or loads and gives finite probabilities on any finite input."""
        blob = json.loads(VALID_BLOBS[n_classes])
        for _ in range(mutations):
            kind = data.draw(st.sampled_from(["drop", "set", "node", "cycle", "all leaf"]))
            trees = _well_formed_trees(blob)
            if kind == "drop" and blob:
                del blob[data.draw(st.sampled_from(sorted(blob)))]
            elif kind == "set":
                key = data.draw(st.sampled_from(sorted(blob) + ["classes", "n_features"]))
                blob[key] = data.draw(ODD_VALUES)
            elif kind == "node" and trees:
                node_list = data.draw(st.sampled_from(trees))[data.draw(st.sampled_from(_TREE_KEYS))]
                node_list[data.draw(st.integers(0, len(node_list) - 1))] = data.draw(ODD_VALUES)
            elif kind == "cycle" and trees:   # a child pointing at itself or an ancestor
                tree = data.draw(st.sampled_from(trees))
                nid = data.draw(st.integers(0, len(tree["left"]) - 1))
                tree[data.draw(st.sampled_from(["left", "right"]))][nid] = \
                    data.draw(st.integers(0, nid))
            elif kind == "all leaf" and trees:
                value = data.draw(st.one_of(st.floats(-1e308, 1e308), ODD_VALUES))
                for tree in trees:
                    tree.update(feature=[-1], threshold=[0.0], left=[0], right=[0],
                                value=[value])
        path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
        path.write_text(json.dumps(blob))
        try:
            model = GbtModel.load(path)
        except DataError as exc:
            assert str(path) in str(exc)
            event("refused")
            return
        event("loaded")
        assert type(model.n_features) is int and model.n_features >= 1
        if model.n_features > 64:   # too wide to evaluate here; loading was the check
            return
        rows = data.draw(st.integers(1, 5))
        scale = data.draw(st.sampled_from([1.0, 1e300]))
        X = Pcg32(rows).normals(rows * model.n_features).reshape(rows, -1) * scale
        proba = model.predict_proba(X)
        assert proba.shape == (rows, len(model.classes))
        assert np.isfinite(proba).all()
