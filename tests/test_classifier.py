import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbfault.classifier import (_EPS, _TREE_KEYS, GbtModel, GbtParams, _fit_tree,
                                 _predict_tree, _SplitScan, gbt_train, knn_classify)
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

    def test_loss_validation(self):
        with pytest.raises(ConfigError):
            GbtParams(rounds=0)
        with pytest.raises(ConfigError):
            GbtParams(learning_rate=0.0)


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


def fit_tree_oracle(X, g, h, params):
    """Scalar reference for `_fit_tree`: every node argsorts every feature of
    its own rows and scans them one feature at a time."""
    tree = {key: [] for key in _TREE_KEYS}
    fitted = np.empty(len(X))

    def build(idx, depth):
        nid = len(tree["feature"])
        for key, default in zip(_TREE_KEYS, (-1, 0.0, 0, 0, 0.0)):
            tree[key].append(default)
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        if depth < params.max_depth and len(idx) >= 2 * params.min_leaf:
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
                    best_threshold = float((xs_sorted[p] + xs_sorted[p + 1]) / 2.0)
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

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 3), levels=st.integers(1, 5),
           min_leaf=st.integers(1, 4), max_depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_fitted_matches_predict_tree(self, rows, cols, levels, min_leaf, max_depth, seed):
        rng = Pcg32(seed)
        X = np.floor(rng.uniforms(rows * cols) * levels).reshape(rows, cols)   # ties
        g = rng.normals(rows)
        h = rng.uniforms(rows) + 0.01
        tree, fitted = _fit_tree(_SplitScan(X), g, h,
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
        tree, fitted = _fit_tree(_SplitScan(X), g, h, params)
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
        tree, fitted = _fit_tree(_SplitScan(X), g, h, params)
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
        shared = _SplitScan(X)
        for _ in range(trees):
            g = rng.normals(rows)
            h = rng.uniforms(rows) + 0.01
            params = GbtParams(max_depth=1 + rng.randint(4), min_leaf=1 + rng.randint(4))
            tree, fitted = _fit_tree(shared, g, h, params)
            fresh_tree, fresh_fitted = _fit_tree(_SplitScan(X), g, h, params)
            want_tree, want_fitted = fit_tree_oracle(X, g, h, params)
            assert json.dumps(tree) == json.dumps(fresh_tree) == json.dumps(want_tree)
            assert fitted.tobytes() == fresh_fitted.tobytes() == want_fitted.tobytes()


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
                                     b"[1, 2]", b"3", b"null", b'"imbfault-gbt"'])
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


class TestKnnClassify:
    def test_k1_recalls_training_labels(self):
        fm = _separable_1d(seed=12)
        assert np.array_equal(knn_classify(fm, fm.data, 1), fm.labels)

    def test_k_equals_m_gives_majority(self):
        fm = _fm([[0.0], [1.0], [2.0], [10.0]], ["a", "a", "a", "b"])
        out = knn_classify(fm, [[5.0], [-3.0]], 4)
        assert list(out) == ["a", "a"]

    def test_vs_vote_oracle(self):
        rng = Pcg32(13)
        X = rng.normals(60).reshape(30, 2)
        y = ["a" if i % 3 else "b" for i in range(30)]
        fm = _fm(X, y)
        queries = rng.normals(10).reshape(5, 2)
        got = knn_classify(fm, queries, 5)
        for q, g in zip(queries, got):
            scored = sorted((np.linalg.norm(x - q), i) for i, x in enumerate(X))
            votes = {}
            for _, i in scored[:5]:
                votes[y[i]] = votes.get(y[i], 0) + 1
            best = min(votes, key=lambda c: (-votes[c], c))
            assert g == best

    def test_k_bounds(self):
        fm = _fm([[0.0], [1.0]], ["a", "b"])
        with pytest.raises(DataError):
            knn_classify(fm, [[0.0]], 3)
        with pytest.raises(DataError):
            knn_classify(fm, [[0.0]], 0)
