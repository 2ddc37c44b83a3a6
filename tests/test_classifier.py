import numpy as np
import pytest

from imbfault.classifier import GbtModel, GbtParams, gbt_train, knn_classify
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
        fm3 = _fm([[0.0], [1.0], [2.0]], ["a", "b", "c"])
        with pytest.raises(ConfigError):
            gbt_train(fm3, GbtParams(rounds=1, loss="logistic"))
        with pytest.raises(ConfigError):
            GbtParams(rounds=0)
        with pytest.raises(ConfigError):
            GbtParams(learning_rate=0.0)


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
