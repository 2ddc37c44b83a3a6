import numpy as np
import pytest

from imbfault.core import FeatureMatrix
from imbfault.errors import ConfigError, DataError
from imbfault.reduction import _fix_signs, lda_fit, lda_transform, pca_fit, pca_transform
from imbfault.rng import Pcg32


def _random(m, d, seed=0, scale=1.0):
    return Pcg32(seed).normals(m * d).reshape(m, d) * scale


def fix_signs_loop_oracle(vectors):
    """Negate, column by column, each column whose first largest-magnitude
    entry is negative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


@pytest.mark.parametrize("vectors", [
    _random(6, 4, seed=13),
    np.asfortranarray(_random(5, 5, seed=14)),
    np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, -0.0], [0.5, 0.0, -2.0]]),   # |v| ties: first wins
    np.empty((3, 0)),
])
def test_fix_signs_matches_column_loop(vectors):
    out, expected = _fix_signs(vectors), fix_signs_loop_oracle(vectors)
    assert out.tobytes() == expected.tobytes() and out.flags.c_contiguous


class TestPca:
    def test_line_explained_by_one_component(self):
        t = np.linspace(-1, 1, 20)
        X = np.column_stack([t, 2 * t])
        model = pca_fit(X, n_components=1)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_isotropic_gaussian_near_equal_ratios(self):
        X = _random(4000, 2, seed=5)
        model = pca_fit(X, n_components=2)
        r = model.explained_variance_ratio
        assert abs(r[0] - r[1]) < 0.1

    def test_variance_target_selects_smallest_r(self):
        # exact sample variances 6 and 2/3 -> ratios 0.9 / 0.1
        X = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert pca_fit(X, variance=0.9).components.shape[1] == 1
        assert pca_fit(X, variance=0.95).components.shape[1] == 2

    def test_transform_of_mean_is_zero(self):
        X = _random(40, 3, seed=2)
        model = pca_fit(X, n_components=2)
        np.testing.assert_allclose(pca_transform(model, X.mean(axis=0)[None, :]), 0.0,
                                   atol=1e-12)

    def test_full_rank_projection_is_isometry(self):
        X = _random(30, 4, seed=3)
        model = pca_fit(X, n_components=4)
        Z = pca_transform(model, X)
        for i in range(0, 30, 7):
            for j in range(0, 30, 5):
                d_orig = np.linalg.norm(X[i] - X[j])
                d_proj = np.linalg.norm(Z[i] - Z[j])
                assert d_proj == pytest.approx(d_orig, abs=1e-9)

    def test_reconstruction_error_non_increasing_in_r(self):
        X = _random(60, 5, seed=4)
        errors = []
        for r in range(1, 6):
            model = pca_fit(X, n_components=r)
            Z = pca_transform(model, X)
            recon = Z @ model.components.T + model.mean
            errors.append(float(np.sum((X - recon) ** 2)))
        assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(4))

    def test_transform_has_uncorrelated_columns(self):
        X = _random(200, 4, seed=6) @ np.array([[1, 0.5, 0, 0], [0, 1, 0.3, 0],
                                                [0, 0, 1, 0.7], [0, 0, 0, 1.0]])
        model = pca_fit(X, n_components=4)
        Z = pca_transform(model, X)
        cov = np.cov(Z, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8 * np.trace(cov)

    def test_rank_clipping_warns(self):
        t = np.linspace(0, 1, 10)
        X = np.column_stack([t, 2 * t, -t])
        with pytest.warns(UserWarning, match="clipping"):
            model = pca_fit(X, n_components=3)
        assert model.components.shape[1] == 1

    def test_orthonormal_components(self):
        X = _random(50, 4, seed=7)
        model = pca_fit(X, n_components=3)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_sign_convention_deterministic(self):
        X = _random(50, 3, seed=8)
        a = pca_fit(X, n_components=3)
        b = pca_fit(X.copy(), n_components=3)
        np.testing.assert_array_equal(a.components, b.components)
        for j in range(3):
            col = a.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_feature_matrix_in_out(self):
        X = _random(20, 3, seed=9)
        fm = FeatureMatrix(X, ["a"] * 20, ("x", "y", "z"))
        model = pca_fit(fm, n_components=2)
        out = pca_transform(model, fm)
        assert isinstance(out, FeatureMatrix)
        assert out.feature_names == ("pc0", "pc1")

    def test_config_errors(self):
        X = _random(10, 2)
        with pytest.raises(ConfigError):
            pca_fit(X)
        with pytest.raises(ConfigError):
            pca_fit(X, n_components=1, variance=0.9)
        with pytest.raises(DataError):
            pca_fit(X[:1], n_components=1)
        model = pca_fit(X, n_components=1)
        with pytest.raises(DataError):
            pca_transform(model, np.ones((2, 3)))


class TestLda:
    def _two_classes(self, sep=6.0, seed=0, n=80):
        rng = Pcg32(seed)
        a = rng.normals(n * 2).reshape(n, 2)
        b = rng.normals(n * 2).reshape(n, 2) + np.array([sep, sep])
        X = np.vstack([a, b])
        y = ["a"] * n + ["b"] * n
        return X, y

    def test_separated_classes_project_apart(self):
        X, y = self._two_classes()
        model = lda_fit(X, y)
        Z = lda_transform(model, X)
        assert Z.shape[1] == 1
        za, zb = Z[:80, 0], Z[80:, 0]
        pooled_std = np.sqrt((za.var() + zb.var()) / 2)
        assert abs(za.mean() - zb.mean()) > 4 * pooled_std

    def test_binary_caps_at_one_dimension(self):
        X, y = self._two_classes()
        with pytest.warns(UserWarning, match="clipping"):
            model = lda_fit(X, y, n_components=5)
        assert model.components.shape[1] == 1

    def test_identical_distributions_zero_eigenvalues(self):
        rng = Pcg32(3)
        X = rng.normals(200).reshape(100, 2)
        y = ["a"] * 50 + ["b"] * 50   # same distribution split arbitrarily
        X = np.vstack([X[:50], X[:50]])
        model = lda_fit(X, y)
        assert abs(model.eigenvalues[0]) < 1e-6

    def test_single_class_errors(self):
        X = _random(10, 2)
        with pytest.raises(DataError):
            lda_fit(X, ["a"] * 10)

    def test_three_classes_two_components(self):
        rng = Pcg32(4)
        X = np.vstack([rng.normals(60).reshape(30, 2) + off
                       for off in ([0, 0], [5, 0], [0, 5])])
        y = ["a"] * 30 + ["b"] * 30 + ["c"] * 30
        model = lda_fit(X, y)
        assert model.components.shape[1] == 2

    def test_feature_matrix_in_out(self):
        X, y = self._two_classes(seed=5)
        fm = FeatureMatrix(X, y, ("x", "y"))
        model = lda_fit(fm)
        out = lda_transform(model, fm)
        assert out.feature_names == ("ld0",)

    def test_fit_ignores_heldout_rows(self):
        X, y = self._two_classes(seed=6)
        model_a = lda_fit(X, y)
        model_b = lda_fit(X.copy(), list(y))
        np.testing.assert_array_equal(model_a.components, model_b.components)
