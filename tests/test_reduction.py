import warnings

import numpy as np
import pytest

from imbfault.core import FeatureMatrix
from imbfault.errors import ConfigError, DataError
from imbfault.reduction import (Projection, _fix_signs, lda_fit, lda_transform, pca_fit,
                                pca_transform)
from imbfault.rng import Pcg32

from oracles import lda_oracle


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
        assert model.spectrum[0] == pytest.approx(1.0)

    def test_isotropic_gaussian_near_equal_ratios(self):
        X = _random(4000, 2, seed=5)
        model = pca_fit(X, n_components=2)
        r = model.spectrum
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

    def test_zero_input_columns_refused_zero_components_allowed(self):
        with pytest.raises(DataError, match="1 column, got 5 x 0"):
            pca_fit(np.zeros((5, 0)), 1)
        model = pca_fit(np.ones((5, 3)), variance=0.9)     # constant data: rank 0
        assert model.components.shape == (3, 0) and model.spectrum.shape == (0,)
        assert pca_transform(model, np.ones((2, 3))).shape == (2, 0)


class TestProjection:
    def _labeled(self):
        rng = Pcg32(21)
        X = np.vstack([rng.normals(60).reshape(20, 3) + off for off in ([0, 0, 0], [4, 1, 0])])
        return FeatureMatrix(X, ["a"] * 20 + ["b"] * 20, ("x", "y", "z"))

    @pytest.mark.parametrize("fit, prefix", [
        (lambda fm: pca_fit(fm, n_components=2), "pc"),
        (lambda fm: lda_fit(fm), "ld"),
    ])
    def test_both_fits_return_a_projection(self, fit, prefix):
        fm = self._labeled()
        model = fit(fm)
        assert type(model) is Projection and model.name_prefix == prefix
        assert model.spectrum.shape == (model.components.shape[1],)
        out = model.transform(fm)
        assert out.feature_names == tuple(f"{prefix}{i}" for i in range(out.n_features))
        assert list(out.labels) == list(fm.labels)
        with pytest.raises(AttributeError):
            model.name_prefix = "x"

    def test_one_transform_under_every_name(self):
        fm = self._labeled()
        model = pca_fit(fm, n_components=2)
        outs = [f(model, fm) for f in (pca_transform, lda_transform, Projection.transform)]
        outs.append(model.transform(fm))
        assert len({o.data.tobytes() for o in outs}) == 1
        assert len({o.feature_names for o in outs}) == 1
        arrays = [f(model, fm.data) for f in (pca_transform, lda_transform)]
        assert all(a.tobytes() == outs[0].data.tobytes() for a in arrays)


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
        assert abs(model.spectrum[0]) < 1e-6

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


@pytest.mark.parametrize("exp", [660, -660])
def test_extreme_magnitudes_scale_exactly(exp):
    # PCA's covariance and LDA's scatters overflow at 2**660 and underflow at
    # 2**-660. Both fit on rows scaled by a power of two, so PCA's transform
    # is the unscaled one times 2**exp and LDA's is bit-equal to it.
    rng = Pcg32(9)
    X = np.vstack([rng.normals(60).reshape(20, 3) + off
                   for off in ([0, 0, 0], [3, 0, 0], [0, 3, 1])])
    y = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
    big = np.ldexp(X, exp)
    pca, lda = pca_fit(X, n_components=2), lda_fit(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pca_big, lda_big = pca_fit(big, n_components=2), lda_fit(big, y)
        pca_out, lda_out = pca_big.transform(big), lda_big.transform(big)
    assert pca_out.tobytes() == np.ldexp(pca.transform(X), exp).tobytes()
    assert pca_big.spectrum.tobytes() == pca.spectrum.tobytes()
    assert lda_big.components.tobytes() == np.ldexp(lda.components, -exp).tobytes()
    assert lda_out.tobytes() == lda.transform(X).tobytes()
    assert lda_big.spectrum.tobytes() == lda.spectrum.tobytes()


def test_lda_transform_near_the_float_limit_stays_finite():
    # X - mean overflows here; the transform subtracts on scaled rows and
    # scales the product back. (PCA's first score of these rows is itself
    # past the float range, so only LDA's can be finite.)
    X = np.array([[1.5e308, 1.0], [-1.5e308, 2.0], [1e308, 0.5], [1.2e308, 0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = lda_fit(X, ["a", "a", "b", "b"]).transform(X)
    assert scores.shape == (4, 1) and np.all(np.isfinite(scores))


def _lda_problem(kind, seed):
    """(X, labels) of one random LDA problem with 2-5 classes and d in 1..29.

    random    1-40 rows a class around class means of random spread;
    rounded   the same, rounded to 0.1, so rows and means tie;
    few_rows  each class has fewer rows than features (d >= 2), so S_w is
              often rank-deficient;
    tied      classes at s * e_k with the same isotropic cloud, so the
              C - 1 discriminant eigenvalues are equal."""
    rng = Pcg32(seed)
    n_classes = 2 + rng.randint(4)
    if kind == "tied":
        d = n_classes + rng.randint(8)
        cloud = np.vstack([np.eye(d), -np.eye(d)]) * (0.5 + rng.random())
        blocks = [cloud + 3.0 * np.eye(d)[k] for k in range(n_classes)]
    else:
        d = 2 + rng.randint(28) if kind == "few_rows" else 1 + rng.randint(29)
        most = d - 1 if kind == "few_rows" else 40
        spread = 10.0 ** (rng.random() * 4 - 2)
        blocks = []
        for _ in range(n_classes):
            n = 1 + rng.randint(most)
            center = rng.normals(d, sigma=spread)
            blocks.append(rng.normals(n * d).reshape(n, d) * (0.2 + rng.random()) + center)
    X = np.vstack(blocks)
    if kind == "rounded":
        X = np.round(X, 1)
    labels = [f"c{k}" for k, block in enumerate(blocks) for _ in block]
    return X, labels


def _lda_vs_oracle(X, labels, tie=1e-6):
    """The largest relative differences of lda_fit's eigenvalues and
    components from lda_oracle's. Eigenvalues whose gap is below `tie`
    times the largest are one block, whose kept span is compared through
    the projector V V^T; each other component is compared up to sign."""
    model = lda_fit(X, labels)
    values, vectors = lda_oracle(X, labels)
    r = model.components.shape[1]
    scale = max(np.abs(values).max(), np.finfo(float).tiny)
    eig_diff = np.abs(model.spectrum - values[:r]).max() / scale
    comp_diff = 0.0
    cuts = [0, *[j + 1 for j in range(len(values) - 1)
                 if values[j] - values[j + 1] > tie * scale], len(values)]
    for lo, hi in zip(cuts, cuts[1:]):
        if lo >= r:
            break
        assert hi <= r, "a tie across the cap leaves no unique kept span"
        got, want = model.components[:, lo:hi], vectors[:, lo:hi]
        if hi - lo == 1:
            got = got * np.sign(got[:, 0] @ want[:, 0])
        else:
            got, want = got @ got.T, want @ want.T
        comp_diff = max(comp_diff, np.abs(got - want).max() / np.abs(want).max())
    return eig_diff, comp_diff


@pytest.mark.parametrize("kind, count", [
    ("random", 200), ("rounded", 150), ("few_rows", 150), ("tied", 100)])
def test_lda_matches_scipy_generalized_eigh(kind, count):
    """Cholesky whitening gives scipy.linalg.eigh(a, b)'s eigenpairs to 1e-9."""
    for seed in range(count):
        X, labels = _lda_problem(kind, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig_diff, comp_diff = _lda_vs_oracle(X, labels)
        assert eig_diff <= 1e-9 and comp_diff <= 1e-9, (kind, seed, eig_diff, comp_diff)
