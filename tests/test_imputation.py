import numpy as np
import pytest

from imbfault.errors import DataError
from imbfault.imputation import GaussianModel, fit_gaussian, impute_conditional
from imbfault.rng import Pcg32
from imbfault.synthgen import gaussian_blobs

from oracles import conditional_oracle, dense_solve_oracle


class TestFitGaussian:
    def test_two_point_formula(self):
        model = fit_gaussian([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(model.mean, [1.0, 1.0])
        np.testing.assert_allclose(model.covariance, [[2.0, 2.0], [2.0, 2.0]])

    def test_repeated_row_gets_positive_ridge(self):
        model = fit_gaussian([[1.0, 2.0]] * 4)
        np.testing.assert_array_equal(model.covariance, np.zeros((2, 2)))
        assert model.ridge > 0
        # conditional solve works despite the zero covariance
        out = impute_conditional(model, [1.0, 0.0], [1])
        assert out[1] == pytest.approx(2.0)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            fit_gaussian([[1.0, 2.0]])

    def test_incomplete_rows_rejected(self):
        with pytest.raises(DataError):
            fit_gaussian([[1.0, np.nan], [2.0, 3.0]])

    def test_monte_carlo_recovery(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        fm = gaussian_blobs([(mean, cov, 10_000, "x")], seed=3)
        model = fit_gaussian(fm.data)
        np.testing.assert_allclose(model.mean, mean, atol=0.05)
        np.testing.assert_allclose(model.covariance, cov, atol=0.1)

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DataError):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 0.0)

    @pytest.mark.parametrize("ridge_scale", [np.nan, np.inf, -1.0])
    def test_ridge_scale_must_be_finite_and_non_negative(self, ridge_scale):
        with pytest.raises(DataError):
            fit_gaussian([[0.0, 1.0], [2.0, 3.0], [1.0, 0.0]], ridge_scale)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(DataError):
            GaussianModel(np.zeros(2), np.eye(2), ridge)

    @pytest.mark.parametrize("mean, cov", [
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
        ([np.inf, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
        ([np.nan, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
    ])
    def test_mean_and_covariance_must_be_finite(self, mean, cov):
        with pytest.raises(DataError):
            GaussianModel(np.array(mean), np.array(cov), 0.0)


class TestImputeConditional:
    def test_independent_coordinates_mean_imputation(self):
        model = GaussianModel(np.zeros(2), np.eye(2), 0.0)
        out = impute_conditional(model, [5.0, 123.0], [1])
        np.testing.assert_array_equal(out, [5.0, 0.0])

    def test_correlated_closed_form(self):
        model = GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 0.0)
        out = impute_conditional(model, [2.0, 0.0], [1])
        np.testing.assert_allclose(out, [2.0, 1.0], atol=1e-12)

    def test_random_5d_vs_dense_solve_oracle(self):
        rng = Pcg32(9)
        for trial in range(25):
            A = rng.normals(25).reshape(5, 5)
            cov = A @ A.T + 0.5 * np.eye(5)
            mean = rng.normals(5)
            model = GaussianModel(mean, cov, ridge=1e-8)
            x = rng.normals(5)
            missing = sorted({rng.randint(5), rng.randint(5)})
            got = impute_conditional(model, x, missing)
            want = dense_solve_oracle(mean, cov, 1e-8, x, missing)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_observed_coordinates_untouched(self):
        rng = Pcg32(2)
        model = fit_gaussian(rng.normals(40).reshape(10, 4))
        x = rng.normals(4)
        out = impute_conditional(model, x, [2])
        for i in (0, 1, 3):
            assert out[i] == x[i]

    def test_model_mean_is_fixed_point(self):
        rng = Pcg32(3)
        model = fit_gaussian(rng.normals(60).reshape(20, 3))
        for missing in ([0], [1, 2], [0, 2]):
            np.testing.assert_allclose(impute_conditional(model, model.mean, missing),
                                       model.mean, atol=1e-9)

    def test_affine_in_observed(self):
        model = GaussianModel(np.zeros(3),
                              np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]),
                              0.0)
        def filled(x_obs):
            return impute_conditional(model, [x_obs[0], x_obs[1], 0.0], [2])[2]
        a = np.array([1.0, 2.0])
        b = np.array([-0.5, 0.7])
        mid = filled((a + b) / 2)
        assert mid == pytest.approx((filled(a) + filled(b)) / 2, abs=1e-12)

    def test_bad_missing_sets(self):
        model = GaussianModel(np.zeros(4), np.eye(4), 0.0)
        row, rows = [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0, 4.0]] * 2
        for x, missing in [
            (row, []),
            (row, [0, 1, 2, 3]),
            (row, [5]),
            (row, [-1]),
            (row, [1, 1]),
            (rows, [[0, 2], [1, 1]]),                  # repeated in a row
            (rows, [[0], [1], [2]]),                   # 3 sets for 2 rows
            (rows, [[0]]),
            (row, [[0], [1]]),
            (rows, [[0], [4]]),
            (rows, [[0, 1, 2, 3], [3, 2, 1, 0]]),      # every attribute
            (rows, np.empty((2, 0), dtype=int)),       # (n, 0)
            (rows, np.zeros((2, 1, 1), dtype=int)),
            (rows, [[0], [1, 2]]),                     # ragged
            (row, None),
            (row, [1.7]),                              # not integers: never truncated
            (row, [True]),
            (rows, np.array([[1.2], [2.9]])),
        ]:
            with pytest.raises(DataError):
                impute_conditional(model, x, missing)


class TestImputeConditionalBatch:
    def _model(self, d, seed):
        rng = Pcg32(seed)
        return fit_gaussian(rng.normals(4 * d * d).reshape(4 * d, d)), rng

    @pytest.mark.parametrize("d", [2, 3, 6, 17])
    def test_batch_equals_row_by_row(self, d):
        model, rng = self._model(d, d)
        rows = rng.normals(25 * d).reshape(25, d) * 3.0
        for missing in ([0], [d - 1], sorted({rng.randint(d), rng.randint(d)})):
            if len(missing) == d:
                continue
            got = impute_conditional(model, rows, missing)
            want = np.array([impute_conditional(model, x, missing) for x in rows])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            observed = np.setdiff1d(np.arange(d), missing)
            assert got[:, observed].tobytes() == rows[:, observed].tobytes()

    def test_empty_and_single_row_batches(self):
        model, rng = self._model(4, 0)
        assert impute_conditional(model, np.empty((0, 4)), [1]).shape == (0, 4)
        assert impute_conditional(model, np.empty((0, 4)),
                                  np.empty((0, 2), dtype=int)).shape == (0, 4)
        x = rng.normals(4)
        np.testing.assert_allclose(impute_conditional(model, x[None, :], [2])[0],
                                   impute_conditional(model, x, [2]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (5, 3), (5,), (4, 5), ()])
    def test_bad_shapes(self, shape):
        model, _ = self._model(4, 1)
        with pytest.raises(DataError):
            impute_conditional(model, np.zeros(shape), [0])


class TestImputeConditionalPerRowSets:
    def test_one_solve_matches_the_solve_per_missing_set(self):
        # 600 Gaussians fit on m > d, m <= d, rank-deficient and 0.1-rounded
        # sets with repeated rows, each imputed with per-row (n, 1), per-row
        # (n, 2) or shared index sets, against one (Sigma_OO + ridge*I)
        # system per missing set. As in emicil and ewmote, the imputed rows
        # are rows of the fitted set. The bound is relative to the set's
        # largest |coordinate|: near-zero cells make per-cell relative error
        # meaningless on the rounded sets.
        rng = Pcg32(22)
        for case in range(600):
            d = 3 + rng.randint(10)
            kind = case % 4
            m = 2 + rng.randint(d - 1) if kind == 1 else d + 1 + rng.randint(2 * d)
            if kind == 2:
                r = 1 + rng.randint(d - 1)
                points = rng.normals(m * r).reshape(m, r) @ rng.normals(r * d).reshape(r, d)
            else:
                points = rng.normals(m * d).reshape(m, d)
            points = points * 10.0 ** (rng.randint(7) - 3) + rng.normals(d)
            if kind == 3:
                points = np.round(points, 1)
                points = np.vstack([points, points[: 1 + rng.randint(m)]])
            model = fit_gaussian(points)
            n = 6
            x = points[[rng.randint(len(points)) for _ in range(n)]]
            if case % 3 == 0:
                missing = np.array([[rng.randint(d)] for _ in range(n)])
            elif case % 3 == 1:
                firsts = [rng.randint(d) for _ in range(n)]
                missing = np.array([[a, (a + 1 + rng.randint(d - 1)) % d] for a in firsts])
            else:
                missing = np.array(sorted({rng.randint(d), rng.randint(d)}))
            got = impute_conditional(model, x, missing)
            bound = 1e-9 * np.abs(points).max()
            for t in range(n):
                miss = np.unique(missing[t] if missing.ndim == 2 else missing)
                obs = np.setdiff1d(np.arange(d), miss)
                want = conditional_oracle(model, x[t], miss, obs)
                assert np.max(np.abs(got[t, miss] - want)) <= bound, (case, t)
                assert got[t, obs].tobytes() == x[t, obs].tobytes()
