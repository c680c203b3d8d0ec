"""ELM and KELM regression contracts and oracles."""

import numpy as np
import pytest

from oilcast import regressors
from oilcast.kpca import GaussianKernel, LinearKernel, _gram
from oilcast.regressors import (ElmModel, _ridge_dual, elm_fit, elm_predict, kelm_fit, kelm_predict,
                                regressor_fit)


def smooth_1d_problem(seed, n=20):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, n))[:, None]
    return x, np.sin(x[:, 0])


def ridge_beta(h, y, c):
    """The ELM's output weights ``H' a`` for hidden features ``h``, ``a`` the
    ridge dual of its linear Gram, as ``elm_fit`` forms them."""
    alpha, _ = _ridge_dual(h, y, c, LinearKernel())
    return h.T @ alpha


def spy_on_solver(monkeypatch):
    """Copies of every matrix handed to the Cholesky solver."""
    seen = []
    real = regressors._solve_spd

    def spy(a, b):
        seen.append(a.copy())
        return real(a, b)

    monkeypatch.setattr(regressors, "_solve_spd", spy)
    return seen


class TestRidgeDual:
    def test_identity_design_hand_values(self):
        # H = I, C = 1: beta = (I + I)^-1 y = y / 2.
        beta = ridge_beta(np.eye(2), np.array([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(beta, [0.5, 1.0], atol=1e-12)

    def test_satisfies_primal_normal_equations(self):
        # The dual form equals the primal ridge solution:
        # (H'H + I/C) beta = H'y
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.standard_normal((30, 6))
            y = rng.standard_normal(30)
            c = float(rng.uniform(0.5, 50.0))
            beta = ridge_beta(h, y, c)
            lhs = (h.T @ h + np.eye(6) / c) @ beta
            np.testing.assert_allclose(lhs, h.T @ y, atol=1e-8)

    def test_large_c_approaches_min_norm_least_squares(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        beta = ridge_beta(h, y, 1e12)
        np.testing.assert_allclose(beta, np.linalg.pinv(h) @ y, atol=1e-6)

    @pytest.mark.parametrize("rows", [167, 155, 1187, 20])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_ridge_gram_is_exactly_symmetric(self, rows, layout, monkeypatch):
        # the ELM's H H' + I/C goes to the solver unscanned for symmetry: a
        # rank-k update of a contiguous H is exactly symmetric, so a strided H
        # is made contiguous first
        rng = np.random.default_rng(rows)
        h = 1.0 / (1.0 + np.exp(-rng.standard_normal((rows, 200))))
        if layout == "strided":
            h = h[:, ::2]
        seen = spy_on_solver(monkeypatch)
        ridge_beta(h, rng.standard_normal(rows), 100.0)
        assert np.array_equal(seen[0], seen[0].T)

    def test_elm_fit_solves_the_dual_of_its_hidden_features(self, monkeypatch):
        # one solve, of order N: beta is H' a of the dual, bit for bit
        x, y = smooth_1d_problem(4)
        seen = spy_on_solver(monkeypatch)
        model = elm_fit(x, y, n_hidden=30, c=50.0, seed=3)
        assert [a.shape for a in seen] == [(20, 20)]
        hidden = regressors._hidden_layer(x, model.weights, model.biases)
        assert np.array_equal(model.beta, ridge_beta(hidden, y, 50.0))

    def test_rejects_bad_c_and_shape_mismatch(self):
        # the solver takes what it is given; elm_fit checks C and the rows
        for c in (0.0, -3.0, 1e-310):  # 1/C of the last overflows
            with pytest.raises(ValueError, match="^c must be positive, with 1/c finite, got "):
                elm_fit(np.eye(2), [1.0, 2.0], c=c)
        with pytest.raises(ValueError, match="rows"):
            elm_fit(np.eye(2), [1.0, 2.0, 3.0], c=1.0)


class TestElm:
    def test_zero_targets_give_zero_beta_and_predictions(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        model = elm_fit(x, np.zeros(10), n_hidden=20, c=10.0, seed=1)
        np.testing.assert_array_equal(model.beta, np.zeros(20))
        np.testing.assert_array_equal(elm_predict(model, x), np.zeros(10))

    def test_interpolates_smooth_target_when_overparameterized(self):
        for seed in range(10):
            x, y = smooth_1d_problem(seed)
            model = elm_fit(x, y, n_hidden=50, c=1e6, seed=seed)
            err = np.max(np.abs(elm_predict(model, x) - y))
            assert err < 1e-3, f"seed {seed}: training error {err:.2e}"

    def test_deterministic_given_seed(self):
        x, y = smooth_1d_problem(3)
        a = elm_fit(x, y, n_hidden=30, c=50.0, seed=7)
        b = elm_fit(x, y, n_hidden=30, c=50.0, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_different_seeds_differ(self):
        x, y = smooth_1d_problem(3)
        a = elm_fit(x, y, n_hidden=30, c=50.0, seed=0)
        b = elm_fit(x, y, n_hidden=30, c=50.0, seed=1)
        assert not np.array_equal(a.weights, b.weights)

    def test_random_layer_drawn_from_unit_interval(self):
        x, y = smooth_1d_problem(0)
        model = elm_fit(x, y, n_hidden=500, c=1.0, seed=2)
        assert np.all(np.abs(model.weights) <= 1.0)
        assert np.all(np.abs(model.biases) <= 1.0)

    def test_prediction_is_continuous_in_x(self):
        x, y = smooth_1d_problem(5)
        model = elm_fit(x, y, n_hidden=50, c=1e6, seed=5)
        base = elm_predict(model, x[4:5])
        nudged = elm_predict(model, x[4:5] + 1e-9)
        assert abs(nudged[0] - base[0]) < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_hidden_inputs_that_sum_to_nan_raise(self):
        # weights of opposite infinities make x w' NaN whatever the summation order
        model = ElmModel(weights=np.array([[np.inf, -np.inf]]), biases=np.zeros(1),
                         beta=np.ones(1))
        with pytest.raises(ValueError, match="^inputs too large: hidden-layer inputs overflow$"):
            elm_predict(model, np.ones((1, 2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("seed", range(8))
    def test_a_fit_on_huge_finite_rows_is_rejected_or_finite(self, seed):
        # x w' of this row may sum an inf and a -inf, depending on the weights
        # and the BLAS summation order; the Cholesky factor of a NaN system
        # need not report it
        try:
            model = elm_fit(np.full((1, 4), 1.7e308), np.ones(1), n_hidden=5, seed=seed)
        except ValueError as err:
            assert str(err) == "inputs too large: hidden-layer inputs overflow"
        else:
            assert np.all(np.isfinite(model.beta))

    def test_validation_errors(self):
        x, y = smooth_1d_problem(0)
        with pytest.raises(ValueError, match="positive"):
            elm_fit(x, y, n_hidden=10, c=0.0)
        with pytest.raises(ValueError, match="^n_hidden must be >= 1, got 0$"):
            elm_fit(x, y, n_hidden=0, c=1.0)
        model = elm_fit(x, y, n_hidden=10, c=1.0, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            elm_predict(model, np.ones((1, 3)))
        with pytest.raises(ValueError, match="2-D"):
            elm_predict(model, np.ones(1))


class TestKelm:
    def test_single_sample_hand_arithmetic(self):
        # A = y / (1/C + 1); prediction at the training point is A
        model = kelm_fit(np.array([[2.0]]), np.array([5.0]), c=1e8, kernel=GaussianKernel(1.0))
        np.testing.assert_allclose(model.alpha, [5.0 / (1e-8 + 1.0)])
        assert kelm_predict(model, np.array([[2.0]]))[0] == pytest.approx(5.0, abs=1e-6)

    def test_constant_target_is_reproduced(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3))
        y = np.full(12, 4.0)
        model = kelm_fit(x, y, c=1e8)
        np.testing.assert_allclose(kelm_predict(model, x), y, atol=1e-4)

    def test_huge_sigma_predicts_mean_behavior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        y = np.full(10, 3.0)
        model = kelm_fit(x, y, c=1e6, kernel=GaussianKernel(1e6))
        pred = kelm_predict(model, rng.standard_normal((4, 2)))
        np.testing.assert_allclose(pred, np.full(4, 3.0), atol=1e-3)

    def test_linear_kernel_matches_ridge_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((50, 5))
            y = rng.standard_normal(50)
            x_test = rng.standard_normal((20, 5))
            model = kelm_fit(x, y, c=1e8, kernel=LinearKernel())
            beta = np.linalg.solve(x.T @ x + np.eye(5) / 1e8, x.T @ y)
            np.testing.assert_allclose(kelm_predict(model, x_test), x_test @ beta, atol=1e-4)

    def test_dual_system_residual(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        c = 50.0
        model = kelm_fit(x, y, c=c, kernel=GaussianKernel(1.2))
        omega, _ = _gram(x, model.kernel)
        resid = (omega + np.eye(20) / c) @ model.alpha - y
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_training_mse_non_increasing_in_c(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal(25)
        mses = []
        for c in (0.1, 1.0, 10.0, 100.0, 1000.0):
            model = kelm_fit(x, y, c=c, kernel=GaussianKernel(1.0))
            mses.append(float(np.mean((kelm_predict(model, x) - y) ** 2)))
        assert all(mses[i + 1] <= mses[i] + 1e-12 for i in range(len(mses) - 1))

    def test_far_point_predicts_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 2))
        y = rng.uniform(1.0, 2.0, 10)
        model = kelm_fit(x, y, c=100.0, kernel=GaussianKernel(1.0))
        pred = kelm_predict(model, np.array([[1e4, 1e4]]))[0]
        assert abs(pred) < 1e-8

    def test_gaussian_kernel_used_by_default_with_explicit_sigma(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        model = regressor_fit("kelm", x, y, c=10.0, sigma=2.5)
        assert isinstance(model.kernel, GaussianKernel)
        assert model.kernel.sigma == 2.5

    def test_validation_errors(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        with pytest.raises(ValueError, match="positive"):
            kelm_fit(x, y, c=-1.0)
        with pytest.raises(ValueError, match="positive"):
            kelm_fit(x, y, c=1.0, kernel=GaussianKernel(0.0))
        with pytest.raises(ValueError, match="rows"):
            kelm_fit(x, y[:3], c=1.0)
        model = kelm_fit(x, y, c=1.0, kernel=GaussianKernel(1.0))
        with pytest.raises(ValueError, match="dimension"):
            kelm_predict(model, np.ones((1, 5)))
        with pytest.raises(ValueError, match="2-D"):
            kelm_predict(model, np.ones(2))
