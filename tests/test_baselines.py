"""Naive random walk, least-squares AR with order selection, lag features."""

import numpy as np
import pytest

from oilcast.baselines import (
    ArModel,
    ar_fit,
    ar_forecast,
    naive_forecast,
    univariate_lag_features,
)
from oilcast.evaluation import evaluate


def simulate_ar1(phi, n, seed, mean=0.0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * (y[t - 1] - mean) + mean + rng.standard_normal()
    return y


class TestNaive:
    def test_repeats_last_value(self):
        out = naive_forecast([55.0, 56.1, 57.3], 3)
        assert out.tolist() == [57.3, 57.3, 57.3]

    def test_zero_steps_empty(self):
        assert naive_forecast([1.0], 0).size == 0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            naive_forecast([], 2)

    def test_rolling_naive_scores_full_da_on_monotone_actuals(self):
        # One-step naive forecasts equal the previous actual, so every
        # transition product in the direction statistic is exactly zero.
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        yhat = np.empty_like(y)
        yhat[0] = naive_forecast([0.4, 0.9], 1)[0]
        for t in range(1, y.size):
            yhat[t] = naive_forecast(y[:t], 1)[0]
        assert evaluate(y, yhat).da_pct == 100.0


class TestArFit:
    def test_recovers_ar1_coefficient(self):
        for seed in (0, 3):
            y = simulate_ar1(0.8, 300, seed)
            model = ar_fit(y, max_p=6, d=0, criterion="aic")
            assert model.p == 1
            assert abs(model.coef[0] - 0.8) < 0.1

    def test_matches_normal_equations_oracle(self):
        y = simulate_ar1(0.8, 300, 0)
        max_p = 6
        model = ar_fit(y, max_p=max_p, d=0, criterion="aic")
        t = y.size - max_p
        design = np.column_stack(
            [y[max_p - j : max_p - j + t] for j in range(1, model.p + 1)] + [np.ones(t)]
        )
        beta = np.linalg.solve(design.T @ design, design.T @ y[max_p:])
        assert np.allclose(model.coef, beta[: model.p], atol=1e-8)
        assert abs(model.intercept - beta[model.p]) < 1e-8

    def test_selected_order_is_criterion_argmin(self):
        y = simulate_ar1(0.5, 200, 7)
        for criterion in ("aic", "sc"):
            model = ar_fit(y, max_p=5, d=0, criterion=criterion)
            best = min(model.scores.values(), key=lambda s: s[criterion])
            assert model.scores[model.p][criterion] == best[criterion]

    def test_criteria_share_window_and_differ_by_penalty(self):
        y = simulate_ar1(0.5, 120, 11)
        max_p = 4
        model = ar_fit(y, max_p=max_p, d=0)
        t = y.size - max_p
        for p, s in model.scores.items():
            assert s["sc"] - s["aic"] == pytest.approx((np.log(t) - 2.0) * (p + 1))

    def test_white_noise_sc_keeps_coefficients_near_zero(self):
        rng = np.random.default_rng(0)
        y = 50.0 + rng.standard_normal(300)
        model = ar_fit(y, max_p=6, d=0, criterion="sc")
        assert np.max(np.abs(model.coef)) < 0.1
        forecast = ar_forecast(model, y, 3)
        assert np.max(np.abs(forecast - y.mean())) < 0.1

    def test_linear_trend_with_differencing_forecast_exact(self):
        y = 3.0 + 0.7 * np.arange(40)
        model = ar_fit(y, max_p=4, d=1)
        forecast = ar_forecast(model, y, 5)
        expected = 3.0 + 0.7 * np.arange(40, 45)
        assert np.max(np.abs(forecast - expected)) < 1e-8

    def test_underdetermined_orders_skipped(self):
        # 7 observations, max_p 4: the common window has 3 rows, so
        # orders 3 and 4 would have more parameters than equations.
        y = np.random.default_rng(9).standard_normal(7)
        model = ar_fit(y, max_p=4, d=0)
        assert sorted(model.scores) == [1, 2]

    def test_determinism(self):
        y = simulate_ar1(0.6, 150, 4)
        a = ar_fit(y, max_p=5, d=1)
        b = ar_fit(y, max_p=5, d=1)
        assert a.p == b.p and a.intercept == b.intercept
        assert a.coef.tolist() == b.coef.tolist()
        assert a.scores == b.scores

    def test_validation(self):
        y = np.arange(30.0)
        with pytest.raises(ValueError, match="criterion"):
            ar_fit(y, max_p=3, criterion="bic")
        with pytest.raises(ValueError, match="^d must be 0 or 1, got 2$"):
            ar_fit(y, max_p=3, d=2)
        with pytest.raises(ValueError, match="max_p"):
            ar_fit(y, max_p=0)
        with pytest.raises(ValueError, match="at least"):
            ar_fit(np.arange(6.0), max_p=5, d=1)
        with pytest.raises(ValueError, match="non-finite"):
            ar_fit(np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), max_p=2, d=0)


class TestArForecast:
    def test_zero_coefficients_yield_intercept(self):
        model = ArModel(d=0, p=1, intercept=2.5, coef=np.zeros(1), scores={})
        out = ar_forecast(model, [1.0, 9.0], 4)
        assert out.tolist() == [2.5] * 4

    def test_degenerate_difference_model_equals_naive(self):
        model = ArModel(d=1, p=1, intercept=0.0, coef=np.zeros(1), scores={})
        history = np.random.default_rng(2).uniform(40, 90, 24)
        assert ar_forecast(model, history, 6).tolist() == naive_forecast(history, 6).tolist()

    def test_three_step_hand_iteration(self):
        model = ArModel(d=0, p=1, intercept=1.0, coef=np.array([0.6]), scores={})
        out = ar_forecast(model, [0.0, 2.0], 3)
        assert np.allclose(out, [2.2, 2.32, 2.392], atol=1e-12)

    def test_difference_recursion_reintegrates_levels(self):
        model = ArModel(d=1, p=1, intercept=0.0, coef=np.array([0.5]), scores={})
        out = ar_forecast(model, [8.0, 10.0, 12.0], 3)
        # last difference 2 -> next differences 1, 0.5, 0.25
        assert np.allclose(out, [13.0, 13.5, 13.75], atol=1e-12)

    def test_insufficient_history_rejected(self):
        model = ArModel(d=1, p=3, intercept=0.0, coef=np.zeros(3), scores={})
        with pytest.raises(ValueError, match="history"):
            ar_forecast(model, [1.0, 2.0, 3.0], 1)

    def test_negative_steps_rejected(self):
        model = ArModel(d=0, p=1, intercept=0.0, coef=np.zeros(1), scores={})
        with pytest.raises(ValueError, match="steps"):
            ar_forecast(model, [1.0, 2.0], -1)


class TestLagFeatures:
    def test_enumeration(self):
        x, y = univariate_lag_features([1.0, 2.0, 3.0, 4.0], lags=2)
        assert x.tolist() == [[2.0, 1.0], [3.0, 2.0]]
        assert y.tolist() == [3.0, 4.0]

    def test_max_lags_single_pair(self):
        x, y = univariate_lag_features([1.0, 2.0, 3.0, 4.0], lags=3)
        assert x.tolist() == [[3.0, 2.0, 1.0]]
        assert y.tolist() == [4.0]

    def test_pair_count_law(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            lags = int(rng.integers(1, n))
            x, y = univariate_lag_features(rng.standard_normal(n), lags)
            assert x.shape == (n - lags, lags) and y.size == n - lags

    def test_rows_align_with_series(self):
        y_in = np.arange(10.0) ** 2
        x, y = univariate_lag_features(y_in, lags=3)
        for i in range(y.size):
            t = i + 3
            assert y[i] == y_in[t]
            assert x[i].tolist() == [y_in[t - 1], y_in[t - 2], y_in[t - 3]]

    def test_validation(self):
        with pytest.raises(ValueError, match="lags"):
            univariate_lag_features([1.0, 2.0], 0)
        with pytest.raises(ValueError, match="at least"):
            univariate_lag_features([1.0, 2.0], 5)
