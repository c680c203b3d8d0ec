"""Metric arithmetic, improvement rates, report serialization."""

import numpy as np
import pytest

from oilcast.evaluation import EvalReport, evaluate, format_report, improvement_rate, parse_report


def reference_da(y, yhat):
    """Independent re-statement of the directional-accuracy convention."""
    hits = 0
    for t in range(len(y) - 1):
        actual_move = np.sign(y[t + 1] - y[t])
        forecast_move = np.sign(yhat[t + 1] - y[t])
        hits += 1 if actual_move * forecast_move >= 0 else 0
    return 100.0 * hits / (len(y) - 1)


class TestPointMetrics:
    def test_perfect_forecast_zeroes_all_error_metrics(self):
        y = np.array([70.0, 71.5, 69.8, 72.0])
        report = evaluate(y, y)
        assert report.mape_pct == 0.0
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert report.da_pct == 100.0

    def test_mape_hand_values(self):
        assert evaluate([100.0, 100.0], [90.0, 110.0]).mape_pct == pytest.approx(10.0)
        assert evaluate([50.0, 50.0], [75.0, 75.0]).mape_pct == pytest.approx(50.0)

    def test_mape_rejects_zero_actual(self):
        with pytest.raises(ValueError, match="index 1.*undefined"):
            evaluate([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])

    def test_rmse_hand_values(self):
        # errors 3 and 4 (a report needs non-zero actuals, for MAPE)
        assert evaluate([10.0, 10.0], [13.0, 14.0]).rmse == pytest.approx(np.sqrt(12.5))
        assert evaluate([5.0, 5.0], [3.0, 3.0]).rmse == pytest.approx(2.0)

    def test_mae_hand_values_and_homogeneity(self):
        assert evaluate([1.0, 3.0], [2.0, 1.0]).mae == pytest.approx(1.5)
        rng = np.random.default_rng(0)
        y, yhat = rng.standard_normal(10), rng.standard_normal(10)
        assert evaluate(3.0 * y, 3.0 * yhat).mae == pytest.approx(3.0 * evaluate(y, yhat).mae)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            evaluate([1.0, 2.0], [1.0])


class TestDirectionalAccuracy:
    def test_twelve_points_with_eight_agreeing_transitions(self):
        # Strictly increasing actuals; the forecast lands above the
        # previous actual on exactly 8 of the 11 transitions.
        y = np.arange(10.0, 22.0)
        yhat = y.copy()
        for t in (3, 6, 9):  # transitions t -> t+1 forced wrong
            yhat[t + 1] = y[t] - 0.5
        hits = [d for _, _, _, d in evaluate(y, yhat).points if d is not None]
        assert sum(hits) == 8 and len(hits) == 11
        assert evaluate(y, yhat).da_pct == pytest.approx(72.73, abs=0.01)

    def test_tie_counts_as_correct(self):
        # Forecast stuck at y(1): the single transition's product is 0.
        assert evaluate([1.0, 2.0], [1.0, 1.0]).da_pct == 100.0

    def test_matches_independent_sign_implementation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.standard_normal(12) + 5.0
            yhat = rng.standard_normal(12) + 5.0
            assert evaluate(y, yhat).da_pct == pytest.approx(reference_da(y, yhat))

    def test_depends_only_on_move_signs(self):
        y = np.array([10.0, 11.0, 10.5, 12.0])
        yhat = np.array([10.2, 10.8, 11.0, 11.5])
        # Stretch each forecast away from the previous actual without
        # crossing it: every (yhat(t+1) - y(t)) keeps its sign.
        stretched = yhat.copy()
        stretched[1:] = y[:-1] + 3.0 * (yhat[1:] - y[:-1])
        assert evaluate(y, stretched).da_pct == evaluate(y, yhat).da_pct

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            evaluate([1.0], [1.0])


class TestImprovementRate:
    @staticmethod
    def report(mape_pct, rmse_val=1.0, da_pct=50.0):
        return EvalReport(
            label="r", n=12, mape_pct=mape_pct, rmse=rmse_val, mae=1.0, da_pct=da_pct
        )

    def test_self_comparison_is_zero(self):
        r = self.report(5.0)
        ir = improvement_rate(r, r)
        assert ir.ir_mape_pct == 0.0 and ir.ir_rmse_pct == 0.0 and ir.ir_da_pct == 0.0

    def test_known_mape_pair_arithmetic(self):
        ir = improvement_rate(self.report(5.44), self.report(8.09))
        assert ir.ir_mape_pct == pytest.approx(32.76, abs=0.01)

    def test_da_arithmetic_keeps_positive_sign_for_gains(self):
        ir = improvement_rate(self.report(5.0, da_pct=90.91), self.report(5.0, da_pct=72.73))
        assert ir.ir_da_pct == pytest.approx(25.0, abs=0.01)

    def test_sign_flips_when_swapped(self):
        a, b = self.report(4.0), self.report(8.0)
        assert improvement_rate(a, b).ir_mape_pct > 0
        assert improvement_rate(b, a).ir_mape_pct < 0

    def test_zero_reference_rejected_by_metric_name(self):
        with pytest.raises(ValueError, match="RMSE"):
            improvement_rate(self.report(5.0), self.report(5.0, rmse_val=0.0))


class TestReportSerialization:
    def test_roundtrip_preserves_metrics_exactly(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(50.0, 80.0, 12)
        yhat = y + rng.standard_normal(12)
        report = evaluate(y, yhat, label="demo_H", config_echo="k=3 seed=0")
        back = parse_report(format_report(report))
        assert back == report

    def test_evaluate_builds_consistent_points(self):
        y = np.array([10.0, 11.0, 10.5])
        yhat = np.array([10.1, 10.9, 11.0])
        report = evaluate(y, yhat, label="x")
        assert report.n == 3
        assert [p[0] for p in report.points] == [1, 2, 3]
        assert report.points[-1][3] is None
        assert sum(p[3] for p in report.points[:-1]) == pytest.approx(
            report.da_pct / 100.0 * (report.n - 1)
        )

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            parse_report("label = x\nn = 3\n")

