"""Variable filtering and hybrid pipeline tests.

The planted-structure cases lean on the synthetic generator: its factors are
the ground truth that cluster components and filter decisions are checked
against.
"""

import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oilcast import pipeline
from oilcast.clustering import kmeans_fit
from oilcast.kpca import kpca_fit, kpca_transform
from oilcast.numerics import one_blas_thread
from oilcast.panel import (
    FeaturePanel,
    month_range,
    normalize_fit,
    train_test_split,
)
from oilcast.pipeline import (
    CONCURRENT_MIN_ROWS,
    MAX_FIT_WORKERS,
    GrangerResult,
    PipelineConfig,
    PipelineModel,
    PipelineStageError,
    granger_filter,
    pipeline_fit,
    pipeline_predict,
)
from oilcast.regressors import kelm_fit, kelm_predict
from oilcast.synth import SynthSpec, synth_generate


def make_panel(columns, tags, start="2004-01"):
    n = len(next(iter(columns.values())))
    return FeaturePanel(
        dates=month_range(start, n),
        columns={k: np.asarray(v, dtype=float) for k, v in columns.items()},
        tags=tags,
    )


class TestGrangerFilter:
    def test_planted_driver_retained(self):
        rng = np.random.default_rng(0)
        t = 150
        x = rng.standard_normal(t).cumsum()
        y = np.empty(t)
        y[0] = 0.0
        for i in range(1, t):
            y[i] = 0.6 * y[i - 1] + 0.8 * x[i - 1] + 0.3 * rng.standard_normal()
        panel = make_panel(
            {"driver": x, "price": y}, {"driver": "economic", "price": "target"}
        )
        result = granger_filter(panel, ["driver"], max_lag=3)
        assert result.retained == ["driver"]
        assert result.pvalues["driver"] < 0.01

    def test_noise_candidates_rarely_retained(self):
        rng = np.random.default_rng(1)
        kept = 0
        trials = 200
        for _ in range(trials):
            y = rng.standard_normal(150)
            x = rng.standard_normal(150)
            panel = make_panel(
                {"noise": x, "price": y}, {"noise": "economic", "price": "target"}
            )
            result = granger_filter(panel, ["noise"], max_lag=3, p_threshold=0.1)
            kept += len(result.retained)
        assert kept <= 0.15 * trials

    def test_exact_copy_scores_zero(self):
        # a candidate equal to the target adds nothing beyond the target's own
        # lags; the nested fits coincide and F collapses to exactly zero
        rng = np.random.default_rng(2)
        y = rng.standard_normal(80).cumsum()
        panel = make_panel(
            {"copy": y.copy(), "price": y}, {"copy": "gsvi", "price": "target"}
        )
        result = granger_filter(panel, ["copy"], max_lag=2)
        assert result.fstats["copy"] < 1e-10
        assert result.pvalues["copy"] > 0.999
        assert result.retained == []
        assert result.inconclusive == []

    def test_candidate_within_the_rank_tolerance_of_the_target_scores_zero(self):
        # noise at 1e-10 of the target's scale leaves the projected lags no
        # singular value above _RANK_RTOL times their norm, so the candidate
        # has no direction left and its F is exactly zero
        rng = np.random.default_rng(11)
        y = rng.standard_normal(120).cumsum()
        x = y + 1e-10 * np.std(y) * rng.standard_normal(120)
        panel = make_panel({"x": x, "price": y}, {"x": "gsvi", "price": "target"})
        result = granger_filter(panel, ["x"], max_lag=2)
        assert result.fstats["x"] == 0.0
        assert result.pvalues["x"] == 1.0
        assert result.retained == result.inconclusive == []

    def test_rank_deficient_screens_need_no_lstsq(self):
        # one least-squares path: a rank-deficient target or candidate takes its
        # basis from the SVD of R, so lstsq is never called; the reference is
        # computed with lstsq before it is patched out
        rng = np.random.default_rng(7)
        y = 50.0 + rng.standard_normal(90).cumsum()
        x = rng.standard_normal(90).cumsum()
        columns = {"x": x, "duplicate": x.copy(), "copy": y.copy(),
                   "constant": np.full(90, 3.0), "shift": np.concatenate([[0.0], y[:-1]])}
        panel = make_panel({**columns, "price": y},
                           {**dict.fromkeys(columns, "gsvi"), "price": "target"})
        flat = make_panel({"x": x, "price": np.full(90, 5.0)},
                          {"x": "economic", "price": "target"})
        expected, _ = per_candidate_screen(panel, list(columns), 2, 0.1)
        with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("lstsq called")):
            result = granger_filter(panel, list(columns), max_lag=2)
            with pytest.warns(UserWarning, match="both fits are exact"):
                constant_target = granger_filter(flat, ["x"], max_lag=2)
        assert constant_target.inconclusive == ["x"]
        assert result.inconclusive == []
        assert result.fstats["duplicate"] == result.fstats["x"]
        assert result.fstats["copy"] == result.fstats["constant"] == 0.0
        assert 0.0 < result.fstats["shift"] < np.inf
        scale = (90 - 3 * 2 - 1) / 2
        for name, want in expected.fstats.items():
            assert abs(result.fstats[name] - want) <= 1e-12 * (want + scale), name

    def test_constant_target_inconclusive(self):
        rng = np.random.default_rng(3)
        panel = make_panel(
            {"x": rng.standard_normal(60), "price": np.full(60, 5.0)},
            {"x": "economic", "price": "target"},
        )
        with pytest.warns(UserWarning, match="exact"):
            result = granger_filter(panel, ["x"], max_lag=2)
        assert result.inconclusive == ["x"]
        assert result.retained == []
        assert "x" not in result.pvalues

    def test_perfect_driver_infinite_f(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100)
        y = np.empty(100)
        y[0] = 0.0
        y[1:] = x[:-1]
        panel = make_panel(
            {"x": x, "price": y}, {"x": "economic", "price": "target"}
        )
        result = granger_filter(panel, ["x"], max_lag=1)
        assert result.fstats["x"] == np.inf
        assert result.pvalues["x"] == 0.0
        assert result.retained == ["x"]

    def test_candidate_order_preserved(self):
        rng = np.random.default_rng(5)
        t = 150
        a = rng.standard_normal(t)
        b = rng.standard_normal(t)
        y = np.empty(t)
        y[0] = 0.0
        y[1:] = 0.9 * a[:-1] - 0.7 * b[:-1] + 0.1 * rng.standard_normal(t - 1)
        panel = make_panel(
            {"b": b, "a": a, "price": y},
            {"a": "economic", "b": "gsvi", "price": "target"},
        )
        result = granger_filter(panel, ["b", "a"], max_lag=2)
        assert result.retained == ["b", "a"]
        assert set(result.pvalues) == {"a", "b"}
        assert set(result.fstats) == {"a", "b"}

    def test_validation_errors(self):
        rng = np.random.default_rng(6)
        panel = make_panel(
            {"x": rng.standard_normal(50), "price": rng.standard_normal(50)},
            {"x": "economic", "price": "target"},
        )
        with pytest.raises(ValueError, match="max_lag"):
            granger_filter(panel, ["x"], max_lag=0)
        with pytest.raises(ValueError, match="p_threshold"):
            granger_filter(panel, ["x"], max_lag=2, p_threshold=1.0)
        with pytest.raises(ValueError, match="unknown candidate"):
            granger_filter(panel, ["ghost"], max_lag=2)
        with pytest.raises(ValueError, match="own candidate"):
            granger_filter(panel, ["price"], max_lag=2)
        no_target = make_panel(
            {"x": rng.standard_normal(50)}, {"x": "economic"}
        )
        with pytest.raises(ValueError, match="target"):
            granger_filter(no_target, ["x"], max_lag=2)

    def test_pvalues_match_the_f_distribution_tail(self):
        rng = np.random.default_rng(8)
        t, max_lag = 90, 3
        x = rng.standard_normal(t)
        y = np.empty(t)
        y[0] = 0.0
        y[1:] = x[:-1]  # "x" fits the target exactly: F = inf
        columns = {f"n{i}": rng.standard_normal(t).cumsum() for i in range(12)}
        columns.update(x=x, price=y)
        panel = make_panel(columns, {**dict.fromkeys(columns, "economic"), "price": "target"})
        candidates = [name for name in columns if name != "price"]
        result = granger_filter(panel, candidates, max_lag=max_lag, p_threshold=0.3)
        dof2 = t - max_lag - 2 * max_lag - 1
        assert list(result.pvalues) == candidates
        assert result.fstats["x"] == np.inf and result.pvalues["x"] == 0.0
        tails = {name: float(scipy.stats.f.sf(result.fstats[name], max_lag, dof2))
                 for name in candidates}
        for name in candidates:
            assert abs(result.pvalues[name] - tails[name]) <= 1e-12
        assert result.retained == [n for n in candidates if tails[n] <= 0.3]
        assert 1 < len(result.retained) < len(candidates)

    @pytest.mark.parametrize("column, row", [("b", 40), ("price", 7), ("a", 0)])
    def test_non_finite_value_named_before_any_solve(self, column, row, capfd):
        rng = np.random.default_rng(9)
        columns = {name: rng.standard_normal(60) for name in ("a", "b", "price")}
        columns[column][row] = np.nan
        columns["b"][50] = np.inf  # a later row does not win
        panel = make_panel(columns, {"a": "economic", "b": "gsvi", "price": "target"})
        with pytest.raises(ValueError) as raised:
            granger_filter(panel, ["a", "b"], max_lag=2)
        assert str(raised.value) == f"column {column!r} is not finite at {panel.dates[row]}"
        assert capfd.readouterr() == ("", "")  # no LAPACK complaint reaches stderr

    def test_too_few_rows_for_dof(self):
        rng = np.random.default_rng(7)
        panel = make_panel(
            {"x": rng.standard_normal(8), "price": rng.standard_normal(8)},
            {"x": "economic", "price": "target"},
        )
        with pytest.raises(ValueError, match="degrees of freedom"):
            granger_filter(panel, ["x"], max_lag=3)


class TestFUpperTail:
    """``_f_upper_tail`` against scipy's F distribution: each parity pair of the
    degrees of freedom, at both ends of the range and between."""

    F = np.array([0.0, 1e-12, 0.3, 1.0, 2.5, 7.0, 1e3, np.inf])

    @pytest.mark.parametrize("d2", [1, 2, 5, 20, 157, 158, 1175, 1176])
    @pytest.mark.parametrize("d1", range(1, 9))
    def test_matches_scipy(self, d1, d2):
        tail = pipeline._f_upper_tail(self.F, d1, d2)
        expected = scipy.stats.f.sf(self.F, d1, d2)
        if d1 == d2 == 1:
            # scipy's value at F = 1e-12 is 2.8e-11 off here (checked against a
            # 50-digit incomplete beta); the tail of F(1, 1) is 1 - (2/pi) arctan(sqrt(F))
            expected[1] = 1.0 - 2.0 / np.pi * np.arctan(1e-6)
        np.testing.assert_allclose(tail, expected, rtol=0, atol=1e-12)
        assert tail[0] == 1.0 and tail[-1] == 0.0


def per_candidate_screen(panel, candidates, max_lag, p_threshold):
    """The Granger screen as one lstsq fit per design: the restricted fit once,
    then each candidate's unrestricted fit. Returns the result and the
    warning messages in the order they were given."""

    def sse(design, target):
        beta = np.linalg.lstsq(design, target, rcond=None)[0]
        if not np.all(np.isfinite(beta)):
            return np.nan
        resid = target - design @ beta
        return float(resid @ resid)

    def lag_block(z):
        return np.column_stack([z[max_lag - j : z.size - j] for j in range(1, max_lag + 1)])

    y = panel.columns[panel.target_name]
    t = y.size - max_lag
    dof2 = t - 2 * max_lag - 1
    y_reg, own, const = y[max_lag:], lag_block(y), np.ones(t)
    sse_r = sse(np.column_stack([own, const]), y_reg)
    zero_scale = 1e-12 * (float(y_reg @ y_reg) + 1.0)
    messages, fstats, inconclusive = [], {}, []
    for name in candidates:
        sse_u = sse(np.column_stack([own, lag_block(panel.columns[name]), const]), y_reg)
        if not np.isfinite(sse_r) or not np.isfinite(sse_u):
            inconclusive.append(name)
            messages.append(f"granger test inconclusive for {name!r}: regression did not solve")
        elif sse_u <= zero_scale and sse_r <= zero_scale:
            inconclusive.append(name)
            messages.append(f"granger test inconclusive for {name!r}: both fits are exact")
        elif sse_u <= zero_scale:
            fstats[name] = np.inf
        else:
            fstats[name] = max(0.0, ((sse_r - sse_u) / max_lag) / (sse_u / dof2))
    pvalues = {name: float(scipy.stats.f.sf(f, max_lag, dof2)) for name, f in fstats.items()}
    retained = [name for name, p in pvalues.items() if p <= p_threshold]
    return GrangerResult(retained, pvalues, fstats, inconclusive), messages


# Candidate kinds the batched screen must get right, rank-deficient or not:
# a constant, a duplicate of another candidate, an exact copy of the target,
# an affine image of the target and the target one month later (lags collinear
# with the target's own), an exact driver of the target (F = inf), and a driver
# up to noise 1e-3 of its scale (F in the millions, where SSE_r - SSE_u cancels).
DEGENERATE = ("constant", "duplicate", "copy", "affine", "shift", "driver", "near_driver")


class TestBatchedGrangerProperty:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(30, 120),
           max_lag=st.integers(1, 4), n_plain=st.integers(0, 5),
           target_kind=st.sampled_from(["walk", "noise", "exact_ar2", "constant", "last_moves"]),
           kinds=st.lists(st.sampled_from(DEGENERATE), max_size=6), data=st.data())
    def test_batched_screen_matches_per_candidate_lstsq(self, seed, rows, max_lag, n_plain,
                                                        target_kind, kinds, data):
        rng = np.random.default_rng(seed)

        def series():  # a random walk or white noise, at a scale from 1e-3 to 1e3
            z = rng.standard_normal(rows)
            return (z.cumsum() if rng.random() < 0.5 else z) * 10.0 ** rng.uniform(-3, 3)

        if target_kind == "walk":
            y = 50.0 + rng.standard_normal(rows).cumsum()
        elif target_kind == "noise":
            y = rng.standard_normal(rows)
        elif target_kind == "exact_ar2":  # own lags 1 and 2 fit it exactly
            y = np.empty(rows)
            y[:2] = rng.standard_normal(2)
            for i in range(2, rows):
                y[i] = 1.6 * y[i - 1] - 0.9 * y[i - 2]
        else:  # own lags all constant; with "last_moves" the constant does not fit
            y = np.full(rows, 7.0)
            y[-1] += target_kind == "last_moves"
        columns = [series() for _ in range(n_plain)]
        # drivers first, so that the kinds built from the target see the final one
        for kind in sorted(kinds, key=lambda kind: not kind.endswith("driver")):
            if kind == "constant":
                columns.append(np.full(rows, rng.uniform(-5, 5)))
            elif kind == "duplicate":
                if not columns:
                    columns.append(series())
                columns.append(columns[0].copy())
            elif kind == "copy":
                columns.append(y.copy())
            elif kind == "affine":
                columns.append(-3.0 * y + 2.0)
            elif kind == "shift":
                columns.append(np.concatenate([[0.0], y[:-1]]))
            else:  # the target becomes this candidate one month on, up to a little noise
                driver = series()
                y = np.concatenate([[0.0], driver[:-1]])
                if kind == "near_driver":
                    y += 1e-3 * np.std(driver) * rng.standard_normal(rows)
                columns.append(driver)
        order = data.draw(st.permutations(range(len(columns))))
        names = [f"c{i}" for i in range(len(columns))]
        panel = make_panel({**{names[i]: columns[j] for i, j in enumerate(order)}, "price": y},
                           {**dict.fromkeys(names, "gsvi"), "price": "target"})
        p_threshold = data.draw(st.sampled_from([0.01, 0.1, 0.5]))
        # candidates per batched block: all of them, or a few so that several blocks run
        per_block = data.draw(st.sampled_from([None, 1, 2, 3]))
        block = pipeline._BLOCK_DOUBLES if per_block is None else per_block * rows * max_lag

        expected, messages = per_candidate_screen(panel, names, max_lag, p_threshold)
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(pipeline, "_BLOCK_DOUBLES", block):
            warnings.simplefilter("always")
            result = granger_filter(panel, names, max_lag=max_lag, p_threshold=p_threshold)
        assert [str(w.message) for w in caught] == messages
        assert result.inconclusive == expected.inconclusive
        assert result.retained == expected.retained
        assert list(result.pvalues) == list(expected.pvalues)
        assert list(result.fstats) == list(expected.fstats)
        # the reference's F is the difference of two SSEs rounded on their own,
        # so it is good to eps relative in SSE_r / SSE_u = 1 + F * max_lag / dof2,
        # not in a small F; 1e-12 relative in that ratio is 1e-12 relative in any
        # F well above dof2 / max_lag
        scale = (rows - 3 * max_lag - 1) / max_lag
        for name, want in expected.fstats.items():
            got = result.fstats[name]
            if want == np.inf:
                assert got == np.inf, name
            else:
                assert abs(got - want) <= 1e-12 * (want + scale), (name, got, want)


class TestPipelineConfig:
    def test_components_theta_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            PipelineConfig(n_components=2, theta=0.9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lag": 0},
            {"regressor": "svm"},
            {"k": 0},
            {"k_range": (0, 5)},
            {"k_range": (5, 2)},
            {"c": 0.0},
        ],
    )
    def test_bad_field_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("c", np.nan, "positive, with 1/c finite"),
            ("c", np.inf, "positive, with 1/c finite"),
            ("sigma", 0.0, "positive, with 2 sigma^2 finite and non-zero"),
            ("sigma", -1.0, "positive, with 2 sigma^2 finite and non-zero"),
            ("n_components", 0, ">= 1"),
            ("theta", np.nan, "in (0, 1]"),
            ("theta", 1.5, "in (0, 1]"),
            ("seed", -1, ">= 0"),
            ("n_hidden", 0, ">= 1"),
        ],
    )
    def test_out_of_range_field_named(self, field, value, rule):
        with pytest.raises(ValueError) as raised:
            PipelineConfig(**{field: value})
        assert str(raised.value) == f"{field} must be {rule}, got {value!r}"

    def test_elbow_range_needs_three_candidates(self):
        with pytest.raises(ValueError, match=r"^k_lo = 3 and k_hi = 4 leave 2 k values"):
            PipelineConfig(k_range=(3, 4))
        PipelineConfig(k=3, k_range=(3, 4))  # a pinned k needs no elbow


def model_bytes(model: PipelineModel) -> bytes:
    """Every learned array and width of a fitted model, as one byte string."""
    parts = [model.norm.mins, model.norm.maxs, model.target_norm.mins, model.target_norm.maxs,
             model.cluster.labels, model.regressor.alpha, [model.regressor.kernel.sigma]]
    for kmodel in model.kpca_models:
        parts += [kmodel.alphas, kmodel.col_means, [kmodel.grand_mean, kmodel.kernel.sigma]]
    return b"".join(np.asarray(part).tobytes() for part in parts)


@pytest.fixture(scope="module")
def fitted_models():
    models = []
    for seed in range(3):
        panel, _, _ = synth_generate(SynthSpec(seed=seed))
        models.append((panel, pipeline_fit(panel.row_slice(range(168)),
                                           PipelineConfig(k=3, theta=0.95, seed=5))))
    return models


class TestPipelineFit:
    def test_three_clusters_three_kpca(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        model = pipeline_fit(panel, PipelineConfig(k=3, theta=0.95, seed=5))
        assert isinstance(model, PipelineModel)
        assert len(model.kpca_models) == 3
        assert sorted(set(model.cluster.labels)) == [0, 1, 2]
        assert len(model.cluster.labels) == len(model.indicator_names)

    def test_elbow_path_selects_three(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        model = pipeline_fit(panel, PipelineConfig(theta=0.95, seed=5))
        assert len(model.kpca_models) == 3
        assert sorted(model.elbow_curve) == list(range(1, 9))
        assert model.elbow_curve[3] == model.cluster.wcss

    def test_pinned_k_skips_elbow(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        model = pipeline_fit(panel, PipelineConfig(k=2, theta=0.95, seed=5))
        assert model.elbow_curve == {}
        assert len(model.kpca_models) == 2

    def test_cluster_components_track_planted_factors(self):
        # each cluster's leading component should reproduce that cluster's
        # latent factor almost exactly (sign is arbitrary)
        for seed in range(3):
            panel, factors, labels = synth_generate(SynthSpec(seed=seed))
            model = pipeline_fit(
                panel, PipelineConfig(k=3, theta=0.95, sigma=2.0, seed=5)
            )
            normed = model.norm.apply(panel.matrix(model.indicator_names))
            dominants = []
            for j, kmodel in enumerate(model.kpca_models):
                members = model.cluster.labels == j
                scores = kpca_transform(kmodel, normed[:, members])[:, 0]
                member_labels = labels[members]
                dominant = int(np.bincount(member_labels).argmax())
                dominants.append(dominant)
                r = np.corrcoef(scores, factors[:, dominant])[0, 1]
                assert abs(r) > 0.9
            assert sorted(dominants) == [0, 1, 2]

    def test_single_cluster_equals_composed_stages(self):
        # k = 1 must reduce to plain normalize -> KPCA -> KELM, bit for bit
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        config = PipelineConfig(k=1, theta=0.95, seed=5)
        model = pipeline_fit(panel, config)
        rows = panel.row_slice(range(160, 172))
        via_pipeline = pipeline_predict(model, rows)

        names = panel.indicator_names("H")
        # the pipeline runs with one BLAS thread; so must its composition
        with one_blas_thread():
            norm = normalize_fit(panel.matrix(names), names, panel.dates)
            kp = kpca_fit(norm.apply(panel.matrix(names)), theta=0.95)
            features = kp.train_scores
            target_norm = normalize_fit(panel.matrix(["price"]), ["price"], panel.dates)
            y_norm = target_norm.apply(panel.matrix(["price"]))[:, 0]
            km = kelm_fit(features[:-1], y_norm[1:], c=config.c)
            z = kelm_predict(km, kpca_transform(kp, norm.apply(rows.matrix(names))))
            composed = target_norm.invert(z)
        assert np.array_equal(via_pipeline, composed)

    @pytest.mark.parametrize("extra", ["constant", "nan"])
    def test_untagged_column_is_not_read(self, extra):
        # a fit reads only tagged columns: an untagged constant or NaN column
        # neither fails it nor moves a bit of the model or its forecasts
        panel, _, _ = synth_generate(SynthSpec(seed=2))
        column = np.full(panel.n_rows, 2.5)
        if extra == "nan":
            column = panel.columns["f0s0"].copy()
            column[3] = np.nan
        wider = FeaturePanel(dates=panel.dates, columns={"flat": column, **panel.columns},
                             tags=panel.tags)
        config = PipelineConfig(theta=0.95, seed=5)
        sources = (panel, wider)
        models = [pipeline_fit(source.row_slice(range(168)), config) for source in sources]
        assert model_bytes(models[0]) == model_bytes(models[1])
        forecasts = [pipeline_predict(model, source.row_slice(range(167, 179))).tobytes()
                     for model, source in zip(models, sources)]
        assert forecasts[0] == forecasts[1]

    def test_no_leakage_from_test_rows(self):
        # fitting on a split view and on a panel that never held the test
        # rows must give identical models and forecasts
        panel, _, _ = synth_generate(SynthSpec(seed=1))
        train_view, _ = train_test_split(panel, panel.dates[167])
        train_only = panel.row_slice(range(168))
        config = PipelineConfig(k=3, theta=0.95, seed=5)
        model_a = pipeline_fit(train_view, config)
        model_b = pipeline_fit(train_only, config)
        rows = panel.row_slice(range(167, 179))
        assert np.array_equal(
            pipeline_predict(model_a, rows), pipeline_predict(model_b, rows)
        )
        assert np.array_equal(model_a.regressor.alpha, model_b.regressor.alpha)
        for ka, kb in zip(model_a.kpca_models, model_b.kpca_models):
            assert np.array_equal(ka.alphas, kb.alphas)

    def test_fit_predict_deterministic(self):
        panel, _, _ = synth_generate(SynthSpec(seed=2))
        train = panel.row_slice(range(168))
        rows = panel.row_slice(range(167, 179))
        config = PipelineConfig(k=3, theta=0.95, seed=5)
        first = pipeline_predict(pipeline_fit(train, config), rows)
        second = pipeline_predict(pipeline_fit(train, config), rows)
        assert np.array_equal(first, second)

    def test_elm_regressor_path(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        train = panel.row_slice(range(168))
        rows = panel.row_slice(range(167, 179))
        config = PipelineConfig(
            k=3, theta=0.95, regressor="elm", n_hidden=60, c=1e4, seed=5
        )
        first = pipeline_predict(pipeline_fit(train, config), rows)
        second = pipeline_predict(pipeline_fit(train, config), rows)
        assert first.shape == (12,)
        assert np.all(np.isfinite(first))
        assert np.array_equal(first, second)

    def test_in_sample_fit_is_tight(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        train = panel.row_slice(range(168))
        model = pipeline_fit(train, PipelineConfig(k=3, theta=0.95, seed=5))
        rows = train.row_slice(range(100, 112))
        predicted = pipeline_predict(model, rows)
        actual = train.columns["price"][101:113]
        assert np.mean(np.abs(predicted - actual) / actual) < 0.05

    def test_twelve_rows_give_twelve_forecasts(self):
        panel, _, _ = synth_generate(SynthSpec(seed=3))
        train, _ = train_test_split(panel, panel.dates[167])
        model = pipeline_fit(train, PipelineConfig(k=3, theta=0.95, seed=5))
        forecasts = pipeline_predict(model, panel.row_slice(range(167, 179)))
        assert forecasts.shape == (12,)
        assert np.all(np.isfinite(forecasts))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_predict_ignores_column_order_and_extra_columns(self, fitted_models, data):
        # the origin panel is read by column name, so neither its column
        # order nor untagged extra columns (even non-finite ones) matter
        panel, model = fitted_models[data.draw(st.integers(0, len(fitted_models) - 1))]
        rows = panel.row_slice(range(167, 179))
        expected = pipeline_predict(model, rows)
        order = data.draw(st.permutations(list(rows.columns)))
        extra = data.draw(st.lists(st.sampled_from([0.0, -1e6, 3.5, np.nan, np.inf]),
                                   max_size=3))
        columns = {name: rows.columns[name] for name in order}
        columns.update({f"extra{i}": np.full(rows.n_rows, v) for i, v in enumerate(extra)})
        tags = {name: tag for name, tag in rows.tags.items() if name in columns}
        shuffled = FeaturePanel(dates=rows.dates, columns=columns, tags=tags)
        assert pipeline_predict(model, shuffled).tobytes() == expected.tobytes()

    def test_predict_missing_column_named(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        train = panel.row_slice(range(168))
        model = pipeline_fit(train, PipelineConfig(k=3, theta=0.95, seed=5))
        rows = panel.row_slice(range(170, 175))
        crippled = FeaturePanel(
            dates=rows.dates,
            columns={n: column for n, column in rows.columns.items() if n != "f0s0"},
            tags={n: tag for n, tag in rows.tags.items() if n != "f0s0"})
        with pytest.raises(ValueError, match="f0s0"):
            pipeline_predict(model, crippled)

    def test_predict_non_finite_origin_named(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        train = panel.row_slice(range(168))
        model = pipeline_fit(train, PipelineConfig(k=3, theta=0.95, seed=5))
        rows = panel.row_slice(range(167, 179))
        series = rows.columns["f0s3"].copy()
        series[2] = np.nan
        rows = FeaturePanel(dates=rows.dates, columns={**rows.columns, "f0s3": series},
                            tags=rows.tags)
        with pytest.raises(ValueError, match=r"'f0s3' is not finite at forecast origin 2018-02"):
            pipeline_predict(model, rows)

    def test_cluster_stage_error_wrapped(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        train = panel.row_slice(range(168))
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline_fit(train, PipelineConfig(k=40, theta=0.95, seed=5))
        assert excinfo.value.stage == "cluster"
        assert excinfo.value.__cause__ is not None

    def test_normalize_stage_error_wrapped(self):
        panel, _, _ = synth_generate(SynthSpec(seed=0))
        columns = dict(panel.columns)
        columns["f0s0"] = np.full(panel.n_rows, 2.5)
        flat = FeaturePanel(dates=panel.dates, columns=columns, tags=panel.tags)
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline_fit(flat, PipelineConfig(k=3, theta=0.95, seed=5))
        assert excinfo.value.stage == "normalize"

    def test_too_few_training_rows(self):
        rng = np.random.default_rng(0)
        panel = make_panel(
            {
                "a": rng.standard_normal(20),
                "b": rng.standard_normal(20),
                "price": rng.standard_normal(20) + 50,
            },
            {"a": "economic", "b": "gsvi", "price": "target"},
        )
        with pytest.raises(ValueError, match="training rows"):
            pipeline_fit(panel, PipelineConfig(k=1, theta=0.95))

    def test_series_count_truncating_the_elbow_named(self):
        rng = np.random.default_rng(2)
        panel = make_panel(
            {"a": rng.standard_normal(40), "b": rng.standard_normal(40),
             "price": rng.standard_normal(40) + 50},
            {"a": "economic", "b": "gsvi", "price": "target"},
        )
        with pytest.raises(ValueError, match=r"^2 indicator series leave k in \[1, 2\]; "
                                             r"the elbow needs 3 candidates; pin k$"):
            pipeline_fit(panel, PipelineConfig(theta=0.95))
        assert pipeline_fit(panel, PipelineConfig(k=2, theta=0.95)).cluster.k == 2

    def test_target_required(self):
        rng = np.random.default_rng(1)
        panel = make_panel(
            {"a": rng.standard_normal(40), "b": rng.standard_normal(40)},
            {"a": "economic", "b": "gsvi"},
        )
        with pytest.raises(ValueError, match="target"):
            pipeline_fit(panel, PipelineConfig(k=1, theta=0.95))


class TestConcurrentClusterFits:
    """Above CONCURRENT_MIN_ROWS training rows the clusters' KPCAs run on threads."""

    @pytest.fixture()
    def long_train(self):
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=CONCURRENT_MIN_ROWS + 40,
                                               factors=3, series_per_factor=4))
        return panel, panel.row_slice(range(CONCURRENT_MIN_ROWS + 20))

    def test_equals_the_serial_composition_bit_for_bit(self, long_train, monkeypatch):
        panel, train = long_train
        # two workers whatever the host, and the first two fits must overlap
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 3)
        meet = threading.Barrier(2, timeout=60)
        threads = []

        def overlapping_fit(*args, **kwargs):
            threads.append(threading.current_thread())
            if len(threads) <= 2:
                meet.wait()
            return kpca_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "kpca_fit", overlapping_fit)
        config = PipelineConfig(k=3, theta=0.95, seed=5)
        model = pipeline_fit(train, config)
        assert len(set(threads[:2])) == 2
        rows = panel.row_slice(range(train.n_rows - 1, panel.n_rows))
        forecast = pipeline_predict(model, rows)

        names = panel.indicator_names("H")
        with one_blas_thread():
            norm = normalize_fit(train.matrix(names), names, train.dates)
            normed = norm.apply(train.matrix(names))
            labels = kmeans_fit(normed.T, 3, seed=5).labels
            fits = [kpca_fit(normed[:, labels == j], theta=0.95) for j in range(3)]
            features = np.hstack([fit.train_scores for fit in fits])
            target_norm = normalize_fit(train.matrix(["price"]), ["price"], train.dates)
            y = target_norm.apply(train.matrix(["price"]))[:, 0]
            km = kelm_fit(features[:-1], y[1:], c=config.c)
            scaled = norm.apply(rows.matrix(names))
            z = kelm_predict(km, np.hstack([kpca_transform(fit, scaled[:, labels == j])
                                            for j, fit in enumerate(fits)]))
            composed = target_norm.invert(z)
        assert np.array_equal(model.cluster.labels, labels)
        for got, want in zip(model.kpca_models, fits):
            assert got.kernel == want.kernel
            assert np.array_equal(got.alphas, want.alphas)
        assert np.array_equal(forecast, composed)

    @pytest.mark.parametrize("rows", [168, CONCURRENT_MIN_ROWS + 20])
    def test_lowest_failing_cluster_is_reported(self, rows, monkeypatch):
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=CONCURRENT_MIN_ROWS + 40,
                                               factors=3, series_per_factor=4))
        train = panel.row_slice(range(rows))
        config = PipelineConfig(k=3, theta=0.95, seed=5)
        # tell the clusters apart by their first column, as a fit made without failures saw them
        names = train.indicator_names("H")
        normed = normalize_fit(train.matrix(names), names, train.dates).apply(train.matrix(names))
        labels = pipeline_fit(train, config).cluster.labels
        cluster_of = {normed[:, labels == j][:, 0].tobytes(): j for j in range(3)}
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 3)
        # on threads, cluster 1 fails only after cluster 2 has failed
        second_failed = threading.Event()

        def failing_fit(x, **kwargs):
            j = cluster_of[np.ascontiguousarray(x[:, 0]).tobytes()]
            if j == 0:
                return kpca_fit(x, **kwargs)
            if j == 1 and rows >= CONCURRENT_MIN_ROWS:
                assert second_failed.wait(timeout=60)
            if j == 2:
                second_failed.set()
            raise ValueError(f"cluster {j} fails")

        monkeypatch.setattr(pipeline, "kpca_fit", failing_fit)
        running = threading.active_count()
        with pytest.raises(PipelineStageError, match=r"cluster 1 fails") as excinfo:
            pipeline_fit(train, config)
        assert excinfo.value.stage == "kpca[1]"
        assert threading.active_count() == running


    @pytest.mark.parametrize("rows, cpus, workers", [
        (168, 8, 1),
        (CONCURRENT_MIN_ROWS + 20, 1, 1),
        (CONCURRENT_MIN_ROWS + 20, 8, MAX_FIT_WORKERS),
    ])
    def test_worker_count(self, long_train, rows, cpus, workers, monkeypatch):
        panel, _ = long_train
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: cpus)
        seen = []

        def counting_map(task, count, scratch):
            seen.append(len(scratch))
            return map_in_threads(task, count, scratch)

        map_in_threads = pipeline._map_in_threads
        monkeypatch.setattr(pipeline, "_map_in_threads", counting_map)
        pipeline_fit(panel.row_slice(range(rows)), PipelineConfig(k=3, theta=0.95, seed=5))
        assert seen == [workers]


def test_thread_map_runs_each_index_once_under_stress():
    # more workers than cores and a short switch interval: a lost update in
    # handing out indices would run one index twice or skip one
    calls = [[] for _ in range(400)]
    outcome = {}

    def task(j, worker):
        calls[j].append(worker)
        return j * j

    def run():
        outcome["results"] = pipeline._map_in_threads(task, len(calls), list(range(8)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert outcome["results"] == [j * j for j in range(len(calls))]
    assert all(len(seen) == 1 for seen in calls)


class TestThreadMapContract:
    """``_map_in_threads`` on W scratch items: worker w, the calling thread
    when w = 0, runs indices w, w + W, ... in order with ``scratch[w]``, and
    stops at its own first error."""

    @staticmethod
    def run(workers, count, failing=()):
        """The results (or the error raised) and, per index run, its item and thread."""
        ran = []

        def task(j, item):
            ran.append((j, item, threading.current_thread()))
            if j in failing:
                raise ValueError(f"index {j} fails")
            return j * j

        try:
            return pipeline._map_in_threads(task, count, list(range(workers))), ran
        except ValueError as err:
            return err, ran

    @staticmethod
    def shares(workers, count, failing=()):
        """Worker w's indices in order, up to its first failing one."""
        shares = []
        for w in range(workers):
            share = []
            for j in range(w, count, workers):
                share.append(j)
                if j in failing:
                    break
            shares.append(share)
        return shares

    @pytest.mark.parametrize("count", range(8))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_index_j_runs_on_worker_j_mod_w(self, workers, count):
        running = threading.active_count()
        results, ran = self.run(workers, count)
        assert results == [j * j for j in range(count)]
        assert threading.active_count() == running
        assert all(item == j % workers for j, item, _ in ran)
        thread_of = {}
        for j, _, thread in ran:
            assert thread_of.setdefault(j % workers, thread) is thread
        assert thread_of.get(0, threading.current_thread()) is threading.current_thread()
        assert len(set(thread_of.values())) == len(thread_of)
        for w, share in enumerate(self.shares(workers, count)):
            assert [j for j, item, _ in ran if item == w] == share

    @pytest.mark.parametrize("count", range(1, 8))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_index_is_raised(self, workers, count):
        running = threading.active_count()
        for mask in range(1, 1 << count):  # every nonempty set of failing indices
            failing = {j for j in range(count) if mask >> j & 1}
            error, ran = self.run(workers, count, failing)
            assert isinstance(error, ValueError)
            assert str(error) == f"index {min(failing)} fails"
            assert threading.active_count() == running
            for w, share in enumerate(self.shares(workers, count, failing)):
                assert [j for j, item, _ in ran if item == w] == share

    @pytest.mark.parametrize("started", [0, 1])
    @pytest.mark.parametrize("count", range(8))
    @pytest.mark.parametrize("workers", [2, 3])
    def test_unstartable_helpers_share_runs_on_the_calling_thread(self, workers, count,
                                                                  started, monkeypatch):
        start = threading.Thread.start
        starts = []

        def start_or_fail(thread):
            starts.append(thread)
            if len(starts) > started:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_or_fail)
        running = threading.active_count()
        results, ran = self.run(workers, count)
        assert results == self.run(1, count)[0]
        assert threading.active_count() == running
        assert len(starts) == workers - 1
        own = {0, *range(started + 1, workers)}
        assert all((thread is threading.current_thread()) == (item in own)
                   for _, item, thread in ran)
        for w, share in enumerate(self.shares(workers, count)):
            assert [j for j, item, _ in ran if item == w] == share
        if count:
            error, _ = self.run(workers, count, failing={count - 1, 0})
            assert str(error) == "index 0 fails"
