"""Generator contract tests: determinism, shapes, planted structure."""

import numpy as np
import pytest

from oilcast.clustering import kmeans_fit
from oilcast.synth import STANDARD_SEEDS, SynthSpec, synth_generate


def cluster_purity(predicted, truth, k):
    hits = 0
    for j in range(k):
        members = truth[predicted == j]
        if members.size:
            hits += np.bincount(members).max()
    return hits / truth.size


class TestSpecValidation:
    def test_defaults_accepted(self):
        spec = SynthSpec()
        assert spec.months == 180
        assert spec.factors == 3
        assert spec.series_per_factor == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"months": 35},
            {"factors": 0},
            {"series_per_factor": 1},
            {"noise": -0.1},
            {"target_noise": -1.0},
            {"lag": 0},
        ],
    )
    def test_bad_field_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)

    def test_standard_seeds(self):
        assert STANDARD_SEEDS == tuple(range(10))


class TestDeterminism:
    def test_same_spec_bit_identical(self):
        first = synth_generate(SynthSpec(seed=3))
        second = synth_generate(SynthSpec(seed=3))
        assert first[0].dates == second[0].dates
        assert first[0].tags == second[0].tags
        assert set(first[0].columns) == set(second[0].columns)
        for name in first[0].columns:
            assert np.array_equal(first[0].columns[name], second[0].columns[name])
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[2], second[2])

    def test_seed_changes_panel(self):
        a, _, _ = synth_generate(SynthSpec(seed=0))
        b, _, _ = synth_generate(SynthSpec(seed=1))
        assert not np.array_equal(a.columns["price"], b.columns["price"])


class TestShapes:
    def test_standard_family_shape(self):
        panel, factors, labels = synth_generate(SynthSpec(seed=0))
        assert len(panel.dates) == 180
        assert len(panel.columns) == 31  # 30 indicators + target
        assert factors.shape == (180, 3)
        assert labels.shape == (30,)
        assert all(np.count_nonzero(labels == j) == 10 for j in range(3))

    def test_tags_alternate_by_factor(self):
        panel, _, labels = synth_generate(SynthSpec(seed=0))
        names = panel.indicator_names("H")
        for name, factor in zip(names, labels):
            expected = "economic" if factor % 2 == 0 else "gsvi"
            assert panel.tags[name] == expected
        assert len(panel.indicator_names("E")) == 20
        assert len(panel.indicator_names("G")) == 10

    def test_small_family(self):
        panel, factors, labels = synth_generate(
            SynthSpec(seed=2, months=36, factors=1, series_per_factor=2)
        )
        assert len(panel.dates) == 36
        assert len(panel.columns) == 3
        assert factors.shape == (36, 1)
        assert np.array_equal(labels, [0, 0])


class TestNoiselessLimit:
    def test_within_group_correlation_distance(self):
        panel, _, labels = synth_generate(SynthSpec(seed=0, noise=0.0))
        series = panel.matrix(panel.indicator_names("H")).T
        standardized = series - series.mean(axis=1, keepdims=True)
        standardized /= standardized.std(axis=1, keepdims=True)
        corr = standardized @ standardized.T / series.shape[1]
        for j in range(3):
            members = np.flatnonzero(labels == j)
            block = 1.0 - corr[np.ix_(members, members)]
            assert block.max() < 1e-9

    def test_indicator_affine_in_its_factor(self):
        panel, factors, labels = synth_generate(SynthSpec(seed=1, noise=0.0))
        names = panel.indicator_names("H")
        for name, factor in zip(names, labels):
            design = np.column_stack([factors[:, factor], np.ones(180)])
            beta, *_ = np.linalg.lstsq(design, panel.columns[name], rcond=None)
            residual = panel.columns[name] - design @ beta
            assert np.abs(residual).max() < 1e-9
            assert beta[0] > 0  # loadings are drawn positive


class TestTargetLink:
    def test_target_exact_function_of_lagged_factors(self):
        # with both noise scales at zero the target lies exactly in the span
        # of tanh(factors) and factors, lagged by spec.lag
        spec = SynthSpec(seed=4, noise=0.0, target_noise=0.0)
        panel, factors, _ = synth_generate(spec)
        state = factors[: 180 - spec.lag]
        design = np.column_stack([np.tanh(state), state, np.ones(len(state))])
        y = panel.columns["price"][spec.lag :]
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.abs(y - design @ beta).max() < 1e-8

    def test_prices_stay_positive(self):
        for seed in STANDARD_SEEDS:
            panel, _, _ = synth_generate(SynthSpec(seed=seed))
            assert panel.columns["price"].min() > 0


class TestPlantedRecoverability:
    def test_purity_on_first_seed(self):
        panel, _, labels = synth_generate(SynthSpec(seed=0))
        series = panel.matrix(panel.indicator_names("H")).T
        result = kmeans_fit(series, 3, seed=5)
        assert cluster_purity(result.labels, labels, 3) >= 0.95
