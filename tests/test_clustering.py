"""Correlation-distance k-means: distance, fit, assignment, elbow."""

import numpy as np
import pytest

from oilcast import clustering
from oilcast.clustering import (
    DegenerateSeriesError,
    _distance_matrix,
    _pick_elbow,
    _standardized_rows,
    elbow_select,
    kmeans_fit,
)
from oilcast.numerics import NumericalError


def planted_series(n_groups=3, per_group=8, n_obs=48, noise=0.02, seed=0):
    """Series that are noisy positive-affine copies of group patterns.

    Patterns are mutually orthogonal so groups are genuinely separated
    under correlation distance.
    """
    rng = np.random.default_rng(seed)
    patterns, _ = np.linalg.qr(rng.standard_normal((n_obs, n_groups)))
    patterns = patterns.T * np.sqrt(n_obs)
    rows, labels = [], []
    for g in range(n_groups):
        for _ in range(per_group):
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-1.0, 1.0)
            rows.append(a * patterns[g] + b + noise * rng.standard_normal(n_obs))
            labels.append(g)
    return np.array(rows), np.array(labels)


def purity(found, truth):
    """Fraction of series whose cluster's majority truth label matches."""
    correct = 0
    for j in np.unique(found):
        members = truth[found == j]
        correct += np.bincount(members).max()
    return correct / len(truth)


def corr_distance(x, y):
    """The k-means distance between series x and a centroid y."""
    x_std = _standardized_rows(np.asarray([x], dtype=float), "series")
    return float(_distance_matrix(x_std, np.asarray([y], dtype=float))[0, 0])


def nearest_centroids(series, centroids):
    """One assignment pass: the nearest centroid of each series row."""
    return np.argmin(_distance_matrix(_standardized_rows(series, "series"), centroids), axis=1)


def member_means(series, model):
    """The mean of each cluster's member rows: the fit's final centroids."""
    return np.vstack([series[model.labels == j].mean(axis=0) for j in range(model.k)])


class TestCorrelationDistance:
    def test_hand_value(self):
        # pearson_r([1,2,3], [1,3,2]) = 0.5, so the distance is 0.5
        assert corr_distance([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_positive_affine_copy_is_at_distance_zero(self):
        x = np.array([0.3, 1.7, -0.2, 0.9, 2.4])
        assert corr_distance(x, 3.0 * x + 7.0) == pytest.approx(0.0, abs=1e-12)

    def test_negated_series_is_at_distance_two(self):
        x = np.array([1.0, 2.0, 4.0, 3.0])
        assert corr_distance(x, -x) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            d_xy = corr_distance(x, y)
            assert d_xy == pytest.approx(corr_distance(y, x), abs=1e-12)
            assert 0.0 <= d_xy <= 2.0

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError, match="constant"):
            corr_distance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSeriesError, match="centroid"):
            corr_distance([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        # k-means takes equal-length series as the rows of one matrix
        with pytest.raises(ValueError, match="2-D"):
            kmeans_fit(np.array([1.0, 2.0, 3.0]), 1)
        with pytest.raises(ValueError, match="at least 2 observations"):
            kmeans_fit(np.ones((3, 1)), 1)


class TestKmeansFit:
    def test_recovers_planted_groups_exactly_when_clean(self):
        series, truth = planted_series(noise=0.0, seed=4)
        model = kmeans_fit(series, 3, seed=0)
        assert purity(model.labels, truth) == 1.0

    def test_deterministic_given_seed(self):
        series, _ = planted_series(seed=2)
        a = kmeans_fit(series, 3, seed=5)
        b = kmeans_fit(series, 3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss

    def test_labels_partition_all_series(self):
        series, _ = planted_series(seed=3)
        model = kmeans_fit(series, 4, seed=1)
        assert model.labels.shape == (len(series),)
        assert set(np.unique(model.labels)) == set(range(4))

    def test_last_two_passes_assign_equal_labels(self):
        # the fit stops when an assignment pass repeats the previous labels,
        # so one more pass against the member means of the final labels
        # reproduces those labels
        for seed in range(6):
            series, _ = planted_series(noise=0.3, seed=seed)
            for k in (2, 3, 5):
                model = kmeans_fit(series, k, seed=seed)
                assert model.n_iter >= 2 and model.n_iter == len(model.wcss_history)
                np.testing.assert_array_equal(
                    nearest_centroids(series, member_means(series, model)), model.labels)

    def test_wcss_history_monotone_on_noise_and_planted_data(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal((20, 36))
            for data in (noise, planted_series(noise=0.3, seed=seed)[0]):
                model = kmeans_fit(data, 4, seed=seed)
                h = model.wcss_history
                assert all(
                    h[i + 1] <= h[i] + 1e-9 * max(1.0, h[i]) for i in range(len(h) - 1)
                ), f"WCSS increased for seed {seed}"
                assert model.wcss == h[-1]

    def test_disparate_scales_fail_loudly_instead_of_drifting(self):
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.uniform(-3, 3, size=24)
        series = rng.standard_normal((24, 40)) * scales[:, None]
        with pytest.raises(NumericalError, match="increased"):
            kmeans_fit(series, 4, seed=3)

    def test_empty_cluster_repaired_from_worst_fit_series(self):
        # Near-identical series force every point onto one centroid at the
        # first pass; the empty cluster must be re-seeded, not left empty.
        rng = np.random.default_rng(8)
        base = rng.standard_normal(30)
        series = np.array([base + 1e-6 * rng.standard_normal(30) for _ in range(6)])
        model = kmeans_fit(series, 2, seed=0)
        assert set(np.unique(model.labels)) == {0, 1}

    def test_k_one_groups_everything(self):
        series, _ = planted_series(seed=6)
        model = kmeans_fit(series, 1, seed=0)
        assert set(np.unique(model.labels)) == {0}
        assert model.wcss > 0.0

    def test_constant_series_rejected_with_row_index(self):
        series, _ = planted_series(seed=1)
        series[5] = 2.5
        with pytest.raises(DegenerateSeriesError, match="5"):
            kmeans_fit(series, 3, seed=0)

    def test_k_out_of_range_rejected(self):
        series, _ = planted_series(per_group=2, seed=0)
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            kmeans_fit(series, 7, seed=0)
        with pytest.raises(ValueError):
            kmeans_fit(series, 0, seed=0)


class TestAssign:
    """The assignment pass of ``kmeans_fit``."""

    def test_series_equal_to_a_centroid_goes_to_it(self):
        series, _ = planted_series(noise=0.0, seed=4)
        means = member_means(series, kmeans_fit(series, 3, seed=0))
        np.testing.assert_array_equal(nearest_centroids(means, means), np.arange(3))

    def test_exact_tie_goes_to_lowest_index(self):
        # a and -a are uncorrelated with c and -c, so when the fit starts
        # from c and -c (seeds 0 and 5) both of their distances are exactly
        # 1.0 on every pass, and the tie must break to cluster 0
        a = np.array([1.0, 0.0, -1.0, 0.0])
        c = np.array([0.0, 1.0, 0.0, -1.0])
        series = np.array([a, -a, c, -c])
        for seed in (0, 5):
            labels = kmeans_fit(series, 2, seed=seed).labels
            assert labels[2] != labels[3]  # c and -c seeded the two clusters
            assert labels[0] == labels[1] == 0


class TestElbow:
    def test_second_difference_hand_values(self):
        # diffs: 100-60+12=52, 30-24+10=16, 12-20+9=1 -> elbow at k=2
        assert _pick_elbow([1, 2, 3, 4, 5], [100.0, 30.0, 12.0, 10.0, 9.0]) == 2

    def test_tie_takes_first_interior_k(self):
        # second differences are 4, 4, 0: k = 2 and k = 3 tie, first wins
        assert _pick_elbow([1, 2, 3, 4, 5], [16.0, 8.0, 4.0, 4.0, 4.0]) == 2

    def test_planted_three_groups_select_three(self):
        series, _ = planted_series(noise=0.05, seed=0)
        k, fits = elbow_select(series, range(1, 7), seed=0)
        assert k == 3
        assert set(fits) == {1, 2, 3, 4, 5, 6}
        # each k is fitted once, and the selected fit is the plain k-means fit
        assert all(fit.k == j for j, fit in fits.items())
        np.testing.assert_array_equal(fits[3].labels, kmeans_fit(series, 3, seed=0).labels)

    def test_affine_invariance_of_assignment(self):
        # correlation ignores each series' level and positive scale, so on
        # separated groups a per-series positive affine map keeps the labels
        rng = np.random.default_rng(0)
        for seed in range(5):
            series, _ = planted_series(noise=0.05, seed=seed)
            a = rng.uniform(0.1, 10.0, size=(len(series), 1))
            b = rng.uniform(-5.0, 5.0, size=(len(series), 1))
            np.testing.assert_array_equal(kmeans_fit(a * series + b, 3, seed=seed).labels,
                                          kmeans_fit(series, 3, seed=seed).labels)

    def test_series_are_standardized_once_for_every_k(self, monkeypatch):
        series, _ = planted_series(n_groups=4, per_group=6)
        alone = {k: kmeans_fit(series, k) for k in range(1, 9)}
        calls = []
        real = clustering._standardized_rows
        monkeypatch.setattr(clustering, "_standardized_rows",
                            lambda x, what: calls.append(what) or real(x, what))
        _, fits = elbow_select(series, range(1, 9))
        assert calls.count("series") == 1
        for k, fit in fits.items():  # each fit is the one kmeans_fit makes alone
            assert np.array_equal(fit.labels, alone[k].labels)
            assert fit.wcss_history == alone[k].wcss_history

    def test_flat_curve_warns_and_returns_smallest_interior_k(self):
        series = np.tile(np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0]), (6, 1))
        with pytest.warns(UserWarning, match="no elbow"):
            k, fits = elbow_select(series, [1, 2, 3, 4], seed=0)
        assert k == 2
        assert all(fit.wcss == pytest.approx(0.0, abs=1e-12) for fit in fits.values())

    def test_too_few_k_values_rejected(self):
        series, _ = planted_series(seed=0)
        with pytest.raises(ValueError, match="3 distinct"):
            elbow_select(series, [2, 3], seed=0)
