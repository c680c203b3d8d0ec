"""Correlation-distance k-means: distance, fit, assignment, elbow."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oilcast import clustering
from oilcast.clustering import (
    MAX_ITER,
    DegenerateSeriesError,
    _pick_elbow,
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


# The reference k-means: the member-mean algorithm written the plain way, one
# series per row. Each pass standardizes the raw member means of every cluster
# (formed through boolean masks) and compares them with the standardized
# series. The library forms the same centroids as one product over
# standardized columns, so its labels, iteration counts and errors must be
# these exactly, and its objective these up to rounding.

def ref_standardized_rows(x, what):
    """Center each row and scale to unit norm; reject constant rows."""
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise DegenerateSeriesError(f"{what} {bad[0]} is constant; correlation distance is undefined")
    return centered / norms[:, None]


def ref_distance_matrix(series_std, centroids):
    """(n_series, k) correlation distances to the standardized centroids."""
    cent_std = ref_standardized_rows(centroids, "centroid of cluster")
    return 1.0 - np.clip(series_std @ cent_std.T, -1.0, 1.0)


def ref_repair_empty_clusters(dist, labels, k):
    """Give each empty cluster the worst-fit series of a cluster with two or more members."""
    for j in range(k):
        if np.any(labels == j):
            continue
        fit = dist[np.arange(labels.size), labels].copy()
        counts = np.bincount(labels, minlength=k)
        fit[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(fit))
        if not np.isfinite(fit[donor]):
            raise NumericalError("cannot repair empty cluster: all donor clusters are singletons")
        labels = labels.copy()
        labels[donor] = j
    return labels


def ref_kmeans(series, k, seed=0, repairs=None):
    """(labels, wcss_history) of the member-mean k-means; ``repairs`` counts repair passes."""
    series = np.asarray(series, dtype=float)
    series_std = ref_standardized_rows(series, "series")
    n = series.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}] for {n} series, got {k}")
    centroids = series[np.random.default_rng(seed).choice(n, size=k, replace=False)]
    labels, history = None, []
    for n_iter in range(1, MAX_ITER + 1):
        dist = ref_distance_matrix(series_std, centroids)
        assigned = np.argmin(dist, axis=1)
        if repairs is not None and len(np.unique(assigned)) < k:
            repairs.append(n_iter)
        assigned = ref_repair_empty_clusters(dist, assigned, k)
        wcss = float(dist[np.arange(n), assigned].sum())
        if history and wcss > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise NumericalError(
                f"within-cluster distance increased from {history[-1]:.6e} to {wcss:.6e} "
                f"at iteration {n_iter}; series scales are too disparate for the mean update"
            )
        history.append(wcss)
        if labels is not None and np.array_equal(assigned, labels):
            break
        labels = assigned
        centroids = np.vstack([series[labels == j].mean(axis=0) for j in range(k)])
    return labels, history


def ref_elbow(series, ks, seed=0):
    """(chosen k, {k: (labels, wcss_history)}): the reference fit of each k in ascending order."""
    ks = sorted(ks)
    fits = {k: ref_kmeans(series, k, seed) for k in ks}
    return _pick_elbow(ks, [fits[k][1][-1] for k in ks]), fits


def outcome(call):
    """(None, what a call returns), or ((type, text) of the error it raises, None)."""
    try:
        return None, call()
    except (NumericalError, ValueError) as err:
        return (type(err), str(err)), None


def assert_same_fit(fit, ref):
    """A library fit against the reference's (labels, wcss_history)."""
    labels, history = ref
    np.testing.assert_array_equal(fit.labels, labels)
    assert fit.n_iter == len(history) == len(fit.wcss_history)
    # 1e-12 relative to max(1, wcss), the scale of the fit's own slack: a fit
    # of k = n series has a wcss of pure rounding, ~1e-16
    np.testing.assert_allclose(fit.wcss_history, history, rtol=1e-12, atol=1e-12)
    assert fit.wcss == fit.wcss_history[-1]


def corr_distance(x, y):
    """The k-means distance between series x and a centroid y."""
    x_std = ref_standardized_rows(np.asarray([x], dtype=float), "series")
    return float(ref_distance_matrix(x_std, np.asarray([y], dtype=float))[0, 0])


def nearest_centroids(series, centroids):
    """One assignment pass: the nearest centroid of each series row."""
    return np.argmin(ref_distance_matrix(ref_standardized_rows(series, "series"), centroids), axis=1)


@st.composite
def series_matrices(draw):
    """Planted or noise series rows, fewer or more of them than observations.

    Planted series carry noise: exact copies of one pattern tie to within
    rounding, and any change of arithmetic may break such a tie differently.
    """
    n_obs = draw(st.sampled_from([6, 12, 40]))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        series, _ = planted_series(n_groups=draw(st.integers(2, 4)),
                                   per_group=draw(st.integers(2, 8)), n_obs=n_obs,
                                   noise=draw(st.sampled_from([0.05, 0.3])), seed=seed)
        return series
    return np.random.default_rng(seed).standard_normal((draw(st.integers(2, 30)), n_obs))


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
        real = clustering._standardized
        monkeypatch.setattr(clustering, "_standardized",
                            lambda x: calls.append("series") or real(x))
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

    def test_a_three_value_range_warns_only_without_a_bend(self):
        # one second difference has no spread; only its sign tells a bend
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pick_elbow([2, 3, 4], [100.0, 10.0, 9.0]) == 3
            assert _pick_elbow([1, 2, 3, 4], [9.0, 5.0, 3.0, 3.0]) == 2  # equal bends
        with pytest.warns(UserWarning, match="no elbow"):
            assert _pick_elbow([2, 3, 4], [3.0, 2.0, 1.0]) == 3

    def test_too_few_k_values_rejected(self):
        series, _ = planted_series(seed=0)
        with pytest.raises(ValueError, match="3 distinct"):
            elbow_select(series, [2, 3], seed=0)


class TestAgainstReference:
    """The library's fits against the member-mean reference at the top of this file."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(series=series_matrices(), k=st.integers(1, 8), seed=st.integers(0, 99))
    @example(series=np.array([[1.0, 2.0, 4.0], [-1.0, -2.0, -4.0]]), k=1,
             seed=0)  # a series and its negation average to a constant centroid
    @example(series=np.array([[1.0, 0.0, -1.0, 0.0], [-1.0, 0.0, 1.0, 0.0],
                              [0.0, 1.0, 0.0, -1.0], [0.0, -1.0, 0.0, 1.0]]), k=2,
             seed=0)  # exact ties of distance 1.0 on every pass
    def test_kmeans_fit_matches_the_reference(self, series, k, seed):
        error, fit = outcome(lambda: kmeans_fit(series, k, seed=seed))
        ref_error, ref = outcome(lambda: ref_kmeans(series, k, seed))
        assert error == ref_error
        if ref is not None:
            assert_same_fit(fit, ref)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(series=series_matrices(), ks=st.sets(st.integers(1, 8), min_size=3),
           seed=st.integers(0, 99))
    def test_every_elbow_fit_matches_the_reference(self, series, ks, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a flat curve warns on both sides
            error, got = outcome(lambda: elbow_select(series, sorted(ks), seed=seed))
            ref_error, ref = outcome(lambda: ref_elbow(series, ks, seed))
        assert error == ref_error
        if ref is not None:
            (k, fits), (ref_k, ref_fits) = got, ref
            assert k == ref_k
            assert sorted(fits) == sorted(ref_fits)
            for j, fit in fits.items():
                assert_same_fit(fit, ref_fits[j])

    def test_empty_cluster_repair_matches_the_reference(self, monkeypatch):
        series, _ = planted_series(n_groups=3, per_group=4, n_obs=10, noise=0.3, seed=7)
        repairs, calls = [], []
        ref = ref_kmeans(series, 5, seed=7, repairs=repairs)
        real = clustering._repair_empty_clusters
        monkeypatch.setattr(clustering, "_repair_empty_clusters",
                            lambda *args: calls.append(1) or real(*args))
        assert_same_fit(kmeans_fit(series, 5, seed=7), ref)
        assert repairs == [2] and len(calls) == 1

    def test_elbow_raises_the_error_of_the_lowest_failing_k(self):
        # the matrix of test_disparate_scales_fail_loudly_instead_of_drifting:
        # k = 3, 4, 6 and 7 fail alone, k = 6 at an earlier pass than k = 3
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.uniform(-3, 3, size=24)
        series = rng.standard_normal((24, 40)) * scales[:, None]
        alone = {k: outcome(lambda: kmeans_fit(series, k, seed=3))[0] for k in range(1, 9)}
        failing = [k for k, error in alone.items() if error is not None]
        assert failing == [3, 4, 6, 7]
        assert outcome(lambda: elbow_select(series, range(1, 9), seed=3))[0] == alone[3]
        assert outcome(lambda: ref_elbow(series, range(1, 9), seed=3))[0] == alone[3]


class TestInPlaceCore:
    """The pipeline's core ``_cluster`` standardizes the matrix it is given in
    place and fits what the public functions fit on its transpose, to the
    bit; ``_column_norms`` gives ``np.linalg.norm``'s bits without its squares."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 300), cols=st.integers(1, 12), seed=st.integers(0, 2**16),
           spread=st.floats(-30, 30))
    def test_column_norms_are_numpys_bits(self, rows, cols, seed, spread):
        x = np.random.default_rng(seed).standard_normal((rows, cols)) * 2.0 ** spread
        expected = np.linalg.norm(x, axis=0)
        assert clustering._column_norms(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ks", [[1], [3], [1, 2, 3, 4, 5]])
    def test_core_fits_are_the_public_fits_of_the_transpose(self, ks):
        series, _ = planted_series(n_groups=4, per_group=6, seed=3)
        values = np.ascontiguousarray(series.T)  # one column per series, as pipeline_fit holds it
        if len(ks) == 1:
            public = {ks[0]: kmeans_fit(values.T, ks[0], seed=2)}
            picked = ks[0]
        else:
            picked, public = elbow_select(values.T, ks, seed=2)
        k, fits = clustering._cluster(values, ks, seed=2)
        assert k == picked
        for j, fit in fits.items():
            assert np.array_equal(fit.labels, public[j].labels)
            assert fit.wcss_history == public[j].wcss_history
        # the matrix now holds the standardized series: centered unit columns
        np.testing.assert_allclose(values.mean(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(values, axis=0), 1.0)
