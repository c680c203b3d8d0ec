"""Kernel PCA: kernels, centering, fit/transform, and the PCA oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from oilcast import kpca, numerics, pipeline
from oilcast.kpca import (
    DegenerateKernelError,
    GaussianKernel,
    LinearKernel,
    PackedGram,
    _gram,
    _packed_gram,
    center_kernel,
    gram_size,
    kpca_fit,
    kpca_transform,
)
from oilcast.numerics import sq_distances
from oilcast.panel import normalize_fit
from oilcast.pipeline import PipelineConfig, pipeline_fit
from oilcast.regressors import kelm_fit, kelm_predict
from oilcast.synth import SynthSpec, synth_generate


def pca_scores(x_train, x_eval, n_components):
    """Classical PCA oracle: covariance eigendecomposition scores."""
    mean = x_train.mean(axis=0)
    xc = x_train - mean
    cov = xc.T @ xc / len(x_train)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1][:n_components]
    return (x_eval - mean) @ vectors[:, order]


def full_spectrum_keep(x, theta):
    """Component count of the theta rule over the whole spectrum (full eigh)."""
    k_c, _, _ = center_kernel(_gram(x, None)[0])
    values = np.sort(np.linalg.eigvalsh(k_c))[::-1]
    usable = values[values > 1e-10 * values[0]]
    fractions = np.cumsum(usable) / usable.sum()
    return min(int(np.searchsorted(fractions, theta - 1e-12)) + 1, usable.size), fractions


def record_requests(monkeypatch):
    """Counts passed to the eigensolver by kpca_fit, and counts passed to the partial solver."""
    counts, lanczos = [], []
    real_eigenpairs, real_lanczos = kpca._eigenpairs, numerics._lanczos

    def spy_eig(a, count, centering=None, full=None):
        counts.append(count)
        return real_eigenpairs(a, count, centering, full)

    def spy_lanczos(a, count, centering=None):
        lanczos.append(count)
        return real_lanczos(a, count, centering)

    monkeypatch.setattr(kpca, "_eigenpairs", spy_eig)
    monkeypatch.setattr(numerics, "_lanczos", spy_lanczos)
    return counts, lanczos


def record_full_solves(monkeypatch):
    """Orders of the np.linalg.eigh calls made: a full solve of order n, or a
    Lanczos tridiagonal of the basis's order."""
    orders = []
    real = numerics.np.linalg.eigh
    monkeypatch.setattr(numerics.np.linalg, "eigh",
                        lambda a: orders.append(a.shape[0]) or real(a))
    return orders


def align_signs(reference, candidate):
    """Flip candidate columns so each correlates positively with reference."""
    flipped = candidate.copy()
    for j in range(candidate.shape[1]):
        if reference[:, j] @ candidate[:, j] < 0:
            flipped[:, j] = -flipped[:, j]
    return flipped


class TestKernels:
    def test_gaussian_hand_value(self):
        k = GaussianKernel(1.0)(np.array([[0.0]]), np.array([[1.0]]))
        assert k[0, 0] == pytest.approx(np.exp(-0.5))
        assert k[0, 0] == pytest.approx(0.6065, abs=5e-5)

    def test_identical_samples_give_all_ones(self):
        k = _gram(np.array([[2.0, 3.0], [2.0, 3.0]]), GaussianKernel(0.7))[0]
        np.testing.assert_allclose(k, np.ones((2, 2)), atol=1e-15)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((15, 4))
        k = _gram(x, GaussianKernel(2.0))[0]
        np.testing.assert_allclose(np.diag(k), np.ones(15), atol=1e-15)
        np.testing.assert_allclose(k, k.T, atol=1e-15)
        assert np.all(k > 0.0) and np.all(k <= 1.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianKernel(0.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianKernel(-1.5)

    def test_median_heuristic_hand_value(self):
        # pairwise distances of [0], [1], [3]: 1, 3, 2 -> median 2
        model = kpca_fit(np.array([[0.0], [1.0], [3.0]]), n_components=1)
        assert model.kernel.sigma == 2.0

    def test_median_heuristic_rejects_duplicates_only(self):
        with pytest.raises(DegenerateKernelError, match="duplicated"):
            kpca_fit(np.ones((4, 2)))

    @pytest.mark.parametrize("kernel", [lambda rows: rows @ rows.T, "gaussian", 1.0,
                                        GaussianKernel], ids=["lambda", "name", "sigma", "class"])
    def test_only_the_two_kernel_classes_are_accepted(self, kernel):
        # rejected before any n x n matrix is allocated
        x = np.random.default_rng(26).random((600, 3))
        message = "^kernel must be a GaussianKernel, a LinearKernel or None, got "
        for fit in (lambda: kpca_fit(x, kernel=kernel),
                    lambda: kelm_fit(x, x[:, 0], kernel=kernel)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=message):
                    fit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 600**2 / 10


def upper_pairs_sorted(sq):
    """The reference: every pair's squared distance, sorted."""
    return np.sort(sq[np.triu_indices(sq.shape[0], 1)])


# sample rows with many tied distances: few distinct small integers, and
# rows repeated from the first ones
SAMPLE_SETS = st.integers(2, 150).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), max_size=n // 2),
))


def tied_rows(drawn):
    rows, repeats = drawn
    x = np.array(rows, dtype=float)
    for i, j in enumerate(repeats):
        x[j] = x[i % max(1, j)]
    return x


def median_of_sorted_pairs(sq):
    ranked = upper_pairs_sorted(sq)
    low, high = ranked[(ranked.size - 1) // 2], ranked[ranked.size // 2]
    return float((np.sqrt(low) + np.sqrt(high)) / 2.0)


class TestMedianHeuristic:
    # a copy limit of 1 sends every sample set through the bracket
    @pytest.mark.parametrize("copy_max", [1, kpca.MEDIAN_COPY_MAX_ROWS])
    @settings(max_examples=80, deadline=None)
    @given(drawn=SAMPLE_SETS, spread=st.booleans())
    def test_equals_sorting_every_pair(self, copy_max, drawn, spread):
        x = tied_rows(drawn)
        if spread:  # break most ties
            x = x + np.random.default_rng(len(x)).standard_normal(x.shape)
        sq = sq_distances(x)
        expected = median_of_sorted_pairs(sq)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kpca, "MEDIAN_COPY_MAX_ROWS", copy_max)
            if expected == 0.0:
                with pytest.raises(DegenerateKernelError):
                    kpca._median_distance(sq)
            else:
                assert kpca._median_distance(sq) == expected
        assert np.array_equal(sq, sq_distances(x))  # read, never written

    def test_a_missed_bracket_falls_back_to_the_copy(self, monkeypatch):
        sq = sq_distances(np.random.default_rng(5).standard_normal((40, 3)))
        monkeypatch.setattr(kpca, "MEDIAN_COPY_MAX_ROWS", 1)
        monkeypatch.setattr(kpca, "_median_bracket", lambda sq, ranks: (0.0, 0.0))
        assert kpca._median_distance(sq) == median_of_sorted_pairs(sq)

    @settings(max_examples=80, deadline=None)
    @given(drawn=SAMPLE_SETS, ends=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    def test_any_bracket_selects_exactly_or_reports_a_miss(self, drawn, ends):
        sq = sq_distances(tied_rows(drawn))
        ranked = upper_pairs_sorted(sq)
        ranks = [(ranked.size - 1) // 2, ranked.size // 2]
        lo, hi = sorted(ranked[int(e * (ranked.size - 1))] for e in ends)
        picked = kpca._select_pairs(sq, ranks, lo, hi)
        if lo <= ranked[ranks[0]] and ranked[ranks[1]] <= hi:
            assert picked == (ranked[ranks[0]], ranked[ranks[1]])
        else:
            assert picked is None

    def test_two_and_three_samples(self):
        assert kpca._median_distance(sq_distances(np.array([[0.0], [3.0]]))) == 3.0
        assert kpca._median_distance(sq_distances(np.array([[0.0], [0.0], [3.0]]))) == 3.0


class TestPeakMemory:
    """One n x n matrix per fit: each peak stays below 1.5 n^2 doubles, and
    below 2.5 on the full eigensolver's path; from
    IMPLICIT_CENTERING_MIN_ORDER samples a KPCA fit's Gram is about n^2/2."""

    N = 600

    def peak_in_matrices(self, fit, n=N):
        fit()  # let every lazy import and cache settle first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / (8 * n**2)

    def test_packed_kpca_fit(self):
        # the packed Gram (0.56 n^2 at n = 1000) and, at any time, at most one
        # BLOCK_ROWS x n block of scratch (0.064) or the Lanczos basis; a whole
        # Gram alone is 1.0
        n = 1000
        x = np.random.default_rng(0).random((n, 5))
        assert self.peak_in_matrices(lambda: kpca_fit(x, n_components=3), n) < 0.7

    def test_two_worker_pipeline_fit(self, monkeypatch):
        # both workers' packed Grams (0.60 n^2 each at n = 600) are alive
        # together, each fit with its scratch (a BLOCK_ROWS x n block is
        # 0.11 n^2); two whole Grams alone would be 2.0
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        workers = []
        map_in_threads = pipeline._map_in_threads
        monkeypatch.setattr(pipeline, "_map_in_threads", lambda task, count, scratch:
                            workers.append(len(scratch)) or map_in_threads(task, count, scratch))
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=620, factors=2, series_per_factor=5))
        train = panel.row_slice(range(600))
        peak = self.peak_in_matrices(lambda: pipeline_fit(train, PipelineConfig(k=2, theta=0.95)))
        assert workers == [2, 2]
        assert peak < 1.7

    def test_two_worker_pipeline_fit_holds_the_columns_once(self, monkeypatch):
        # as many series as rows: the clusters' columns are 1.0 n^2 in all.
        # pipeline_fit releases the normalized matrix once the blocks are
        # gathered, and each model keeps its block: 3.01 here, against 3.88
        # when the matrix lived through the fits and each model kept a copy
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=620, factors=2,
                                               series_per_factor=300))
        train = panel.row_slice(range(600))
        peak = self.peak_in_matrices(lambda: pipeline_fit(train, PipelineConfig(k=2, theta=0.95)))
        assert peak < 3.3

    def test_two_worker_pipeline_fit_on_the_full_solver(self, monkeypatch):
        # theta = 1 goes straight to eigh: each worker's packed Gram stays
        # alive in pipeline_fit's buffer beside the n x n matrix unpacked from
        # it and eigh's eigenvectors, 0.5 n^2 more per worker than a whole
        # Gram centered in place (5.46 here, 4.70 with whole Grams). Allocating the
        # store inside each fit instead would free it before the unpack, but
        # on the partial solver's route it left about 5 MB more resident at
        # 1188 rows, from the helper's own malloc arena
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        panel, _, _ = synth_generate(SynthSpec(seed=3, months=620, factors=2, series_per_factor=5))
        train = panel.row_slice(range(600))
        peak = self.peak_in_matrices(lambda: pipeline_fit(train, PipelineConfig(k=2, theta=1.0)))
        assert peak < 6.0

    def data(self):
        rng = np.random.default_rng(0)
        return rng.random((self.N, 5)), rng.random(self.N)

    def test_gaussian_gram(self):
        x, _ = self.data()
        assert self.peak_in_matrices(lambda: _gram(x, None)) < 1.5

    def test_kpca_fit_partial_eigensolve(self):
        x, _ = self.data()
        assert self.peak_in_matrices(lambda: kpca_fit(x, n_components=3)) < 1.5

    def test_kpca_fit_full_eigensolve(self):
        # n/2 pairs take eigh: the Gram matrix, then eigh's eigenvectors, which
        # _eigenpairs returns as a reversed view and kpca_fit reads after the Gram is freed
        x, _ = self.data()
        assert self.peak_in_matrices(lambda: kpca_fit(x, n_components=self.N // 2)) < 2.5

    # the passes that each keep one BLOCK_ROWS x n block of scratch (0.107 n^2
    # doubles at n = 600), measured alone
    def test_sign_fix(self):
        x, _ = self.data()
        vectors = np.linalg.eigh(center_kernel(_gram(x, None)[0])[0])[1][:, ::-1]
        assert self.peak_in_matrices(lambda: numerics._fix_signs(vectors)) <= 0.12

    def test_finiteness_scan(self):
        x, _ = self.data()
        a = _gram(x, None)[0]
        assert self.peak_in_matrices(lambda: numerics.finite_array(a, "a", 2)) <= 0.12

    def test_kelm_fit(self):
        x, y = self.data()
        assert self.peak_in_matrices(lambda: kelm_fit(x, y)) < 1.5


class TestCenterKernel:
    def test_rows_and_columns_sum_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3))
        k_c, _, _ = center_kernel(_gram(x, GaussianKernel(1.5))[0])
        np.testing.assert_allclose(k_c.sum(axis=0), np.zeros(12), atol=1e-9)
        np.testing.assert_allclose(k_c.sum(axis=1), np.zeros(12), atol=1e-9)

    def test_idempotent_on_centered_input(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 3))
        k_c, _, _ = center_kernel(_gram(x, GaussianKernel(1.0))[0])
        k_cc, _, _ = center_kernel(k_c.copy())  # centering works in place
        np.testing.assert_allclose(k_cc, k_c, atol=1e-12)

    def test_all_ones_centers_to_zero(self):
        k_c, col_means, grand = center_kernel(np.ones((5, 5)))
        np.testing.assert_allclose(k_c, np.zeros((5, 5)), atol=1e-15)
        np.testing.assert_allclose(col_means, np.ones(5))
        assert grand == pytest.approx(1.0)

    def test_linear_gram_of_mean_centered_data_is_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 3))
        x -= x.mean(axis=0)
        k = _gram(x, LinearKernel())[0]
        k_c, _, _ = center_kernel(k.copy())
        np.testing.assert_allclose(k_c, k, atol=1e-10)

    def test_centering_keeps_the_asymmetry(self):
        # centering keeps k - k.T, so a symmetric Gram centers to symmetric
        k = np.array([[1.0, 2.0], [0.0, 1.0]])
        k_c, _, _ = center_kernel(k.copy())
        np.testing.assert_allclose(k_c - k_c.T, k - k.T, atol=1e-15)

    def test_float_input_is_centered_in_place_and_other_input_copied(self):
        k = _gram(np.random.default_rng(4).standard_normal((6, 2)), GaussianKernel(1.0))[0]
        expected = k - k.mean(axis=0)[None, :]
        expected -= k.mean(axis=0)[:, None]
        expected += k.mean()
        k_c, _, _ = center_kernel(k)
        assert k_c is k
        assert np.array_equal(k_c, expected)
        ints = np.arange(9).reshape(3, 3)
        ints_c, _, _ = center_kernel(ints)
        assert ints_c.dtype == float and np.array_equal(ints, np.arange(9).reshape(3, 3))


class TestKpcaFit:
    def test_linear_kernel_matches_pca_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 6)) @ np.diag([3.0, 2.5, 2.0, 1.0, 0.5, 0.25])
        model = kpca_fit(x, kernel=LinearKernel(), n_components=3)
        scores = kpca_transform(model, x)
        oracle = pca_scores(x, x, 3)
        np.testing.assert_allclose(align_signs(scores, oracle), scores, atol=1e-8)

    def test_duplicated_samples_are_degenerate(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        with pytest.raises(DegenerateKernelError, match="degenerate kernel"):
            kpca_fit(x, kernel=GaussianKernel(1.0), n_components=2)

    def test_duplicated_samples_are_degenerate_for_any_request(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (30, 1))
        for selection in ({"n_components": 2}, {"theta": 0.95}):
            with pytest.raises(DegenerateKernelError, match="degenerate kernel"):
                kpca_fit(x, kernel=GaussianKernel(1.0), **selection)

    def test_theta_one_keeps_the_full_usable_rank(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 4))
        model = kpca_fit(x, kernel=GaussianKernel(2.0), theta=1.0)
        k_c, _, _ = center_kernel(_gram(x, GaussianKernel(2.0))[0])
        values = np.sort(np.linalg.eigvalsh(k_c))[::-1]
        expected = int(np.sum(values > 1e-10 * values[0]))
        assert model.n_components == expected

    def test_theta_selection_keeps_smallest_sufficient_count(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 5))
        model = kpca_fit(x, kernel=GaussianKernel(1.5), theta=0.6)
        k_c, _, _ = center_kernel(_gram(x, GaussianKernel(1.5))[0])
        values = np.sort(np.linalg.eigvalsh(k_c))[::-1]
        usable = values[values > 1e-10 * values[0]]
        fractions = np.cumsum(usable) / usable.sum()
        assert fractions[model.n_components - 1] >= 0.6 - 1e-12
        if model.n_components > 1:
            assert fractions[model.n_components - 2] < 0.6

    def test_normalization_and_descending_eigenvalues(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((18, 3))
        model = kpca_fit(x, kernel=GaussianKernel(1.0), theta=0.99)
        for j in range(model.n_components):
            norm_sq = model.alphas[:, j] @ model.alphas[:, j]
            assert model.eigenvalues[j] * norm_sq == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues > 0.0)

    def test_centered_kernel_is_psd_within_tolerance(self):
        rng = np.random.default_rng(8)
        for sigma in (0.5, 2.0):
            x = rng.standard_normal((25, 4))
            k_c, _, _ = center_kernel(_gram(x, GaussianKernel(sigma))[0])
            values = np.linalg.eigvalsh(k_c)
            assert values.min() >= -1e-8 * values.max()

    def test_default_kernel_is_median_heuristic_gaussian(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 3))
        model = kpca_fit(x, theta=0.9)
        assert isinstance(model.kernel, GaussianKernel)
        assert model.kernel.sigma == pytest.approx(np.median(pdist(x)), rel=1e-12)

    def test_selection_argument_validation(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 2))
        with pytest.raises(ValueError, match="not both"):
            kpca_fit(x, kernel=GaussianKernel(1.0), n_components=2, theta=0.9)
        with pytest.raises(ValueError, match="theta"):
            kpca_fit(x, kernel=GaussianKernel(1.0), theta=0.0)
        with pytest.raises(ValueError, match="n_components"):
            kpca_fit(x, kernel=GaussianKernel(1.0), n_components=0)

    def test_requesting_more_components_than_usable_rank_fails(self):
        # 4 samples in a plane: centered linear Gram has rank 2
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="clear the floor"):
            kpca_fit(x, kernel=LinearKernel(), n_components=3)


class TestPartialEigensolve:
    def test_same_keep_as_full_spectrum_on_paper_scale_clusters(self):
        checked = 0
        for seed in range(5):
            panel, _, _ = synth_generate(
                SynthSpec(seed=seed, months=180, factors=7, series_per_factor=10))
            train = panel.row_slice(range(168))
            model = pipeline_fit(train, PipelineConfig(k=6, theta=0.95))
            names = model.indicator_names
            normed = normalize_fit(train.matrix(names), names, train.dates).apply(
                train.matrix(names))
            for j, kmodel in enumerate(model.kpca_models):
                keep, _ = full_spectrum_keep(normed[:, model.cluster.labels == j], 0.95)
                assert kmodel.n_components == keep, (seed, j)
                checked += 1
        assert checked == 30

    def test_doubles_the_request_until_half_the_order(self, monkeypatch):
        x = np.random.default_rng(20).random((40, 12))
        keep, _ = full_spectrum_keep(x, 0.9)
        assert keep == 17  # more than the third request holds
        counts, lanczos = record_requests(monkeypatch)
        model = kpca_fit(x, theta=0.9)
        assert model.n_components == keep
        # the fourth request reaches N/2, so the full solver serves it
        assert counts == [4, 8, 16, 32]
        assert lanczos == [4, 8, 16]

    def test_the_centered_gram_is_checked_once_however_wide_the_request(self, monkeypatch):
        # a Gaussian Gram is never scanned; a linear one is checked once, uncentered
        counts, _ = record_requests(monkeypatch)
        checked = []
        real = kpca.finite_array
        monkeypatch.setattr(kpca, "finite_array",
                            lambda a, name, ndim: checked.append((name, np.shape(a)))
                            or real(a, name, ndim))
        kpca_fit(np.random.default_rng(20).random((40, 12)), theta=0.9)
        assert counts == [4, 8, 16, 32]
        assert checked == [("x", (40, 12))]
        checked.clear()
        kpca_fit(np.random.default_rng(21).random((40, 30)), kernel=LinearKernel(), theta=0.9)
        assert counts == [4, 8, 16, 32] * 2
        assert checked == [("x", (40, 30)), ("kernel matrix", (40, 40))]

    def test_share_within_tolerance_of_theta_takes_the_full_spectrum(self, monkeypatch):
        x = np.random.default_rng(22).random((120, 5))
        _, fractions = full_spectrum_keep(x, 0.5)
        theta = float(fractions[2])  # a share sits exactly on theta
        counts, _ = record_requests(monkeypatch)
        model = kpca_fit(x, theta=theta)
        assert counts == [4, 120]
        assert model.n_components == full_spectrum_keep(x, theta)[0]

    def test_small_sample_uses_the_full_solver(self, monkeypatch):
        x = np.random.default_rng(23).random((7, 3))
        _, lanczos = record_requests(monkeypatch)
        model = kpca_fit(x, theta=0.95)
        assert lanczos == []
        assert model.n_components == full_spectrum_keep(x, 0.95)[0]

    def test_fixed_count_asks_for_that_many_pairs(self, monkeypatch):
        x = np.random.default_rng(24).random((80, 6))
        counts, lanczos = record_requests(monkeypatch)
        model = kpca_fit(x, n_components=3)
        assert counts == [3] and lanczos == [3]
        assert model.n_components == 3

    def test_theta_one_runs_the_full_solver_once(self, monkeypatch):
        # no share passes 1 before the whole spectrum, so the first request
        # asks for all 600 pairs: no Lanczos request, one order-n eigh
        x = np.random.default_rng(0).random((600, 40))
        expected = kpca_fit(x, theta=1.0)
        counts, lanczos = record_requests(monkeypatch)
        orders = record_full_solves(monkeypatch)
        model = kpca_fit(x, theta=1.0)
        assert orders == [600]
        assert counts == [600] and lanczos == []
        assert model.alphas.tobytes() == expected.alphas.tobytes()

    def test_the_model_owns_a_copy_of_the_callers_rows(self):
        x = np.random.default_rng(27).random((60, 4))
        kept = x.copy()
        model = kpca_fit(x, theta=0.95)
        projected = kpca_transform(model, kept)
        x[:] = 0.0
        assert model.x_train.tobytes() == kept.tobytes()
        assert kpca_transform(model, kept).tobytes() == projected.tobytes()

    def test_two_fits_are_byte_identical(self):
        x = np.random.default_rng(25).random((300, 8))
        first, second = kpca_fit(x, theta=0.95), kpca_fit(x.copy(), theta=0.95)
        for field in ("eigenvalues", "alphas", "train_scores", "col_means"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()
        assert first.kernel == second.kernel and first.grand_mean == second.grand_mean


class TestImplicitCentering:
    """From IMPLICIT_CENTERING_MIN_ORDER samples on, a fit leaves its Gram
    uncentered: Lanczos applies J K J inside each product, and
    ``center_kernel`` runs once, only when the full solver serves a request.
    Below that order the Gram is centered once, up front. The tests that
    take the implicit path at small orders lower the threshold to 0."""

    @pytest.fixture()
    def implicit(self, monkeypatch):
        monkeypatch.setattr(kpca, "IMPLICIT_CENTERING_MIN_ORDER", 0)

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_product_equals_the_centered_matrix_product(self, n):
        rng = np.random.default_rng(n)
        k, _, _ = _gram(rng.standard_normal((n, 4)), GaussianKernel(1.5))
        centering = (k.mean(axis=0), float(k.mean()))
        dense = center_kernel(k.copy())[0]
        for v in rng.standard_normal((3, n)):
            want = dense @ v
            got = numerics._product(k, v, centering)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("selection", [{"n_components": 5}, {"theta": 0.9}])
    @pytest.mark.parametrize("n", [40, 168, 600])
    def test_a_fit_equals_the_explicitly_centered_reference(self, n, selection, implicit):
        x = np.random.default_rng(n).random((n, 3))
        model = kpca_fit(x, **selection)
        k, _, _ = _gram(x, model.kernel)
        values, vectors = numerics._eigenpairs(center_kernel(k)[0], model.n_components)
        np.testing.assert_allclose(model.eigenvalues, values, rtol=1e-12, atol=0)
        fitted = model.alphas * np.sqrt(model.eigenvalues)
        np.testing.assert_allclose(align_signs(fitted, vectors), fitted, rtol=0, atol=1e-10)

    @staticmethod
    def count_centerings(monkeypatch):
        calls = []
        real = kpca.center_kernel
        monkeypatch.setattr(kpca, "center_kernel", lambda k: calls.append(k.shape) or real(k))
        return calls

    @pytest.mark.parametrize("route, n, selection", [
        ("half the order", 40, {"n_components": 20}),
        ("below PARTIAL_MIN_ORDER", 7, {"theta": 0.99}),
        ("Lanczos gives up", 40, {"theta": 0.9}),
    ])
    def test_each_full_solver_route_centers_exactly_once(self, route, n, selection, implicit,
                                                         monkeypatch):
        x = np.random.default_rng(26).random((n, 12))
        expected = kpca_fit(x, **selection)
        calls = self.count_centerings(monkeypatch)
        counts, _ = record_requests(monkeypatch)
        orders = record_full_solves(monkeypatch)
        if route == "Lanczos gives up":
            monkeypatch.setattr(numerics, "_lanczos", lambda a, count, centering=None: None)
        model = kpca_fit(x, **selection)
        assert calls == [(n, n)]
        # the first request runs the full solver, once; any later one reads its pairs
        assert counts == [selection.get("n_components", kpca.FIRST_REQUEST)]
        assert orders == [n]
        assert model.n_components == expected.n_components
        np.testing.assert_allclose(model.eigenvalues, expected.eigenvalues, rtol=1e-12, atol=0)

    def test_the_partial_solver_never_centers(self, implicit, monkeypatch):
        calls = self.count_centerings(monkeypatch)
        model = kpca_fit(np.random.default_rng(24).random((80, 6)), n_components=3)
        assert calls == [] and model.n_components == 3

    def test_below_the_order_the_gram_is_centered_once_up_front(self, monkeypatch):
        x = np.random.default_rng(24).random((80, 6))
        calls = self.count_centerings(monkeypatch)
        centerings = []
        real = numerics._lanczos
        monkeypatch.setattr(numerics, "_lanczos", lambda a, count, centering=None:
                            centerings.append(centering) or real(a, count, centering))
        model = kpca_fit(x, n_components=3)
        assert calls == [(80, 80)] and centerings == [None]
        k, _, _ = _gram(x, model.kernel)
        values, vectors = numerics._eigenpairs(center_kernel(k)[0], 3)
        assert model.eigenvalues.tobytes() == values.tobytes()
        assert model.alphas.tobytes() == np.divide(vectors, np.sqrt(values), order="F").tobytes()

    def test_a_leading_eigenvalue_within_the_grams_rounding_is_no_spectrum(self):
        noise = np.finfo(float).eps * 30  # eps n max(diag K) of a 30-sample Gaussian Gram
        with pytest.raises(DegenerateKernelError, match="degenerate kernel"):
            kpca._usable_count(np.array([noise, noise / 2]), noise)
        assert kpca._usable_count(np.array([2 * noise, noise]), noise)[0] == 2

    @pytest.mark.parametrize("threshold", [0, kpca.IMPLICIT_CENTERING_MIN_ORDER])
    @pytest.mark.parametrize("n", [5, 30, 600])
    def test_duplicated_samples_are_degenerate_at_any_order(self, n, threshold, monkeypatch):
        # the implicit product's rounding, at eps times the uncentered Gram,
        # is not taken for a spectrum
        monkeypatch.setattr(kpca, "IMPLICIT_CENTERING_MIN_ORDER", threshold)
        x = np.tile(np.array([1.0, 2.0, 3.0]), (n, 1))
        for selection in ({"n_components": 2}, {"theta": 0.95}):
            with pytest.raises(DegenerateKernelError, match="degenerate kernel"):
                kpca_fit(x, kernel=GaussianKernel(1.0), **selection)


class TestPackedGram:
    """From IMPLICIT_CENTERING_MIN_ORDER samples a fit stores its Gram as a
    PackedGram: each PACKED_ROWS-row block's diagonal square and the panel to
    its right. Orders 512, 600 and 1300; the last two end in a short block."""

    ORDERS = [512, 600, 1300]

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("kernel", [None, LinearKernel()], ids=["gaussian", "linear"])
    def test_the_store_unpacks_to_the_full_gram(self, n, kernel):
        x = np.random.default_rng(n).standard_normal((n, 9))
        store, kernel, norms = _packed_gram(x, kernel)
        full, _, dense_norms = _gram(x, kernel)
        assert store.buffer.size == gram_size(n) <= n * n / 2 + kpca.PACKED_ROWS * n / 2
        if isinstance(kernel, GaussianKernel):
            assert kernel.sigma == pytest.approx(_gram(x, None)[1].sigma, rel=1e-14)
            assert norms.tobytes() == dense_norms.tobytes()
        for r0, r1, square, panel in store.blocks:
            rows = x[r0:r1]
            want = (rows @ rows.T if isinstance(kernel, LinearKernel)
                    else kernel.of_sq_distances(sq_distances(rows)))
            assert square.tobytes() == want.tobytes()
            assert np.array_equal(square, square.T)
            assert panel.shape == (r1 - r0, n - r1)
        if isinstance(kernel, GaussianKernel):
            assert np.array_equal(store.diagonal(), np.ones(n))
        unpacked = store.unpack()
        assert np.array_equal(unpacked, unpacked.T)
        np.testing.assert_allclose(unpacked, full, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n", ORDERS)
    def test_products_and_pairs_read_the_triangle(self, n):
        x = np.random.default_rng(n).standard_normal((n, 9))
        store, _, _ = _packed_gram(x, GaussianKernel(3.0))
        rng = np.random.default_rng(1)
        rows, cols = rng.integers(0, n, 4000), rng.integers(0, n, 4000)
        upper = rows < cols
        picked = store.entries(rows[upper], cols[upper])
        v = rng.standard_normal(n)
        product = store @ v
        full = store.unpack()
        assert picked.tobytes() == full[rows[upper], cols[upper]].tobytes()
        np.testing.assert_allclose(product, full @ v, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("kernel", [None, LinearKernel()], ids=["gaussian", "linear"])
    @pytest.mark.parametrize("selection", [{"n_components": 3}, {"theta": 0.9}])
    def test_a_fit_equals_the_full_explicitly_centered_reference(self, n, kernel, selection):
        x = np.random.default_rng(n).standard_normal((n, 9))
        model = kpca_fit(x, kernel=kernel, **selection)
        k, _, _ = _gram(x, model.kernel)
        values, vectors = numerics._eigenpairs(center_kernel(k)[0], model.n_components)
        np.testing.assert_allclose(model.eigenvalues, values, rtol=1e-12, atol=0)
        fitted = model.alphas * np.sqrt(model.eigenvalues)
        np.testing.assert_allclose(align_signs(fitted, vectors), fitted, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n, selection", [(512, {"theta": 1.0}), (600, {"theta": 1.0}),
                                              (1300, {"theta": 1.0}), (512, "half"),
                                              (600, "half"), (1300, "half")],
                             ids=["theta1-512", "theta1-600", "theta1-1300", "half-512",
                                  "half-600", "half-1300"])
    def test_the_full_solver_reads_the_unpacked_store(self, n, selection, monkeypatch):
        x = np.random.default_rng(n).standard_normal((n, 40))
        selection = {"n_components": n // 2} if selection == "half" else selection
        unpacked = []
        real = PackedGram.unpack
        monkeypatch.setattr(PackedGram, "unpack", lambda store: unpacked.append(n) or real(store))
        model = kpca_fit(x, kernel=GaussianKernel(8.0), **selection)
        assert unpacked == [n]
        dense = center_kernel(_gram(x, GaussianKernel(8.0))[0])[0]
        values = np.linalg.eigvalsh(dense)[::-1][:model.n_components]
        np.testing.assert_allclose(model.eigenvalues, values, rtol=1e-12, atol=0)
        if "theta" in selection:
            assert model.n_components == int(np.sum(values > 1e-10 * values[0]))

    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("kernel", [GaussianKernel(1.0), LinearKernel()],
                             ids=["gaussian", "linear"])
    def test_duplicated_samples_are_degenerate_for_every_request(self, n, kernel):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (n, 1))
        for selection in ({"n_components": 2}, {"n_components": n // 2}, {"theta": 0.95},
                          {"theta": 1.0}):
            with pytest.raises(DegenerateKernelError, match="degenerate kernel"):
                kpca_fit(x, kernel=kernel, **selection)
        with pytest.raises(DegenerateKernelError, match="duplicated"):
            kpca_fit(x)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("where", ["square", "panel"])
    def test_an_overflow_raises_the_fits_message(self, n, where):
        # |x|^2 of the 1e200 rows overflows: inf - inf between two of them
        x = np.random.default_rng(n).standard_normal((n, 3))
        x[3] = 1e200
        kpca_fit(x, kernel=GaussianKernel(1.0), n_components=2)  # one huge row: distances inf
        x[5 if where == "square" else n - 2] = 1.1e200
        with pytest.raises(ValueError, match="^inputs too large: squared distances overflow$"):
            kpca_fit(x, kernel=GaussianKernel(1.0), n_components=2)
        with pytest.raises(ValueError, match="^kernel matrix contains non-finite values$"):
            kpca_fit(x, kernel=LinearKernel(), n_components=2)

    @pytest.mark.parametrize("n", [100, 600])
    def test_out_receives_the_storage_and_moves_no_bit(self, n):
        x = np.random.default_rng(n).random((n, 4))
        out = np.full(gram_size(n), np.nan)
        into, alone = kpca_fit(x, theta=0.95, out=out), kpca_fit(x, theta=0.95)
        assert not np.isnan(out).any()
        assert into.kernel == alone.kernel
        for field in ("eigenvalues", "alphas", "col_means"):
            assert getattr(into, field).tobytes() == getattr(alone, field).tobytes()


class TestKpcaTransform:
    def test_stored_training_scores_equal_the_projection(self):
        x = np.random.default_rng(16).random((200, 6))
        model = kpca_fit(x, theta=0.95)
        np.testing.assert_allclose(model.train_scores, kpca_transform(model, x), atol=1e-10)

    def test_training_rows_reproduce_training_projection(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((16, 4))
        model = kpca_fit(x, kernel=GaussianKernel(1.3), theta=0.95)
        # training projection j for row i is lambda_j * alpha_j[i]
        expected = model.alphas * model.eigenvalues[None, :]
        np.testing.assert_allclose(kpca_transform(model, x), expected, atol=1e-9)

    def test_out_of_sample_matches_pca_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 6))
        fresh = rng.standard_normal((8, 6))
        model = kpca_fit(x, kernel=LinearKernel(), n_components=4)
        scores = kpca_transform(model, fresh)
        oracle = pca_scores(x, fresh, 4)
        np.testing.assert_allclose(align_signs(scores, oracle), scores, atol=1e-8)

    def test_training_scores_are_zero_mean_with_variance_lambda_over_n(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((24, 5))
        model = kpca_fit(x, kernel=GaussianKernel(2.0), theta=0.99)
        scores = kpca_transform(model, x)
        np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(scores.var(axis=0), model.eigenvalues / 24, atol=1e-8)

    def test_single_sample_shape_and_batch_consistency(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((10, 3))
        model = kpca_fit(x, kernel=GaussianKernel(1.0), n_components=2)
        single = kpca_transform(model, x[3:4])
        assert single.shape == (1, 2)
        np.testing.assert_allclose(single[0], kpca_transform(model, x)[3], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        model = kpca_fit(rng.standard_normal((8, 3)), kernel=GaussianKernel(1.0), n_components=2)
        with pytest.raises(ValueError, match="dimension"):
            kpca_transform(model, np.ones((1, 4)))
        with pytest.raises(ValueError, match="2-D"):
            kpca_transform(model, np.ones(3))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestDistanceOverflow:
    # |x|^2 of the 1e200 rows overflows, so the GEMM form -2 x z' + |x|^2 + |z|^2
    # is inf - inf between them
    X = np.array([[1e200], [0.0], [1.0], [2.0], [3.0]])
    ROWS = np.array([[1.1e200], [1.0]])

    def test_a_fit_whose_only_overflow_is_the_diagonal_still_fits(self):
        k, _, _ = _gram(self.X, GaussianKernel(1.0))
        assert np.all(np.isfinite(k)) and np.array_equal(np.diag(k), np.ones(5))
        assert k[0, 1] == 0.0  # an infinite distance is a valid kernel value of 0

    def test_prediction_rows_whose_distances_overflow_raise_instead_of_giving_nan(self):
        model = kpca_fit(self.X, kernel=GaussianKernel(1.0), n_components=2)
        kelm = kelm_fit(self.X, np.arange(1.0, 6.0), kernel=GaussianKernel(1.0))
        message = "^inputs too large: squared distances overflow$"
        with pytest.raises(ValueError, match=message):
            kpca_transform(model, self.ROWS)
        with pytest.raises(ValueError, match=message):
            kelm_predict(kelm, self.ROWS)
        with pytest.raises(ValueError, match=message):
            kpca_fit(np.vstack([self.X, self.ROWS]), kernel=GaussianKernel(1.0), n_components=2)

    def test_linear_prediction_rows_that_overflow_raise_instead_of_giving_nan(self):
        # at 1e308 the kernel values x z' overflow; at 1e306 they are finite
        # and their weighted sum in kelm_predict overflows
        x = np.random.default_rng(27).standard_normal((20, 3))
        model = kpca_fit(x, kernel=LinearKernel(), n_components=2)
        kelm = kelm_fit(x, np.arange(20.0), kernel=LinearKernel())
        message = "^inputs too large: kernel rows overflow$"
        with pytest.raises(ValueError, match=message):
            kpca_transform(model, [[1e308] * 3])
        for scale in (1e308, 1e306):
            with pytest.raises(ValueError, match=message):
                kelm_predict(kelm, [[scale] * 3])

    def test_a_linear_gram_that_overflows_is_rejected_by_both_fits(self):
        x = np.random.default_rng(28).standard_normal((20, 3))
        x[0] = 1e200
        with pytest.raises(ValueError, match="^kernel matrix contains non-finite values$"):
            kpca_fit(x, kernel=LinearKernel(), n_components=2)
        with pytest.raises(ValueError, match="^kernel matrix contains non-finite values$"):
            kelm_fit(x, np.arange(20.0), kernel=LinearKernel())
