"""Symmetric eigensolver, SPD solve, Gram symmetry, array checks and BLAS thread
contracts."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from oilcast import baselines, cli, clustering, evaluation, kpca, numerics, pipeline, regressors, synth
from oilcast.kpca import center_kernel
from oilcast.numerics import (
    CHOLESKY_BLOCK,
    NotPositiveDefiniteError,
    NumericalError,
    _eigenpairs,
    _solve_spd,
    finite_array,
    one_blas_thread,
    sq_distances,
)
from oilcast.synth import SynthSpec, synth_generate


def centered_gaussian_gram(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    k = np.exp(-cdist(x, x, "sqeuclidean") / d)
    k -= k.mean(axis=0)[None, :]
    k -= k.mean(axis=1)[:, None]
    return (k + k.T) / 2.0


def no_lanczos(*args, **kwargs):
    raise AssertionError("the partial solver was used")


class TestSqDistances:
    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (40, 7), (300, 33)])
    def test_symmetric_zero_diagonal_and_matches_cdist(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape) * 3.0 + 1.0
        sq = sq_distances(x)
        assert np.all(sq >= 0.0)
        assert np.array_equal(sq, sq.T)
        assert np.all(np.diag(sq) == 0.0)
        scale = np.max(np.sum(x * x, axis=1))
        np.testing.assert_allclose(sq, cdist(x, x, "sqeuclidean"), rtol=0, atol=1e-12 * scale)

    def test_strided_input_is_still_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 66))[:, ::2]
        sq = sq_distances(x)
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(sq, sq_distances(np.ascontiguousarray(x)))

    def test_two_sets_match_cdist_and_clamp_at_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 4))
        z = np.vstack([x[:3], rng.standard_normal((5, 4))])
        sq = sq_distances(x, z)
        assert sq.shape == (9, 8)
        assert np.all(sq >= 0.0)
        scale = max(np.max(np.sum(x * x, axis=1)), np.max(np.sum(z * z, axis=1)))
        np.testing.assert_allclose(sq, cdist(x, z, "sqeuclidean"), rtol=0, atol=1e-12 * scale)


class TestBlockedPasses:
    """Each pass that walks a matrix ``BLOCK_ROWS`` rows (or columns) at a
    time gives the answer of one whole-matrix pass, whatever the block."""

    # 256 rows exceed every order drawn here, so that case makes one block
    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    @pytest.mark.parametrize("seed", range(6))
    def test_blocked_passes_give_the_full_matrix_answer(self, block, seed, monkeypatch):
        # small integer entries make tied distances and tied magnitudes common
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        x = rng.integers(-3, 4, size=(n, d)).astype(float)
        vectors = rng.integers(-3, 4, size=(n, int(rng.integers(1, 40)))).astype(float)
        monkeypatch.setattr(numerics, "BLOCK_ROWS", block)
        monkeypatch.setattr(kpca, "BLOCK_ROWS", block)

        # the distance update: the norms added to the whole product at once
        norms = np.einsum("ij,ij->i", x, x)
        expected = np.maximum(-2.0 * (x @ x.T) + np.add.outer(norms, norms), 0.0)
        np.fill_diagonal(expected, 0.0)
        sq = sq_distances(x)
        assert np.array_equal(sq, expected)

        # the finiteness scan finds one non-finite entry wherever it is
        assert finite_array(x, "x", 2) is not None
        spoiled = x.copy()
        spoiled[rng.integers(n), rng.integers(d)] = np.inf
        with pytest.raises(ValueError, match="^x contains non-finite values$"):
            finite_array(spoiled, "x", 2)

        # the sign fix: each column's first largest-magnitude entry made positive
        lead = np.argmax(np.abs(vectors), axis=0)
        expected = vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
        numerics._fix_signs(vectors)
        assert np.array_equal(vectors, expected)

        # the median search: the upper-triangle pairs at two ranks, or None
        # when the bracket misses them
        ranked = np.sort(sq[np.triu_indices(n, 1)])
        ranks = [(ranked.size - 1) // 2, ranked.size // 2]
        lo, hi = ranked[max(ranks[0] - 2, 0)], ranked[min(ranks[1] + 2, ranked.size - 1)]
        assert kpca._select_pairs(sq, ranks, lo, hi) == (ranked[ranks[0]], ranked[ranks[1]])
        if ranked[ranks[0]] < ranked[-1]:
            assert kpca._select_pairs(sq, ranks, ranked[-1], ranked[-1]) is None


def layouts(x, layout):
    """``x`` with the same values, C-ordered, Fortran-ordered or as a strided view."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


class TestBuiltGramsNeedNoScan:
    """No Gram goes to the solvers scanned for symmetry, and a Gaussian one
    goes unscanned; these are the invariants that make that safe, over random
    finite inputs (``test_regressors.TestRidgeDual`` covers the ELM's system)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 70), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), layout=st.sampled_from(["C", "F", "strided"]),
           into_out=st.booleans(), sigma=st.one_of(st.none(), st.floats(0.05, 20.0)))
    def test_gaussian_gram_is_symmetric_and_centers_within_the_tolerance(
            self, n, d, seed, scale, layout, into_out, sigma):
        x = layouts(np.random.default_rng(seed).standard_normal((n, d)) * scale, layout)
        out = np.empty((n, n)) if into_out else None
        kernel = None if sigma is None else kpca.GaussianKernel(sigma * scale)
        k, _ = kpca._gram(x, kernel, out=out)
        assert np.array_equal(k, k.T)
        assert np.all(np.isfinite(k))
        k_c, _, _ = center_kernel(k)
        assert np.max(np.abs(k_c - k_c.T)) <= 1e-10  # centering's rounding only

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 70), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["C", "F", "strided"]), into_out=st.booleans())
    def test_linear_gram_is_exactly_symmetric(self, n, d, seed, layout, into_out):
        x = layouts(np.random.default_rng(seed).standard_normal((n, d)), layout)
        out = np.empty((n, n)) if into_out else None
        k, _ = kpca._gram(x, kpca.LinearKernel(), out=out)
        assert np.array_equal(k, k.T)
        assert out is None or k is out


class TestSymEig:
    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] has eigenpairs (3, [1, 1]/sqrt(2)) and (1, [1, -1]/sqrt(2)).
        values, vectors = _eigenpairs(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-12)

    def test_identity_gives_unit_eigenvalues_and_orthonormal_basis(self):
        values, vectors = _eigenpairs(np.eye(4), 4)
        np.testing.assert_allclose(values, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)

    def test_reconstruction_order_and_sign_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            raw = rng.standard_normal((n, n))
            a = (raw + raw.T) / 2.0
            values, vectors = _eigenpairs(a, n)
            recon = vectors @ np.diag(values) @ vectors.T
            np.testing.assert_allclose(recon, a, atol=1e-8)
            assert np.all(np.diff(values) <= 1e-12), "eigenvalues not descending"
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-8)
            for col in range(n):
                lead = int(np.argmax(np.abs(vectors[:, col])))
                assert vectors[lead, col] > 0, f"sign convention broken in column {col}"


class TestPartialSymEig:
    @pytest.mark.parametrize("n, count", [(60, 1), (200, 5), (400, 12)])
    def test_leading_pairs_match_full_solver(self, n, count):
        a = centered_gaussian_gram(n, 6, seed=n)
        values, vectors = _eigenpairs(a, count)
        full_values, full_vectors = _eigenpairs(a, n)
        assert values.shape == (count,) and vectors.shape == (n, count)
        np.testing.assert_allclose(values, full_values[:count], rtol=1e-12, atol=0)
        np.testing.assert_allclose(vectors, full_vectors[:, :count], rtol=0, atol=1e-10)
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(count)] > 0)

    def test_reruns_are_byte_identical(self):
        a = centered_gaussian_gram(150, 4, seed=3)
        first = _eigenpairs(a, 6)
        second = _eigenpairs(a.copy(), 6)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_half_the_order_uses_the_full_solver(self, monkeypatch):
        a = centered_gaussian_gram(20, 3, seed=4)
        expected = _eigenpairs(a, 20)
        monkeypatch.setattr(numerics, "_lanczos", no_lanczos)
        values, vectors = _eigenpairs(a, 10)
        assert np.array_equal(values, expected[0][:10])
        assert np.array_equal(vectors, expected[1][:, :10])

    def test_small_order_uses_the_full_solver(self, monkeypatch):
        a = centered_gaussian_gram(7, 2, seed=5)
        expected = _eigenpairs(a, 7)
        monkeypatch.setattr(numerics, "_lanczos", no_lanczos)
        values, vectors = _eigenpairs(a, 1)
        assert np.array_equal(values, expected[0][:1])
        assert np.array_equal(vectors, expected[1][:, :1])

    def test_zero_matrix_falls_back_to_the_full_solver(self):
        # every start vector maps to 0, which ARPACK refuses
        values, vectors = _eigenpairs(np.zeros((12, 12)), 2)
        assert np.array_equal(values, np.zeros(2))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)

    def test_count_must_lie_in_range(self):
        with pytest.raises(ValueError, match="count"):
            _eigenpairs(np.eye(3), 0)
        with pytest.raises(ValueError, match="count"):
            _eigenpairs(np.eye(3), 4)


class TestLanczos:
    """``_lanczos`` against ``np.linalg.eigh``; None sends a request to the full solver."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(n=st.integers(8, 60), d=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_the_full_solver(self, n, d, seed, data):
        count = data.draw(st.integers(1, (n - 1) // 2))  # the requests _eigenpairs makes of it
        a = centered_gaussian_gram(n, d, seed)
        pairs = numerics._lanczos(a, count)
        assert pairs is not None
        values, vectors = pairs
        full = np.linalg.eigh(a)[0][::-1][:count]
        scale = abs(full[0])
        assert np.all(np.diff(values) >= 0)  # ascending, as eigh returns them
        np.testing.assert_allclose(values[::-1], full, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(count), rtol=0, atol=1e-12)
        assert np.max(np.abs(a @ vectors - vectors * values)) <= 1e-12 * scale

    def test_reruns_are_byte_identical(self):
        a = centered_gaussian_gram(150, 4, seed=3)
        first, second = numerics._lanczos(a, 6), numerics._lanczos(a.copy(), 6)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_zero_matrix_gives_up(self):
        assert numerics._lanczos(np.zeros((12, 12)), 2) is None

    def test_rank_one_matrix_continues_into_its_null_space(self):
        # the Krylov space closes after 2 vectors, up to rounding; the rounding,
        # orthogonalized twice, is a new direction in the null space
        v = np.random.default_rng(4).standard_normal(20)
        a = np.outer(v, v)
        values, vectors = numerics._lanczos(a, 3)
        np.testing.assert_allclose(values, [0.0, 0.0, v @ v], rtol=0, atol=1e-12 * (v @ v))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(3), rtol=0, atol=1e-12)
        assert np.max(np.abs(a @ vectors - vectors * values)) <= 1e-12 * (v @ v)

    def test_gives_up_at_the_basis_cap(self):
        # evenly spaced eigenvalues: the largest converges far slower than the
        # 2 + LANCZOS_SLACK vectors a one-pair request may keep
        a = np.diag(np.arange(1.0, 401.0))
        assert numerics._lanczos(a, 1) is None
        values, vectors = _eigenpairs(a, 1)
        assert values[0] == 400.0 and vectors[-1, 0] == 1.0


class TestSolveSpd:
    def test_diagonal_hand_values(self):
        x = _solve_spd(np.diag([2.0, 3.0]), np.array([4.0, 9.0]))
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-12)

    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] @ [1, 1] = [3, 3]
        x = _solve_spd(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_matches_generic_solver_on_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            r = rng.standard_normal((n, n))
            a = r @ r.T + n * np.eye(n)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(_solve_spd(a.copy(), b), np.linalg.solve(a, b), atol=1e-9)

    def test_indefinite_matrix_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            _solve_spd(np.diag([1.0, -1.0]), np.ones(2))
        assert exc.value.pivot == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            _solve_spd(np.zeros((3, 3)), np.ones(3))
        assert exc.value.pivot == 0

    def test_rejects_bad_rhs(self):
        # the solver takes what it is given; kelm_fit checks the targets it hands over
        with pytest.raises(ValueError, match="shape"):
            regressors.kelm_fit(np.zeros((2, 1)), [1.0, 2.0, 3.0])

    def test_error_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            _solve_spd(np.diag([1.0, -1.0]), np.ones(2))

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 167, CHOLESKY_BLOCK, CHOLESKY_BLOCK + 1,
                                   2 * CHOLESKY_BLOCK + 70])
    def test_matches_the_generic_solver_and_factors_in_place(self, n):
        rng = np.random.default_rng(n)
        r = rng.standard_normal((n, n))
        a = r @ r.T / n + 0.1 * np.eye(n)
        b = rng.standard_normal(n)
        work = a.copy()
        x = _solve_spd(work, b)
        expected = np.linalg.solve(a, b)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
        factor = np.tril(work)  # the factor L, in the matrix's own memory
        np.testing.assert_allclose(factor, np.linalg.cholesky(a), rtol=0, atol=1e-12 * np.sqrt(n))

    @pytest.mark.parametrize("pivot", [5, CHOLESKY_BLOCK - 1, CHOLESKY_BLOCK,
                                       2 * CHOLESKY_BLOCK, 2 * CHOLESKY_BLOCK + 69])
    def test_pivot_index_in_any_block(self, pivot):
        # the first block, its last row, the first row of the next block (a block
        # boundary), and the first and the last row of the last block
        n = 2 * CHOLESKY_BLOCK + 70
        rng = np.random.default_rng(pivot)
        r = rng.standard_normal((n, n))
        a = r @ r.T / n + 0.1 * np.eye(n)
        a[pivot, pivot] = -1.0  # every leading minor short of this row stays definite
        assert lapack.dpotrf(a, lower=1)[1] - 1 == pivot  # LAPACK's own report
        with pytest.raises(NotPositiveDefiniteError) as exc:
            _solve_spd(a.copy(), np.ones(n))
        assert exc.value.pivot == pivot


class TestVectorTargets:
    @pytest.mark.parametrize("fit", [
        lambda x, y: regressors.elm_fit(x, y, n_hidden=5),
        lambda x, y: regressors.kelm_fit(x, y),
    ], ids=["elm_fit", "kelm_fit"])
    def test_a_stacked_target_is_rejected(self, fit):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 3))
        fit(x, rng.standard_normal(12))
        with pytest.raises(ValueError, match=r"^y must be 1-D, got shape \(12, 2\)$"):
            fit(x, rng.standard_normal((12, 2)))


N, D = 20, 3  # the rows and columns of ``good.x``


@pytest.fixture(scope="module")
def good():
    """Inputs that every array entry point accepts, and the models the
    predicting ones take."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((N, D))
    y = rng.uniform(1.0, 2.0, N)
    return SimpleNamespace(
        series=rng.standard_normal((6, 30)), x=x, y=y,
        kpca=kpca.kpca_fit(x, n_components=2), elm=regressors.elm_fit(x, y, n_hidden=5),
        kelm=regressors.kelm_fit(x, y), ar=baselines.ar_fit(y, max_p=2))


def evaluate_call(arg):
    """``evaluation.evaluate(y, yhat)`` with the argument ``arg`` altered."""
    def call(g, bad):
        y, yhat = (bad(g.y), g.y) if arg == "y" else (g.y, bad(g.y))
        return evaluation.evaluate(y, yhat)
    return call


# entry point -> (argument name, the call with that argument altered by ``bad``)
ARRAY_ENTRY_POINTS = {
    "finite_array": ("v", lambda g, bad: finite_array(bad(g.y), "v", 1)),
    "kmeans_fit": ("series", lambda g, bad: clustering.kmeans_fit(bad(g.series), 2)),
    "elbow_select": ("series", lambda g, bad: clustering.elbow_select(bad(g.series), [1, 2, 3])),
    "kpca_fit": ("x", lambda g, bad: kpca.kpca_fit(bad(g.x))),
    "kpca_transform": ("x", lambda g, bad: kpca.kpca_transform(g.kpca, bad(g.x))),
    "elm_fit x": ("x", lambda g, bad: regressors.elm_fit(bad(g.x), g.y)),
    "elm_fit y": ("y", lambda g, bad: regressors.elm_fit(g.x, bad(g.y))),
    "elm_predict": ("x", lambda g, bad: regressors.elm_predict(g.elm, bad(g.x))),
    "kelm_fit x": ("x", lambda g, bad: regressors.kelm_fit(bad(g.x), g.y)),
    "kelm_fit y": ("y", lambda g, bad: regressors.kelm_fit(g.x, bad(g.y))),
    "kelm_predict": ("x", lambda g, bad: regressors.kelm_predict(g.kelm, bad(g.x))),
    "ar_fit": ("y", lambda g, bad: baselines.ar_fit(bad(g.y), max_p=2)),
    "ar_forecast": ("history", lambda g, bad: baselines.ar_forecast(g.ar, bad(g.y), 2)),
    "naive_forecast": ("history", lambda g, bad: baselines.naive_forecast(bad(g.y), 2)),
    "univariate_lag_features": ("y", lambda g, bad: baselines.univariate_lag_features(bad(g.y), 2)),
    **{f"evaluate {arg}": (arg, evaluate_call(arg)) for arg in ("y", "yhat")},
}


def with_nan(v):
    v = v.copy()
    v.flat[v.size // 2] = np.nan
    return v


def other_ndim(v):
    return v[0] if v.ndim == 2 else v[:, None]


class TestOneArrayCheck:
    @pytest.mark.filterwarnings("ignore:WCSS curve has no elbow")
    @pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
    def test_a_bad_array_is_named_by_its_argument(self, entry, good):
        name, call = ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            call(good, with_nan)
        with pytest.raises(ValueError, match=rf"^{name} must be [12]-D, got shape \("):
            call(good, other_ndim)
        call(good, lambda v: v)  # the unaltered inputs pass


def record_checks(monkeypatch):
    """(name, shape) of every ``finite_array`` call in the array-taking modules."""
    arrays = []
    real_finite = numerics.finite_array

    def finite(x, name, ndim):
        arrays.append((name, np.shape(x)))
        return real_finite(x, name, ndim)

    for module in (numerics, kpca, regressors, evaluation):
        monkeypatch.setattr(module, "finite_array", finite)
    return arrays


# call -> (the call on ``good``, its array checks as (name, shape)); a linear
# Gram is checked once, as its solver receives it, and a Gaussian one never
CHECKS_PER_CALL = {
    "kpca_fit median": (lambda g: kpca.kpca_fit(g.x, theta=0.95), [("x", (N, D))]),
    "kpca_fit sigma": (lambda g: kpca.kpca_fit(g.x, kernel=kpca.GaussianKernel(1.0),
                                               n_components=2), [("x", (N, D))]),
    "kpca_fit linear kernel": (lambda g: kpca.kpca_fit(g.x, kernel=kpca.LinearKernel(),
                                                       n_components=2),
                               [("x", (N, D)), ("kernel matrix", (N, N))]),
    "kpca_transform": (lambda g: kpca.kpca_transform(g.kpca, g.x), [("x", (N, D))]),
    "kelm_fit": (lambda g: regressors.kelm_fit(g.x, g.y), [("x", (N, D)), ("y", (N,))]),
    "kelm_fit linear kernel": (lambda g: regressors.kelm_fit(g.x, g.y, kernel=kpca.LinearKernel()),
                               [("x", (N, D)), ("y", (N,)), ("kernel matrix", (N, N))]),
    "kelm_predict": (lambda g: regressors.kelm_predict(g.kelm, g.x), [("x", (N, D))]),
    "elm_fit": (lambda g: regressors.elm_fit(g.x, g.y, n_hidden=5),  # H H' is a linear Gram
                [("x", (N, D)), ("y", (N,)), ("kernel matrix", (N, N))]),
    "elm_predict": (lambda g: regressors.elm_predict(g.elm, g.x), [("x", (N, D))]),
    "evaluate": (lambda g: evaluation.evaluate(g.y, g.y[::-1]), [("y", (N,)), ("yhat", (N,))]),
}


class TestEachArrayCheckedOnce:
    @pytest.mark.parametrize("call", CHECKS_PER_CALL)
    def test_each_array_is_checked_once_and_a_gaussian_gram_never(self, call, good, monkeypatch):
        run, expected = CHECKS_PER_CALL[call]
        arrays = record_checks(monkeypatch)
        run(good)
        assert arrays == expected


def thread_counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture()
def blas():
    """The loaded OpenBLAS libraries' thread controls, each set to 2 threads."""
    controls = numerics._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded, so there is no thread count to check")
    saved = thread_counts(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)


class TestOneBlasThread:
    def test_one_thread_inside_and_restored_after(self, blas):
        before = thread_counts(blas)
        with one_blas_thread():
            assert thread_counts(blas) == [1] * len(blas)
        assert thread_counts(blas) == before

    def test_restored_after_an_exception(self, blas):
        before = thread_counts(blas)
        with pytest.raises(KeyError, match="boom"):
            with one_blas_thread():
                raise KeyError("boom")
        assert thread_counts(blas) == before

    def test_nested_use_leaves_the_outer_state(self, blas):
        before = thread_counts(blas)
        with one_blas_thread():
            with one_blas_thread():
                assert thread_counts(blas) == [1] * len(blas)
            assert thread_counts(blas) == [1] * len(blas)
        assert thread_counts(blas) == before

    def test_without_openblas_does_nothing(self, monkeypatch):
        controls = numerics._openblas_controls()
        before = thread_counts(controls)
        monkeypatch.setattr(numerics, "_openblas_controls", lambda: ())
        with one_blas_thread():
            assert thread_counts(controls) == before
        assert thread_counts(controls) == before

    @pytest.mark.parametrize("entry", ["pipeline_fit", "pipeline_predict", "main",
                                       "granger_filter", "kmeans_fit", "elbow_select",
                                       "kpca_fit", "kpca_transform", "elm_fit", "elm_predict",
                                       "kelm_fit", "kelm_predict", "synth_generate", "ar_fit"])
    def test_entry_points_run_at_one_thread_and_restore(self, entry, blas, monkeypatch):
        seen = []

        def probe(*args, **kwargs):
            seen.append(thread_counts(blas))
            raise ValueError("probe")

        panel, _, _ = synth_generate(SynthSpec(seed=0, months=48))
        x = panel.matrix(panel.indicator_names("H"))
        y = panel.columns["price"]
        # a library stage called directly: (module, the helper it calls first, the call)
        stages = {
            "kmeans_fit": (clustering, "_standardized", lambda: clustering.kmeans_fit(x.T, 2)),
            "elbow_select": (clustering, "_standardized",
                             lambda: clustering.elbow_select(x.T, range(1, 4))),
            "kpca_fit": (kpca, "finite_array", lambda: kpca.kpca_fit(x)),
            "kpca_transform": (kpca, "finite_rows",
                               lambda: kpca.kpca_transform(SimpleNamespace(x_train=x), x)),
            "elm_fit": (regressors, "_as_xy", lambda: regressors.elm_fit(x, y)),
            "elm_predict": (regressors, "finite_rows",
                            lambda: regressors.elm_predict(SimpleNamespace(weights=x), x)),
            "kelm_fit": (regressors, "_as_xy", lambda: regressors.kelm_fit(x, y)),
            "kelm_predict": (regressors, "finite_rows",
                             lambda: regressors.kelm_predict(SimpleNamespace(x_train=x), x)),
            "synth_generate": (synth, "_latent_factors",
                               lambda: synth.synth_generate(SynthSpec(seed=0, months=48))),
            "ar_fit": (baselines, "check_rules", lambda: baselines.ar_fit(y)),
        }
        before = thread_counts(blas)
        if entry == "pipeline_fit":
            monkeypatch.setattr(pipeline, "normalize_fit", probe)
            with pytest.raises(pipeline.PipelineStageError, match="probe"):
                pipeline.pipeline_fit(panel, pipeline.PipelineConfig(k=1))
        elif entry == "pipeline_predict":
            monkeypatch.setattr(pipeline, "require_finite", probe)
            model = SimpleNamespace(indicator_names=panel.indicator_names("H"))
            with pytest.raises(ValueError, match="probe"):
                pipeline.pipeline_predict(model, panel)
        elif entry == "main":
            monkeypatch.setattr(cli, "cmd_synth", probe)
            assert cli.main(["synth", "--out", "unused"]) == 1  # handled, so main returns
        elif entry == "granger_filter":
            monkeypatch.setattr(pipeline, "require_finite", probe)
            with pytest.raises(ValueError, match="probe"):
                pipeline.granger_filter(panel, panel.indicator_names("H"))
        else:
            module, helper, call = stages[entry]
            monkeypatch.setattr(module, helper, probe)
            with pytest.raises(ValueError, match="probe"):
                call()
        assert seen == [[1] * len(blas)]
        assert thread_counts(blas) == before

    def test_granger_fstats_are_the_same_bits_at_one_and_two_threads(self, blas):
        panel, _, _ = synth_generate(SynthSpec(seed=0, factors=7, series_per_factor=10))
        candidates = panel.indicator_names("H")
        assert thread_counts(blas) == [2] * len(blas)
        at_two = pipeline.granger_filter(panel, candidates, p_threshold=0.3)
        with one_blas_thread():
            at_one = pipeline.granger_filter(panel, candidates, p_threshold=0.3)
        assert list(at_two.fstats) == candidates
        assert (np.array(list(at_two.fstats.values())).tobytes()
                == np.array(list(at_one.fstats.values())).tobytes())
        assert at_two.retained == at_one.retained
