"""Symmetric eigensolver, symmetry check, SPD solve, ridge pseudoinverse and BLAS thread
contracts."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from oilcast import baselines, cli, clustering, evaluation, kpca, numerics, pipeline, regressors
from oilcast.kpca import center_kernel, gaussian_gram
from oilcast.numerics import (
    SYMMETRY_ATOL,
    NotPositiveDefiniteError,
    NumericalError,
    _eigenpairs,
    _ridge_pinv,
    _solve_spd,
    _symmetric,
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


def spy_on_solver(monkeypatch):
    """Copies of every matrix handed to the Cholesky solver."""
    seen = []
    real = numerics._solve_spd

    def spy(a, b):
        seen.append(a.copy())
        return real(a, b)

    monkeypatch.setattr(numerics, "_solve_spd", spy)
    return seen


class TestRidgeGramSymmetry:
    @pytest.mark.parametrize("rows", [167, 155, 1187, 20])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_ridge_gram_is_exactly_symmetric(self, rows, layout, monkeypatch):
        # the ELM's H H' + I/C goes to the solver unscanned: a rank-k update
        # of a contiguous H is exactly symmetric, so a strided H is made
        # contiguous first
        rng = np.random.default_rng(rows)
        h = 1.0 / (1.0 + np.exp(-rng.standard_normal((rows, 200))))
        if layout == "strided":
            h = h[:, ::2]
        seen = spy_on_solver(monkeypatch)
        _ridge_pinv(h, rng.standard_normal(rows), 100.0)
        assert np.array_equal(seen[0], seen[0].T)


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
    """A Gaussian Gram goes to the solvers unscanned; these are the invariants
    that make that safe, over random finite inputs (``TestRidgeGramSymmetry``
    covers the ELM's system)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 70), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), layout=st.sampled_from(["C", "F", "strided"]),
           into_out=st.booleans(), sigma=st.one_of(st.none(), st.floats(0.05, 20.0)))
    def test_gaussian_gram_is_symmetric_and_centers_within_the_tolerance(
            self, n, d, seed, scale, layout, into_out, sigma):
        x = layouts(np.random.default_rng(seed).standard_normal((n, d)) * scale, layout)
        out = np.empty((n, n)) if into_out else None
        k, _ = gaussian_gram(x, None if sigma is None else sigma * scale, out=out)
        assert np.array_equal(k, k.T)
        assert np.all(np.isfinite(k))
        k_c, _, _ = center_kernel(k)
        assert np.max(np.abs(k_c - k_c.T)) <= SYMMETRY_ATOL


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

    def test_rejects_non_symmetric_with_index_pair(self):
        with pytest.raises(ValueError, match=r"A\[0,1\]"):
            _symmetric([[1.0, 2.0], [1.0, 1.0]], "a")

    # 256 rows exceed every order drawn here, so that case scans one block
    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    @pytest.mark.parametrize("seed", range(6))
    def test_blocked_scan_reports_the_full_matrix_answer(self, block, seed, monkeypatch):
        # small integer entries make tied gaps common; the reference is the
        # first maximum of the whole |A - A'| in row-major order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        if seed % 2:
            a = (a + a.T) / 2.0
            a[rng.integers(n, size=3), rng.integers(n, size=3)] += 1.0
        gap = np.abs(a - a.T)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        expected = (f"|A[{i},{j}] - A[{j},{i}]| = {gap[i, j]:.3e} "
                    f"exceeds {numerics.SYMMETRY_ATOL:.0e}")
        monkeypatch.setattr(numerics, "BLOCK_ROWS", block)
        if gap[i, j] == 0.0:
            numerics._check_symmetric(a, "a")
            return
        with pytest.raises(ValueError) as excinfo:
            numerics._check_symmetric(a, "a")
        assert str(excinfo.value) == f"a is not symmetric: {expected}"

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError, match="square"):
            _symmetric(np.ones((2, 3)), "a")
        with pytest.raises(ValueError, match="finite"):
            _symmetric([[np.nan, 0.0], [0.0, 1.0]], "a")


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
        monkeypatch.setattr(numerics, "eigsh", no_lanczos)
        values, vectors = _eigenpairs(a, 10)
        assert np.array_equal(values, expected[0][:10])
        assert np.array_equal(vectors, expected[1][:, :10])

    def test_small_order_uses_the_full_solver(self, monkeypatch):
        a = centered_gaussian_gram(7, 2, seed=5)
        expected = _eigenpairs(a, 7)
        monkeypatch.setattr(numerics, "eigsh", no_lanczos)
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

    def test_still_rejects_non_symmetric(self):
        # the solver takes what it is given; kpca_fit checks a caller
        # kernel's centered matrix once before the partial solve
        a = centered_gaussian_gram(30, 3, seed=6)
        a[0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"^kernel matrix is not symmetric: \|A\[0,1\]"):
            kpca.kpca_fit(np.zeros((30, 1)), kernel=lambda x: a, n_components=2)


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

    def test_rejects_asymmetric_and_bad_rhs(self):
        # the solver takes what it is given; kelm_fit checks the system it hands over
        x = np.zeros((2, 1))
        with pytest.raises(ValueError, match="^kernel matrix is not symmetric"):
            regressors.kelm_fit(x, [1.0, 1.0], kernel=lambda _: np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="^kernel matrix of order 3 does not match 2 targets$"):
            regressors.kelm_fit(x, [1.0, 1.0], kernel=lambda _: np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            regressors.kelm_fit(x, [1.0, 2.0, 3.0])

    def test_error_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            _solve_spd(np.diag([1.0, -1.0]), np.ones(2))


class TestRidgePinv:
    def test_identity_design_hand_values(self):
        # H = I, C = 1: beta = (I + I)^-1 y = y / 2.
        beta = _ridge_pinv(np.eye(2), np.array([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(beta, [0.5, 1.0], atol=1e-12)

    def test_satisfies_primal_normal_equations(self):
        # The dual form equals the primal ridge solution:
        # (H'H + I/C) beta = H'y
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.standard_normal((30, 6))
            y = rng.standard_normal(30)
            c = float(rng.uniform(0.5, 50.0))
            beta = _ridge_pinv(h, y, c)
            lhs = (h.T @ h + np.eye(6) / c) @ beta
            np.testing.assert_allclose(lhs, h.T @ y, atol=1e-8)

    def test_large_c_approaches_min_norm_least_squares(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        beta = _ridge_pinv(h, y, 1e12)
        np.testing.assert_allclose(beta, np.linalg.pinv(h) @ y, atol=1e-6)

    def test_rejects_bad_c_and_shape_mismatch(self):
        # the solver takes what it is given; elm_fit checks C and the rows
        for c in (0.0, -3.0, 1e-310):  # 1/C of the last overflows
            with pytest.raises(ValueError, match="^penalty C must be positive, with 1/C finite"):
                regressors.elm_fit(np.eye(2), [1.0, 2.0], c=c)
        with pytest.raises(ValueError, match="rows"):
            regressors.elm_fit(np.eye(2), [1.0, 2.0, 3.0], c=1.0)


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
    """(name, shape) of every ``finite_array`` call in the array-taking modules,
    and the shape of every symmetry check."""
    arrays, symmetric = [], []
    real_finite, real_symmetric = numerics.finite_array, numerics._check_symmetric

    def finite(x, name, ndim):
        arrays.append((name, np.shape(x)))
        return real_finite(x, name, ndim)

    def check_symmetric(a, name):
        symmetric.append(a.shape)
        return real_symmetric(a, name)

    for module in (numerics, kpca, regressors, evaluation):
        monkeypatch.setattr(module, "finite_array", finite)
    monkeypatch.setattr(numerics, "_check_symmetric", check_symmetric)
    return arrays, symmetric


# call -> (the call on ``good``, its array checks as (name, shape), its symmetry checks)
CHECKS_PER_CALL = {
    "kpca_fit median": (lambda g: kpca.kpca_fit(g.x, theta=0.95), [("x", (N, D))], []),
    "kpca_fit sigma": (lambda g: kpca.kpca_fit(g.x, kernel=kpca.GaussianKernel(1.0),
                                               n_components=2), [("x", (N, D))], []),
    "kpca_fit caller kernel": (lambda g: kpca.kpca_fit(g.x, kernel=kpca.LinearKernel(),
                                                       n_components=2),
                               [("x", (N, D)), ("kernel matrix", (N, N))], [(N, N)]),
    "kpca_transform": (lambda g: kpca.kpca_transform(g.kpca, g.x), [("x", (N, D))], []),
    "kelm_fit": (lambda g: regressors.kelm_fit(g.x, g.y), [("x", (N, D)), ("y", (N,))], []),
    "kelm_fit caller kernel": (lambda g: regressors.kelm_fit(g.x, g.y, kernel=kpca.LinearKernel()),
                               [("x", (N, D)), ("y", (N,)), ("kernel matrix", (N, N))], [(N, N)]),
    "kelm_predict": (lambda g: regressors.kelm_predict(g.kelm, g.x), [("x", (N, D))], []),
    "elm_fit": (lambda g: regressors.elm_fit(g.x, g.y, n_hidden=5),
                [("x", (N, D)), ("y", (N,))], []),
    "elm_predict": (lambda g: regressors.elm_predict(g.elm, g.x), [("x", (N, D))], []),
    "evaluate": (lambda g: evaluation.evaluate(g.y, g.y[::-1]), [("y", (N,)), ("yhat", (N,))], []),
}


class TestEachArrayCheckedOnce:
    @pytest.mark.parametrize("call", CHECKS_PER_CALL)
    def test_each_array_is_checked_once_and_a_built_gram_never(self, call, good, monkeypatch):
        run, expected_arrays, expected_symmetric = CHECKS_PER_CALL[call]
        arrays, symmetric = record_checks(monkeypatch)
        run(good)
        assert arrays == expected_arrays
        assert symmetric == expected_symmetric


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
                                       "kelm_fit", "kelm_predict"])
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
            "kmeans_fit": (clustering, "_standardized_rows", lambda: clustering.kmeans_fit(x.T, 2)),
            "elbow_select": (clustering, "_checked_series",
                             lambda: clustering.elbow_select(x.T, range(1, 4))),
            "kpca_fit": (kpca, "finite_array", lambda: kpca.kpca_fit(x)),
            "kpca_transform": (kpca, "finite_array", lambda: kpca.kpca_transform(None, x)),
            "elm_fit": (regressors, "_as_xy", lambda: regressors.elm_fit(x, y)),
            "elm_predict": (regressors, "_as_eval_rows",
                            lambda: regressors.elm_predict(SimpleNamespace(weights=x), x)),
            "kelm_fit": (regressors, "_as_xy", lambda: regressors.kelm_fit(x, y)),
            "kelm_predict": (regressors, "_as_eval_rows",
                             lambda: regressors.kelm_predict(SimpleNamespace(x_train=x), x)),
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
