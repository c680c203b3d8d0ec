"""Symmetric eigensolver, SPD solve, ridge pseudoinverse and BLAS thread contracts."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oilcast import cli, clustering, kpca, numerics, pipeline, regressors
from oilcast.numerics import (
    NotPositiveDefiniteError,
    NumericalError,
    one_blas_thread,
    ridge_pinv,
    solve_spd,
    sq_distances,
    sym_eig,
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


class TestRidgeGramSymmetry:
    @pytest.mark.parametrize("rows", [167, 155, 1187, 20])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_ridge_gram_is_exactly_symmetric(self, rows, layout, monkeypatch):
        # ridge_pinv hands H H' + I/C to solve_spd unsymmetrized: a rank-k
        # update of a contiguous H is exactly symmetric, so a strided H is
        # made contiguous first
        rng = np.random.default_rng(rows)
        h = 1.0 / (1.0 + np.exp(-rng.standard_normal((rows, 200))))
        if layout == "strided":
            h = h[:, ::2]
        seen = []

        def spy(a, b):
            seen.append(a.copy())
            return solve_spd(a, b)

        monkeypatch.setattr(numerics, "solve_spd", spy)
        ridge_pinv(h, rng.standard_normal(rows), 100.0)
        assert np.array_equal(seen[0], seen[0].T)


class TestSymEig:
    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] has eigenpairs (3, [1, 1]/sqrt(2)) and (1, [1, -1]/sqrt(2)).
        values, vectors = sym_eig([[2.0, 1.0], [1.0, 2.0]], 2)
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-12)

    def test_identity_gives_unit_eigenvalues_and_orthonormal_basis(self):
        values, vectors = sym_eig(np.eye(4), 4)
        np.testing.assert_allclose(values, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)

    def test_reconstruction_order_and_sign_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            raw = rng.standard_normal((n, n))
            a = (raw + raw.T) / 2.0
            values, vectors = sym_eig(a, n)
            recon = vectors @ np.diag(values) @ vectors.T
            np.testing.assert_allclose(recon, a, atol=1e-8)
            assert np.all(np.diff(values) <= 1e-12), "eigenvalues not descending"
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-8)
            for col in range(n):
                lead = int(np.argmax(np.abs(vectors[:, col])))
                assert vectors[lead, col] > 0, f"sign convention broken in column {col}"

    def test_rejects_non_symmetric_with_index_pair(self):
        with pytest.raises(ValueError, match=r"A\[0,1\]"):
            sym_eig([[1.0, 2.0], [1.0, 1.0]], 2)

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
            sym_eig(np.ones((2, 3)), 2)
        with pytest.raises(ValueError, match="finite"):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]], 2)


class TestPartialSymEig:
    @pytest.mark.parametrize("n, count", [(60, 1), (200, 5), (400, 12)])
    def test_leading_pairs_match_full_solver(self, n, count):
        a = centered_gaussian_gram(n, 6, seed=n)
        values, vectors = sym_eig(a, count)
        full_values, full_vectors = sym_eig(a, n)
        assert values.shape == (count,) and vectors.shape == (n, count)
        np.testing.assert_allclose(values, full_values[:count], rtol=1e-12, atol=0)
        np.testing.assert_allclose(vectors, full_vectors[:, :count], rtol=0, atol=1e-10)
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(count)] > 0)

    def test_reruns_are_byte_identical(self):
        a = centered_gaussian_gram(150, 4, seed=3)
        first = sym_eig(a, 6)
        second = sym_eig(a.copy(), 6)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    def test_half_the_order_uses_the_full_solver(self, monkeypatch):
        a = centered_gaussian_gram(20, 3, seed=4)
        expected = sym_eig(a, 20)
        monkeypatch.setattr(numerics, "eigsh", no_lanczos)
        values, vectors = sym_eig(a, 10)
        assert np.array_equal(values, expected[0][:10])
        assert np.array_equal(vectors, expected[1][:, :10])

    def test_small_order_uses_the_full_solver(self, monkeypatch):
        a = centered_gaussian_gram(7, 2, seed=5)
        expected = sym_eig(a, 7)
        monkeypatch.setattr(numerics, "eigsh", no_lanczos)
        values, vectors = sym_eig(a, 1)
        assert np.array_equal(values, expected[0][:1])
        assert np.array_equal(vectors, expected[1][:, :1])

    def test_zero_matrix_falls_back_to_the_full_solver(self):
        # every start vector maps to 0, which ARPACK refuses
        values, vectors = sym_eig(np.zeros((12, 12)), 2)
        assert np.array_equal(values, np.zeros(2))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)

    def test_count_must_lie_in_range(self):
        with pytest.raises(ValueError, match="count"):
            sym_eig(np.eye(3), 0)
        with pytest.raises(ValueError, match="count"):
            sym_eig(np.eye(3), 4)

    def test_still_rejects_non_symmetric(self):
        a = centered_gaussian_gram(30, 3, seed=6)
        a[0, 1] += 1e-6
        with pytest.raises(ValueError, match=r"A\[0,1\]"):
            sym_eig(a, 2)


class TestSolveSpd:
    def test_diagonal_hand_values(self):
        x = solve_spd(np.diag([2.0, 3.0]), [4.0, 9.0])
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-12)

    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] @ [1, 1] = [3, 3]
        x = solve_spd([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_matches_generic_solver_on_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            r = rng.standard_normal((n, n))
            a = r @ r.T + n * np.eye(n)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(solve_spd(a.copy(), b), np.linalg.solve(a, b), atol=1e-9)

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((5, 5))
        a = r @ r.T + 5 * np.eye(5)
        b = rng.standard_normal((5, 3))
        x = solve_spd(a.copy(), b)
        assert x.shape == (5, 3)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_indefinite_matrix_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            solve_spd(np.diag([1.0, -1.0]), [1.0, 1.0])
        assert exc.value.pivot == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            solve_spd(np.zeros((3, 3)), np.ones(3))
        assert exc.value.pivot == 0

    def test_rejects_asymmetric_and_bad_rhs(self):
        with pytest.raises(ValueError, match="not symmetric"):
            solve_spd([[1.0, 0.5], [0.0, 1.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            solve_spd(np.eye(2), [1.0, 2.0, 3.0])

    def test_error_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            solve_spd(np.diag([1.0, -1.0]), [1.0, 1.0])


class TestRidgePinv:
    def test_identity_design_hand_values(self):
        # H = I, C = 1: beta = (I + I)^-1 y = y / 2.
        beta = ridge_pinv(np.eye(2), [1.0, 2.0], 1.0)
        np.testing.assert_allclose(beta, [0.5, 1.0], atol=1e-12)

    def test_satisfies_primal_normal_equations(self):
        # The dual form equals the primal ridge solution:
        # (H'H + I/C) beta = H'y
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = rng.standard_normal((30, 6))
            y = rng.standard_normal(30)
            c = float(rng.uniform(0.5, 50.0))
            beta = ridge_pinv(h, y, c)
            lhs = (h.T @ h + np.eye(6) / c) @ beta
            np.testing.assert_allclose(lhs, h.T @ y, atol=1e-8)

    def test_large_c_approaches_min_norm_least_squares(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 8))
        y = rng.standard_normal(5)
        beta = ridge_pinv(h, y, 1e12)
        np.testing.assert_allclose(beta, np.linalg.pinv(h) @ y, atol=1e-6)

    def test_multi_output_targets(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((12, 4))
        y = rng.standard_normal((12, 2))
        beta = ridge_pinv(h, y, 10.0)
        assert beta.shape == (4, 2)
        single = np.column_stack([ridge_pinv(h, y[:, j], 10.0) for j in range(2)])
        np.testing.assert_allclose(beta, single, atol=1e-10)

    def test_rejects_bad_c_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="positive"):
            ridge_pinv(np.eye(2), [1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            ridge_pinv(np.eye(2), [1.0, 2.0], -3.0)
        with pytest.raises(ValueError, match="rows"):
            ridge_pinv(np.eye(2), [1.0, 2.0, 3.0], 1.0)


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
            "elbow_select": (clustering, "kmeans_fit",
                             lambda: clustering.elbow_select(x.T, range(1, 4))),
            "kpca_fit": (kpca, "_as_samples", lambda: kpca.kpca_fit(x)),
            "kpca_transform": (kpca, "_as_samples", lambda: kpca.kpca_transform(None, x)),
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
