"""Dense symmetric linear algebra with explicit failure modes.

Thin wrappers around LAPACK and ARPACK that enforce input contracts
(symmetry, positive definiteness, finiteness) instead of silently returning
garbage, plus the one squared-distance computation every kernel uses, and
``one_blas_thread``, which runs a call with OpenBLAS at one thread.
Matrices are float64 numpy arrays; samples/equations are rows.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackError, eigsh

# Absolute tolerance for the symmetry check max |A[i,j] - A[j,i]|.
SYMMETRY_ATOL = 1e-10

# Rows per block of every whole-matrix pass that needs a temporary (the
# finiteness and symmetry scans, the distance update, the median search; and
# columns per block of the eigenvector sign fix), so its scratch is
# BLOCK_ROWS x n entries, not another n x n matrix.
BLOCK_ROWS = 64

# Below this order sym_eig always uses the full solver.
PARTIAL_MIN_ORDER = 8

# OpenBLAS thread-count entry points: scipy's wheels prefix them, and a
# 64-bit-integer build (numpy's) adds a 64_ suffix
_THREAD_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                   for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _openblas_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS loaded in this process.

    numpy and scipy each load their own build. They are found once, in the
    process's memory map; where there is none (another BLAS, no ``/proc``)
    the result is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh)
    except OSError:
        return ()
    controls = []
    for path in paths:
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body (or, as a decorator, each call) with OpenBLAS at 1 thread.

    Every matrix in the model is small, so a second thread only adds
    synchronisation, and the last bits of a BLAS result can depend on how
    many threads computed it. Each library's count is read on entry and put
    back on exit, also when the body raises; a count already at 1 is left
    alone, so a nested use only reads. The count is process-wide: Python
    threads share it. Does nothing where no OpenBLAS is loaded.
    """
    changed = []
    for get, put in _openblas_controls():
        count = get()
        if count != 1:
            put(1)
            changed.append((put, count))
    try:
        yield
    finally:
        for put, count in changed:
            put(count)


class NumericalError(Exception):
    """A numerical contract was violated (indefinite, degenerate, ...)."""


class NotPositiveDefiniteError(NumericalError):
    """Cholesky factorization failed: the matrix is not positive definite."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"matrix is not positive definite (Cholesky failed at pivot {pivot})"
        )


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    for start in range(0, a.shape[0], BLOCK_ROWS):
        if not np.isfinite(a[start:start + BLOCK_ROWS]).all():
            raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_symmetric(a: np.ndarray, name: str) -> None:
    # |A - A'| is symmetric with a zero diagonal, so its first maximum in
    # row-major order lies in the upper triangle: scanning row blocks of
    # columns from the block's first row on finds it, first block first
    n = a.shape[0]
    worst, at = 0.0, (0, 0)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        gap = a[start:stop, start:] - a[start:, start:stop].T
        np.abs(gap, out=gap)
        r, c = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[r, c] > worst:
            worst, at = float(gap[r, c]), (start + int(r), start + int(c))
    if worst > SYMMETRY_ATOL:
        i, j = at
        raise ValueError(
            f"{name} is not symmetric: |A[{i},{j}] - A[{j},{i}]| = {worst:.3e} "
            f"exceeds {SYMMETRY_ATOL:.0e}"
        )


def sq_distances(x, z=None, out=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``z``.

    Uses the GEMM form ``-2 x z' + (|x|^2 + |z|^2)`` clamped at 0: the
    product is the result's only full-size matrix, and the norms are added
    to it ``BLOCK_ROWS`` rows at a time. With ``z`` omitted the rows of
    ``x`` are paired with themselves: the product ``x x'`` is then a
    symmetric rank-k update, so the result is exactly symmetric, and its
    diagonal is exactly 0. ``out``, a float64 array of the result's shape,
    receives the result instead of a new matrix.
    """
    x = np.ascontiguousarray(x, dtype=float)
    norms = np.einsum("ij,ij->i", x, x)
    if z is None:
        sq, z_norms = np.matmul(x, x.T, out=out), norms
    else:
        z = np.asarray(z, dtype=float)
        sq, z_norms = np.matmul(x, z.T, out=out), np.einsum("ij,ij->i", z, z)
    sq *= -2.0
    for start in range(0, sq.shape[0], BLOCK_ROWS):
        block = sq[start:start + BLOCK_ROWS]
        block += np.add.outer(norms[start:start + BLOCK_ROWS], z_norms)
        np.maximum(block, 0.0, out=block)
    if z is None:
        np.fill_diagonal(sq, 0.0)
    return sq


def sym_eig(a, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenpairs of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as matching columns, each unit-norm with its
    largest-magnitude entry made positive (first such entry on magnitude
    ties) so the decomposition is reproducible across runs. Both are views
    of the solver's ascending output, reversed, with the signs fixed in
    place: nothing is copied.

    The pairs come from implicitly restarted Lanczos (ARPACK) started from
    a fixed vector, so reruns are identical; the full solver serves the
    request instead when ``count`` reaches half the order, the order is
    below ``PARTIAL_MIN_ORDER`` or ARPACK fails.

    Raises ``ValueError`` for non-square, non-finite or non-symmetric
    input and ``NumericalError`` if the eigensolver fails to converge.
    """
    a = _as_matrix(a, "sym_eig input")
    _check_symmetric(a, "sym_eig input")
    n = a.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"eigenpair count must lie in [1, {n}], got {count}")
    pairs = None
    if 2 * count < n and n >= PARTIAL_MIN_ORDER:
        pairs = _lanczos(a, count)
    if pairs is None:
        try:
            pairs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"eigendecomposition failed: {err}") from err
    values, vectors = pairs
    values, vectors = values[::-1][:count], vectors[:, ::-1][:, :count]
    for start in range(0, count, BLOCK_ROWS):
        block = vectors[:, start:start + BLOCK_ROWS]
        lead = np.argmax(np.abs(block), axis=0)
        block *= np.where(block[lead, np.arange(block.shape[1])] < 0, -1.0, 1.0)
    return values, vectors


def _lanczos(a: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``count`` largest eigenpairs by ARPACK, or None when it breaks down."""
    # any fixed start works except the constant vector, which a centered
    # Gram matrix maps to 0; a zero matrix maps every start to 0 and
    # ARPACK gives up, leaving the full solver to decide
    start = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        return eigsh(a, k=count, which="LA", v0=start, tol=0.0)
    except ArpackError:
        return None


def solve_spd(a, b) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive definite ``A`` via Cholesky.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result has the same shape. Never forms an explicit inverse. Raises
    ``NotPositiveDefiniteError`` (with the failing pivot index) when the
    factorization breaks down.

    A C-ordered float64 ``a`` is factored in its own memory and no longer
    holds ``A`` afterwards; pass a copy to keep it. The factor comes from
    the upper triangle, which equals the lower one when ``a`` is exactly
    symmetric.
    """
    a = _as_matrix(a, "solve_spd matrix")
    _check_symmetric(a, "solve_spd matrix")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("solve_spd right-hand side contains non-finite entries")
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side shape {b.shape} does not match matrix of order {a.shape[0]}"
        )
    # LAPACK is column-major: a C-ordered matrix is used in place only as its transpose
    chol, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of Cholesky factorization")
    rhs = b if b.ndim == 2 else b[:, None]
    x, info = lapack.dpotrs(chol, rhs, lower=1)
    if info != 0:
        raise NumericalError(f"triangular solve failed with status {info}")
    return x if b.ndim == 2 else x[:, 0]


def ridge_pinv(h, y, c: float) -> np.ndarray:
    """Ridge-regularized pseudoinverse solution ``beta = H' (I/C + H H')^-1 y``.

    ``h`` is N x L (rows are samples), ``y`` is length N or N x m, and
    ``c > 0`` is the regularization constant. As ``c`` grows the result
    approaches the minimum-norm least-squares solution of ``H beta = y``.
    """
    h = np.ascontiguousarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    if h.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got shape {h.shape}")
    if y.shape[0] != h.shape[0]:
        raise ValueError(
            f"target rows {y.shape[0]} do not match design rows {h.shape[0]}"
        )
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"regularization constant must be positive, got {c}")
    if not np.all(np.isfinite(h)) or not np.all(np.isfinite(y)):
        raise ValueError("ridge_pinv input contains non-finite entries")
    gram = h @ h.T  # a symmetric rank-k update of a contiguous h: exactly symmetric
    gram[np.diag_indices_from(gram)] += 1.0 / c
    alpha = solve_spd(gram, y)
    return h.T @ alpha
