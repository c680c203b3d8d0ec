"""Dense symmetric linear algebra with explicit failure modes.

``finite_array``, the one array check of every public function's inputs;
``_symmetric`` for a matrix the library did not build; the one
squared-distance computation of every kernel; unchecked LAPACK and ARPACK
cores that report breakdowns as ``NumericalError``; and ``one_blas_thread``.
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

# Below this order _eigenpairs always uses the full solver.
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


def finite_array(x, name: str, ndim: int) -> np.ndarray:
    """``x`` as a float64 array of ``ndim`` dimensions holding finite values only.

    Raises ``ValueError`` naming ``name`` otherwise. A matrix is scanned
    ``BLOCK_ROWS`` rows at a time, so an n x n input needs no n x n
    temporary; a vector in one pass.

    The rule: a public function checks each array it receives once, with
    this; a private function never re-checks; a matrix the library builds
    is not scanned (``sq_distances`` tests each block for NaN in cache).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {x.shape}")
    step = BLOCK_ROWS if ndim > 1 else max(x.shape[0], 1)
    for start in range(0, x.shape[0], step):
        if not np.isfinite(x[start:start + step]).all():
            raise ValueError(f"{name} contains non-finite values")
    return x


def _symmetric(a, name: str) -> np.ndarray:
    """``a`` as a finite, square and symmetric float64 matrix."""
    a = finite_array(a, name, 2)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    _check_symmetric(a, name)
    return a


def _check_symmetric(a: np.ndarray, name: str) -> None:
    # |A - A'| is symmetric with a zero diagonal, so its first maximum in
    # row-major order lies in the upper triangle: scanning row blocks of
    # columns from the block's first row on finds it, first block first.
    # Each gap block is formed in one reused scratch block: A' copied in, then
    # A subtracted, which numpy reads through a buffer of its own no larger
    # than the block; half of BLOCK_ROWS rows keeps the two within one
    # BLOCK_ROWS x n block
    n = a.shape[0]
    rows = max(BLOCK_ROWS // 2, 1)
    scratch = np.empty(min(rows, n) * n)
    worst, at = 0.0, (0, 0)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        gap = scratch[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        np.copyto(gap, a[start:, start:stop].T)
        gap -= a[start:stop, start:]  # A' - A: the magnitudes of A - A', exactly
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

    Rows whose norms overflow can make ``inf - inf`` off the diagonal: the
    only way finite input gives a non-finite kernel value (an infinite
    distance gives a valid 0). Each block's NaN test raises ``ValueError``.
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
            np.fill_diagonal(block[:, start:], 0.0)  # the block's part of the diagonal
        if np.isnan(block).any():
            raise ValueError("inputs too large: squared distances overflow")
    return sq


def _eigenpairs(a: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenpairs of a finite symmetric matrix, unchecked.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as matching columns, each unit-norm with its
    largest-magnitude entry made positive (first such entry on magnitude
    ties) so the decomposition is reproducible across runs. Both are views
    of the solver's ascending output, reversed, with the signs fixed in
    place: nothing is copied.

    The pairs come from implicitly restarted Lanczos (ARPACK) started from
    a fixed vector, so reruns are identical; the full solver serves the
    request instead when ``count`` reaches half the order, the order is
    below ``PARTIAL_MIN_ORDER`` or ARPACK fails. Raises ``NumericalError``
    if the eigensolver fails to converge.
    """
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
    _fix_signs(vectors)
    return values, vectors


def _fix_signs(vectors: np.ndarray) -> None:
    """Make each column's first largest-magnitude entry positive, in place.

    The magnitudes of ``BLOCK_ROWS`` columns at a time are copied into one
    scratch block whose columns are contiguous, so ``argmax`` down them reads
    it without a copy, and flipped columns are negated one at a time, which
    needs no buffer either. (``np.negative`` with ``out=`` a column of a
    column-reversed array negates the wrong entries in numpy 2.4.)
    """
    n, count = vectors.shape
    scratch = np.empty((min(BLOCK_ROWS, count), n))
    for start in range(0, count, BLOCK_ROWS):
        block = vectors[:, start:start + BLOCK_ROWS]
        magnitudes = scratch[: block.shape[1]].T
        np.copyto(magnitudes, block)
        np.abs(magnitudes, out=magnitudes)
        lead = np.argmax(magnitudes, axis=0)
        for j in np.flatnonzero(block[lead, np.arange(block.shape[1])] < 0):
            block[:, j] *= -1.0


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


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for a symmetric positive definite ``A`` via Cholesky.

    ``a`` (finite, exactly symmetric, float64) and ``b`` (a finite vector
    of its order) are not checked. Never forms an explicit inverse. Raises
    ``NotPositiveDefiniteError`` (with the failing pivot index) when the
    factorization breaks down. A C-ordered ``a`` is factored in its own
    memory, from its upper triangle, and no longer holds ``A`` afterwards.
    """
    # LAPACK is column-major: a C-ordered matrix is used in place only as its transpose
    chol, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of Cholesky factorization")
    x, info = lapack.dpotrs(chol, b[:, None], lower=1)
    if info != 0:
        raise NumericalError(f"triangular solve failed with status {info}")
    return x[:, 0]


def _ridge_pinv(h: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Ridge-regularized pseudoinverse solution ``beta = H' (I/C + H H')^-1 y``.

    ``h`` (finite, N x L, rows are samples), ``y`` (finite, length N) and
    ``c`` (positive, 1/c finite) are not checked. As ``c`` grows the result
    approaches the minimum-norm least-squares solution of ``H beta = y``.
    """
    h = np.ascontiguousarray(h)
    gram = h @ h.T  # a symmetric rank-k update of a contiguous h: exactly symmetric
    gram[np.diag_indices_from(gram)] += 1.0 / c
    alpha = _solve_spd(gram, y)
    return h.T @ alpha
