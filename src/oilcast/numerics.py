"""Dense symmetric linear algebra with explicit failure modes.

``finite_array``, the one array check of every public function's inputs;
``check_rules``, the one check of a run parameter against its rule; the
one squared-distance computation of every kernel; unchecked eigenpair and
Cholesky cores, written with numpy alone, that report breakdowns as
``NumericalError``; ``one_blas_thread``; and ``_map_in_threads``, the one
way a fit runs work on a second thread. Matrices are float64 numpy arrays;
samples/equations are rows.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

# Rows per block of every whole-matrix pass that needs a temporary (the
# finiteness scan, the distance update, the median search; and columns per
# block of the eigenvector sign fix), so its scratch is BLOCK_ROWS x n
# entries, not another n x n matrix.
BLOCK_ROWS = 64

# Below this order _eigenpairs always uses the full solver.
PARTIAL_MIN_ORDER = 8

# Lanczos vectors kept beyond twice the requested pair count before the
# partial solver gives up (a 3-pair request at order 600 keeps 70 x 600
# doubles, an eighth of the Gram matrix), and the fewest steps between two
# convergence checks
LANCZOS_SLACK = 64
LANCZOS_CHECK_STEPS = 2

# Order of the diagonal blocks of the Cholesky factorization, and rows per
# triangular solve (a divisor of it, so a diagonal part of the factor never
# spans two blocks). np.linalg.cholesky allocates an output and a working
# copy of its block: at 96 each is 72 KB, below glibc's 128 KB threshold for
# serving an allocation from fresh mapped pages, which a paper-scale solve
# would otherwise fault in on every call
CHOLESKY_BLOCK = 96
SOLVE_ROWS = 32

# At most this many threads work on one fit at once, whatever the CPU count:
# each KPCA worker holds its own Gram storage (n^2 doubles below 512 samples,
# about n^2/2 from there), and speed and peak memory have been measured at
# this count only.
MAX_FIT_WORKERS = 2

# OpenBLAS thread-count entry points: the scipy-openblas build that numpy's
# wheels bundle prefixes them, and a 64-bit-integer build adds a 64_ suffix
_THREAD_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                   for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _openblas_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS loaded in this process.

    numpy loads its own build, and another package may load one more. They
    are found once, in the process's memory map; where there is none
    (another BLAS, no ``/proc``) the result is empty.
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_in_threads(task, count: int, scratch: list) -> list:
    """``[task(0, ...), ..., task(count - 1, ...)]`` on one thread per ``scratch`` item.

    With W items, worker w runs indices w, w + W, ... in order and passes
    ``scratch[w]`` as ``task``'s second argument; worker 0 is the calling
    thread, and so is a helper that cannot be started. No state is shared:
    each worker writes only its own results and stops at its first error.
    When tasks raise, the error of the lowest failing index is raised, as a
    loop in index order would raise it. Every helper has stopped before this
    returns or raises.
    """
    results: list = [None] * count
    failures: list = [None] * len(scratch)  # worker w's first (index, error)

    def work(w: int) -> None:
        for j in range(w, count, len(scratch)):
            try:
                results[j] = task(j, scratch[w])
            except Exception as err:
                failures[w] = (j, err)
                return

    helpers, own = [], [0]
    try:
        for w in range(1, len(scratch)):
            helper = threading.Thread(target=work, args=(w,), name="oilcast-fit")
            try:
                helper.start()
            except RuntimeError:  # no thread to be had: this thread runs that share
                own.append(w)
            else:
                helpers.append(helper)
        for w in own:
            work(w)
    finally:
        for helper in helpers:
            helper.join()
    failed = [failure for failure in failures if failure is not None]
    if failed:
        raise min(failed)[1]  # the indices differ, so no two errors are compared
    return results


def _split_rows(task, start: int, stop: int, scratch: list, share: float = 0.5) -> list:
    """``task(r0, r1, item)`` over the rows ``start:stop`` in one range per ``scratch`` item.

    With two items the rows split at the multiple of ``BLOCK_ROWS`` past
    ``start`` nearest ``share`` of them, and the second range runs on a
    helper thread through ``_map_in_threads``; a split that would leave a
    range empty, and a single item, run ``task`` once on this thread. Each
    range gets its own item: the buffers a task writes through are allocated
    by the caller, so they come from the calling thread's heap, not from a
    helper's. The results come in row order, and the error of the lowest
    range is raised.
    """
    if len(scratch) > 1:
        cut = start + BLOCK_ROWS * round(share * (stop - start) / BLOCK_ROWS)
        if start < cut < stop:
            bounds = [start, cut, stop]
            return _map_in_threads(lambda j, item: task(bounds[j], bounds[j + 1], item), 2,
                                   scratch[:2])
    return [task(start, stop, scratch[0])]


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
    ``BLOCK_ROWS`` rows at a time in memory order (an F-ordered one, such
    as the transpose of a C-ordered matrix, through its transpose), so an
    n x n input needs no n x n temporary; a vector in one pass.

    The rule: a public function checks each array it receives once, with
    this; a private function never re-checks; a Gaussian Gram the library
    builds is not scanned (``sq_distances`` tests each block for NaN in
    cache), and a linear one is scanned once, as its solver receives it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {x.shape}")
    scan = x.T if x.flags.f_contiguous and not x.flags.c_contiguous else x
    step = BLOCK_ROWS if ndim > 1 else max(x.shape[0], 1)
    for start in range(0, scan.shape[0], step):
        if not np.isfinite(scan[start:start + step]).all():
            raise ValueError(f"{name} contains non-finite values")
    return x


def finite_rows(x, dim: int) -> np.ndarray:
    """Sample rows for a model fitted on ``dim`` columns: ``finite_array`` plus the width."""
    rows = finite_array(x, "x", 2)
    if rows.shape[1] != dim:
        raise ValueError(f"sample dimension {rows.shape[1]} does not match model dimension {dim}")
    return rows


def check_rules(rules: dict, **values) -> None:
    """Check each ``name=value`` by ``rules[name]``, a (test of a valid value,
    stated rule) pair, raising ``<name> must be <stated rule>, got <value>``.
    The module that uses a parameter states its rule once, in its ``RULES``
    table; an optional parameter left as None is not passed here."""
    for name, value in values.items():
        valid, rule = rules[name]
        if not valid(value):
            shown = value.item() if isinstance(value, np.generic) else value
            raise ValueError(f"{name} must be {rule}, got {shown!r}")


def at_least(low):
    """The rule that a value is at least ``low``."""
    return (lambda value: value >= low), f">= {low}"


def one_of(choices: tuple):
    """The rule that a value is one of ``choices``."""
    return (lambda value: value in choices), f"one of {choices}"


def sq_norms(x: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each row of a float64 matrix: the one
    norm computation of ``sq_distances``, which a fit keeps for its training
    rows so a later call can pass them."""
    return np.einsum("ij,ij->i", x, x)


def sq_distances(x, z=None, out=None, z_norms=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` and of ``z``.

    Uses the GEMM form ``-2 x z' + (|x|^2 + |z|^2)`` clamped at 0: the
    product is the result's only full-size matrix, and the norms are added
    to it ``BLOCK_ROWS`` rows at a time. With ``z`` omitted the rows of
    ``x`` are paired with themselves: the product ``x x'`` is then a
    symmetric rank-k update, so the result is exactly symmetric, and its
    diagonal is exactly 0. ``out``, a float64 array of the result's shape,
    receives the result instead of a new matrix. ``z_norms``, the
    ``sq_norms`` of ``z`` kept by the caller, are used instead of computing
    them again.

    Rows whose norms overflow can make ``inf - inf`` off the diagonal: the
    only way finite input gives a non-finite kernel value (an infinite
    distance gives a valid 0). Each block's NaN test raises ``ValueError``.
    """
    return _sq_distances(x, z, out, z_norms)[0]


def _sq_distances(x, z=None, out=None, z_norms=None,
                  workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``sq_distances`` and the ``sq_norms`` of ``x`` it computed, its
    blocked pass split over ``workers`` row ranges (``_split_rows``); the
    result is the same bits on any number of workers."""
    x = np.ascontiguousarray(x, dtype=float)
    norms = sq_norms(x)
    if z is None:
        sq, z_norms = np.matmul(x, x.T, out=out), norms
    else:
        z = np.asarray(z, dtype=float)
        sq = np.matmul(x, z.T, out=out)
        if z_norms is None:
            z_norms = sq_norms(z)
    rows, cols = sq.shape
    scratch = [np.empty((min(BLOCK_ROWS, rows), cols)) for _ in range(workers)]
    if workers == 1:  # called directly: a forecast's kernel rows come this way
        _add_norms(sq, norms, z_norms, z is None, 0, rows, scratch[0])
    else:
        _split_rows(lambda r0, r1, added: _add_norms(sq, norms, z_norms, z is None, r0, r1, added),
                    0, rows, scratch)
    return sq, norms


def _add_norms(sq: np.ndarray, norms: np.ndarray, z_norms: np.ndarray, square: bool,
               r0: int, r1: int, added: np.ndarray) -> None:
    """Rows ``r0:r1`` of ``sq_distances`` from the product ``x z'`` in ``sq``,
    ``BLOCK_ROWS`` at a time, with ``added`` as the block's scratch."""
    for start in range(r0, r1, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, r1)
        block, part = sq[start:stop], added[:stop - start]
        block *= -2.0
        block += np.add(norms[start:stop, None], z_norms, out=part)
        np.maximum(block, 0.0, out=block)
        if square:
            np.fill_diagonal(block[:, start:], 0.0)  # the block's part of the diagonal
        if np.isnan(block).any():
            raise ValueError("inputs too large: squared distances overflow")


def _eigenpairs(a: np.ndarray, count: int, centering=None,
                full=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenpairs of a finite symmetric matrix, unchecked.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as matching columns, each unit-norm with its
    largest-magnitude entry made positive (first such entry on magnitude
    ties) so the decomposition is reproducible across runs. Both are views
    of the solver's ascending output, reversed, with the signs fixed in
    place: nothing is copied.

    The pairs come from ``_lanczos``, started from a fixed vector, so reruns
    are identical; the full solver serves the request instead when
    ``count`` reaches half the order, the order is below
    ``PARTIAL_MIN_ORDER`` or Lanczos gives up. Its pairs are
    ``_full_eigenpairs(a)``, or ``full()`` when given, which must return all
    n pairs of the meant matrix as ``_full_eigenpairs`` does, so that a
    caller making several requests of one matrix can keep them. Raises
    ``NumericalError`` if the full eigensolver fails to converge.

    ``centering``, when given, is ``(column_means, grand_mean)`` of an
    uncentered Gram matrix ``a``, and the pairs are those of its double-centered
    ``J a J``: Lanczos applies J inside each product, and ``full`` must be
    given, as the full solver needs ``J a J`` as an array. ``a`` itself need
    only offer ``shape``, ``diagonal()`` and ``a @ v`` to Lanczos (a
    ``kpca.PackedGram`` does), and be an array when no ``full`` is given.
    """
    n = a.shape[0]
    if not 1 <= count <= n:
        raise ValueError(f"eigenpair count must be in [1, {n}], got {count}")
    pairs = None
    if 2 * count < n and n >= PARTIAL_MIN_ORDER:
        pairs = _lanczos(a, count, centering)
    if pairs is None:
        values, vectors = _full_eigenpairs(a) if full is None else full()
        return values[:count], vectors[:, :count]
    return _descending(*pairs)


def _full_eigenpairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of a finite symmetric array by ``np.linalg.eigh``, in
    ``_eigenpairs``'s order and signs. Raises ``NumericalError`` if the
    solver fails to converge."""
    try:
        pairs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition failed: {err}") from err
    return _descending(*pairs)


def _descending(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs as reversed views, each vector's sign fixed in place."""
    values, vectors = values[::-1], vectors[:, ::-1]
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


def _lanczos(a: np.ndarray, count: int,
             centering=None) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``count`` largest eigenpairs, ascending, or None when Lanczos gives up.

    Lanczos with full reorthogonalization (Golub & Van Loan, Matrix
    Computations, 4th ed., 10.1-10.3): each new vector is orthogonalized
    against the whole basis twice (classical Gram-Schmidt, twice), so no
    ghost copies appear. From a basis of twice ``count`` vectors on, every
    ``LANCZOS_CHECK_STEPS`` steps or more (an eighth of the basis, once that
    is larger), the Ritz pairs are taken from ``eigh`` of the tridiagonal
    matrix, and the solver stops when each wanted residual ``|beta_m s_mi|``
    is at most ``eps`` times the largest Ritz value's magnitude. It gives up (None) when the basis reaches
    ``2 count + LANCZOS_SLACK`` vectors, or the order, unconverged, or when
    the Krylov space closes (an invariant subspace) before ``count`` Ritz
    pairs have converged.

    ``centering``, when given, is ``(m, g)``: the column means and the grand
    mean of a Gram matrix ``a``, positive semi-definite, whose double-centered
    ``J a J`` is meant, and each product is ``_product``'s. Its rounding
    scales with ``a``, not with ``J a J``, so the space counts as closed
    against ``eps`` times ``n max(diag a)``, which bounds the norm of ``a``.
    """
    n = a.shape[0]
    eps = np.finfo(float).eps
    cap = min(n, 2 * count + LANCZOS_SLACK)
    basis = np.empty((cap, n))  # the Lanczos vectors are its rows
    alphas, betas = np.empty(cap), np.empty(cap)
    # any fixed start works except the constant vector, which a centered
    # Gram matrix maps to 0; a zero matrix maps every start to 0, and the
    # full solver decides
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.sqrt(start @ start)
    scale = 0.0 if centering is None else n * float(a.diagonal().max())
    check_at = 2 * count
    for m in range(1, cap + 1):
        done = basis[:m]
        w = _product(a, done[-1], centering)
        coeffs = done @ w
        w -= coeffs @ done
        again = done @ w
        w -= again @ done
        alphas[m - 1] = coeffs[-1] + again[-1]
        beta = float(np.sqrt(w @ w))
        scale = max(scale, abs(alphas[m - 1]) + beta + (betas[m - 2] if m > 1 else 0.0))
        closed = beta <= eps * scale
        if m >= check_at or m == cap or closed:
            check_at = m + max(LANCZOS_CHECK_STEPS, m // 8)
            if m >= count:
                tridiagonal = np.diag(alphas[:m])
                off = np.arange(m - 1)
                tridiagonal[off, off + 1] = tridiagonal[off + 1, off] = betas[:m - 1]
                ritz, vectors = np.linalg.eigh(tridiagonal)
                if np.all(np.abs(beta * vectors[-1, -count:]) <= eps * np.max(np.abs(ritz))):
                    return ritz[-count:], done.T @ vectors[:, -count:]
            if closed or m == cap:
                return None
        betas[m - 1] = beta
        np.divide(w, beta, out=basis[m])


def _product(a: np.ndarray, v: np.ndarray, centering=None) -> np.ndarray:
    """``a v``, or with ``centering = (m, g)``, the column means and the grand
    mean of a symmetric ``a``, the product of its double-centered ``J a J``
    (J = I - 11'/n) and ``v``: ``a v - 1 (m.v) - m sum(v) + g sum(v) 1``,
    which needs no centered copy of ``a``."""
    w = a @ v
    if centering is not None:
        col_means, grand_mean = centering
        total = v.sum()
        w -= col_means @ v - grand_mean * total
        w -= total * col_means
    return w


def _solve_spd(a: np.ndarray, b: np.ndarray, workers: int = 1) -> np.ndarray:
    """Solve ``A x = b`` for a symmetric positive definite ``A`` via Cholesky.

    ``a`` (finite, exactly symmetric, float64) and ``b`` (a finite vector
    of its order) are not checked. Never forms an inverse of ``A``. Raises
    ``NotPositiveDefiniteError`` (with the failing pivot index) when the
    factorization breaks down. ``a`` is factored in its own memory and no
    longer holds ``A`` afterwards: the factor ``L`` is left in its lower
    triangle, with zeros above the diagonal of each diagonal block, so each
    diagonal part of ``L`` below is a square block of ``a``.

    Left-looking blocked Cholesky: each ``CHOLESKY_BLOCK`` diagonal block is
    updated with one product of the rows already factored and factored by
    ``np.linalg.cholesky``; the panel below it is updated with one product
    and solved against it. Blocked forward and back substitution follow.
    Every triangular solve works ``SOLVE_ROWS`` rows of ``L`` at a time,
    through the inverse of their diagonal part, computed once per part:
    numpy's small solves cost far more per call than a product.

    Each row of a panel depends on that row and on the factored block only,
    so the panel's rows split over ``workers`` ranges (``_split_rows``), each
    with its own product buffer, allocated for that block step. A product split at a multiple of
    ``BLOCK_ROWS`` rows past the panel's first row gives the rows of the
    whole one (a cut at a multiple of 50 rows can change the last bits), so
    ``x`` and ``L`` are the same bits on any number of workers.
    """
    n = a.shape[0]
    starts = range(0, n, SOLVE_ROWS)
    inverses = []  # of each SOLVE_ROWS diagonal part of L, in order

    def panel_rows(k0: int, k1: int, r0: int, r1: int, buffer: np.ndarray) -> None:
        # rows r0:r1 of L21 = (A21 - L20 L10') L11^-T
        def product(left, right):
            return np.matmul(left, right, out=buffer[:left.shape[0] * right.shape[1]].reshape(
                left.shape[0], right.shape[1]))

        panel = a[r0:r1, k0:k1]
        if k0:
            panel -= product(a[r0:r1, :k0], a[k0:k1, :k0].T)
        for s0 in range(k0, k1, SOLVE_ROWS):
            cols = a[r0:r1, s0:s0 + SOLVE_ROWS]
            cols -= product(a[r0:r1, k0:s0], a[s0:s0 + SOLVE_ROWS, k0:s0].T)
            cols[...] = product(cols, inverses[s0 // SOLVE_ROWS].T)

    for k0 in range(0, n, CHOLESKY_BLOCK):
        k1 = min(k0 + CHOLESKY_BLOCK, n)
        done, block = a[k0:k1, :k0], a[k0:k1, k0:k1]
        if k0:
            block -= done @ done.T
        try:
            block[...] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(pivot=k0 + _failing_pivot(block)) from None
        inverses += [np.linalg.inv(a[s0:s0 + SOLVE_ROWS, s0:s0 + SOLVE_ROWS])
                     for s0 in range(k0, k1, SOLVE_ROWS)]
        if k1 < n:
            # a product buffer per range, allocated by this thread for this
            # step only: its share of the panel's rows (a cut lies within
            # BLOCK_ROWS / 2 of the even share) times the block's columns
            rows = min(n - k1, -(-(n - k1) // workers) + BLOCK_ROWS)
            _split_rows(lambda r0, r1, buffer: panel_rows(k0, k1, r0, r1, buffer),
                        k1, n, [np.empty(rows * (k1 - k0)) for _ in range(workers)])
    x = np.array(b, dtype=float)
    for s0, inverse in zip(starts, inverses):  # L y = b
        part = x[s0:s0 + SOLVE_ROWS]
        part -= a[s0:s0 + SOLVE_ROWS, :s0] @ x[:s0]
        part[...] = inverse @ part
    for s0, inverse in zip(reversed(starts), reversed(inverses)):  # L' x = y
        part = x[s0:s0 + SOLVE_ROWS]
        part -= x[s0 + SOLVE_ROWS:] @ a[s0 + SOLVE_ROWS:, s0:s0 + SOLVE_ROWS]
        part[...] = part @ inverse
    return x


def _failing_pivot(block: np.ndarray) -> int:
    """Index of the first pivot at which ``np.linalg.cholesky`` of ``block``
    fails: the order of its smallest leading submatrix that fails, less one."""
    factored, fails = 0, block.shape[0]
    while fails - factored > 1:
        mid = (factored + fails) // 2
        try:
            np.linalg.cholesky(block[:mid, :mid])
            factored = mid
        except np.linalg.LinAlgError:
            fails = mid
    return fails - 1
