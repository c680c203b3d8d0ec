"""Kernel principal component analysis with a Gaussian kernel.

The leading eigenpairs of the double-centered kernel Gram matrix (so the
eigenproblem really operates on centered feature-space data) are computed,
and the top components kept either as a fixed count or by retained variance
fraction. Below ``IMPLICIT_CENTERING_MIN_ORDER`` samples a fit builds the
whole n x n Gram matrix and centers it in place. From that order on it
stores only the upper triangle, as a ``PackedGram`` of about n^2/2 + 64 n
doubles, and leaves it uncentered: the partial eigensolver centers inside
each product with the column and grand means, and only the full eigensolver
unpacks a centered n x n temporary. A fit computes the training distances
and squared norms once and derives both the median-heuristic width and the
Gram matrix from them, and keeps the training rows' scores and squared
norms. Out-of-sample points are projected by centering their kernel row
against the stored training statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (BLOCK_ROWS, NumericalError, _eigenpairs, _full_eigenpairs, _split_rows,
                       _sq_distances, at_least, check_rules, finite_array, finite_rows,
                       one_blas_thread, sq_distances, sq_norms)

# Components with eigenvalue at or below EIGENVALUE_FLOOR_RATIO * lambda_max
# are treated as numerical rank deficiency and never retained.
EIGENVALUE_FLOOR_RATIO = 1e-10

DEFAULT_THETA = 0.95

# Up to this many samples the median heuristic partitions a copy of the
# distance matrix (about 2 MB at most, and faster than the bracket); above, it
# brackets the middle pairs with a sample of MEDIAN_SAMPLE_PER_ROW pairs per
# sample row, widened by MEDIAN_BRACKET_SDS standard deviations each side.
MEDIAN_COPY_MAX_ROWS = 512
MEDIAN_SAMPLE_PER_ROW = 16
MEDIAN_BRACKET_SDS = 8.0

# The variance-fraction rule first asks for this many leading eigenpairs and
# doubles the request until the fraction is reached.
FIRST_REQUEST = 4

# From this order on, a fit stores its Gram packed and uncentered, and the
# partial eigensolver centers inside each product; below it, the four extra
# terms of every product cost more than centering the matrix once, and the
# whole matrix is small.
IMPLICIT_CENTERING_MIN_ORDER = 512

# Rows per block of a PackedGram, which stores about n^2/2 + PACKED_ROWS n / 2
# doubles. Each block costs a few numpy calls per pass and per Lanczos
# product, and the interpreter lock serializes those calls. The six KPCA fits
# of long_panel draw 1 took (one worker / two workers, medians of 8 runs)
# 119 / 105 ms at 64 rows and 112 / 88 ms at 128; whole Grams 153 / 101 ms.
PACKED_ROWS = 128


class DegenerateKernelError(NumericalError):
    """The centered kernel has no usable spectrum (e.g. duplicated samples)."""


RULES = {  # parameter -> (test of a valid value, stated rule)
    # 2 sigma^2 as a float product, which overflows to inf where sigma**2 would raise
    "sigma": ((lambda s: float(s) > 0 and 0.0 < 2.0 * float(s) * float(s) < np.inf),
              "positive, with 2 sigma^2 finite and non-zero"),
    "theta": ((lambda value: 0.0 < value <= 1.0), "in (0, 1]"),
    "n_components": at_least(1),
}


def check_selection(n_components: int | None, theta: float | None) -> None:
    """The component-count rules: each of ``n_components`` and ``theta`` by its
    rule when set, and not both set."""
    if n_components is not None and theta is not None:
        raise ValueError("set n_components or theta, not both")
    for name, value in (("n_components", n_components), ("theta", theta)):
        if value is not None:
            check_rules(RULES, **{name: value})


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, z) = exp(-||x - z||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        check_rules(RULES, sigma=self.sigma)

    def __call__(self, x: np.ndarray, z: np.ndarray, z_norms=None) -> np.ndarray:
        """Kernel values between the rows of x and of z; ``z_norms``, the
        ``sq_norms`` of z when a fit has kept them, spare computing them."""
        return self.of_sq_distances(sq_distances(x, z, z_norms=z_norms))

    def of_sq_distances(self, sq: np.ndarray) -> np.ndarray:
        """The kernel of squared distances, computed in place over ``sq``."""
        sq /= -2.0 * self.sigma**2
        return np.exp(sq, out=sq)


@dataclass(frozen=True)
class LinearKernel:
    """k(x, z) = x . z; used to cross-check against classical PCA and ridge regression."""

    def __call__(self, x: np.ndarray, z: np.ndarray, z_norms=None) -> np.ndarray:
        """Kernel values between the rows of x and of z; ``z_norms`` is taken
        as the Gaussian kernel takes it, and not needed."""
        return x @ z.T


def _packed_size(n: int) -> int:
    """Entries of a ``PackedGram`` of order n: PACKED_ROWS-row blocks of rows r0:n."""
    return sum(min(PACKED_ROWS, n - r0) * (n - r0) for r0 in range(0, n, PACKED_ROWS))


def gram_size(n: int) -> int:
    """Float64 entries of the Gram storage a KPCA fit on ``n`` samples uses,
    the size of ``kpca_fit``'s ``out``: n^2 below
    ``IMPLICIT_CENTERING_MIN_ORDER`` samples, a ``PackedGram``'s from there."""
    return n * n if n < IMPLICIT_CENTERING_MIN_ORDER else _packed_size(n)


class PackedGram:
    """A symmetric n x n matrix stored as its upper triangle in row blocks.

    Block b holds rows r0:r1, r0 = b PACKED_ROWS: its diagonal square
    ``K[r0:r1, r0:r1]``, whole, then its panel ``K[r0:r1, r1:]``, each one
    contiguous array, back to back in one flat float64 buffer of
    ``_packed_size(n)`` entries, about n^2/2 + 64 n. The layout depends on
    n alone. ``blocks`` lists ``(r0, r1, square, panel)``; the store offers
    what the fit reads: ``shape``, ``diagonal()``, ``K @ v`` and ``unpack()``.
    """

    def __init__(self, n: int, out=None):
        size = _packed_size(n)
        # a C-contiguous buffer, so the reshape is a view the blocks write through
        self.buffer = np.empty(size) if out is None else out.reshape(-1)[:size]
        self.shape = (n, n)
        self.blocks = []
        self.starts = []  # each block's offset in the buffer
        offset = 0
        for r0 in range(0, n, PACKED_ROWS):
            r1 = min(r0 + PACKED_ROWS, n)
            h = r1 - r0
            square = self.buffer[offset:offset + h * h].reshape(h, h)
            panel = self.buffer[offset + h * h:offset + h * (n - r0)].reshape(h, n - r1)
            self.blocks.append((r0, r1, square, panel))
            self.starts.append(offset)
            offset += h * (n - r0)

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(square) for _, _, square, _ in self.blocks])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``K v``, block by block: D v + P v + P' v. ``np.dot`` lets go of the
        interpreter lock for any product; ``matmul`` keeps it when the result
        is short, as a block's rows are."""
        w = np.zeros(self.shape[0])
        for r0, r1, square, panel in self.blocks:
            head = w[r0:r1]
            head += np.dot(square, v[r0:r1])
            head += np.dot(panel, v[r1:])
            w[r1:] += np.dot(v[r0:r1], panel)
        return w

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``K[rows, cols]`` for index arrays of upper-triangle entries, each
        row index below its column's."""
        n = self.shape[0]
        # per row i: where its square row starts less r0, where its panel row
        # starts less r1, and r1, so the entry (i, j) sits at start + j
        square_at, panel_at, stop = (np.empty(n, dtype=np.intp) for _ in range(3))
        for (r0, r1, _, _), start in zip(self.blocks, self.starts):
            row = np.arange(r1 - r0)
            square_at[r0:r1] = start + row * (r1 - r0) - r0
            panel_at[r0:r1] = start + (r1 - r0) ** 2 + row * (n - r1) - r1
            stop[r0:r1] = r1
        at = panel_at[rows]
        inside = cols < stop[rows]
        at[inside] = square_at[rows[inside]]
        at += cols
        return self.buffer[at]

    def unpack(self) -> np.ndarray:
        """The whole matrix as a new n x n array. The store lets go of its
        buffer, and so frees it unless the caller's ``out`` holds it."""
        n = self.shape[0]
        full = np.empty((n, n))
        for r0, r1, square, panel in self.blocks:
            full[r0:r1, r0:r1] = square
            full[r0:r1, r1:] = panel
            full[r1:, r0:r1] = panel.T
        self.buffer, self.blocks = None, []
        return full


def _upper_blocks(sq, r0: int, r1: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(square, panel)`` of each block of rows r0:r1 of the upper triangle
    of a squared-distance matrix: a dense one's BLOCK_ROWS-row blocks, the
    last stopping at r1, or each block of a packed one that starts in r0:r1."""
    if isinstance(sq, PackedGram):
        return [(square, panel) for start, _, square, panel in sq.blocks if r0 <= start < r1]
    stops = [min(start + BLOCK_ROWS, r1) for start in range(r0, r1, BLOCK_ROWS)]
    return [(sq[start:stop, start:stop], sq[start:stop, stop:])
            for start, stop in zip(range(r0, r1, BLOCK_ROWS), stops)]


def _median_distance(sq, workers: int = 1) -> float:
    """Median pairwise distance from a squared-distance matrix of one sample
    set, dense or a ``PackedGram``.

    Up to ``MEDIAN_COPY_MAX_ROWS`` samples one partition of a copy of the
    whole dense matrix finds the two middle pairs: off the (exactly 0)
    diagonal each of the P = n(n-1)/2 pairs appears twice, and no entry is
    negative, so they sit at ranks n + P - 1 and n + P of the flattened
    matrix. Above that the copy would be a second large matrix, so they are
    selected from the matrix itself: a fixed sample of pairs brackets them,
    one pass over the upper triangle, split over ``workers`` row ranges,
    counts the pairs on either side of the bracket and gathers those inside
    it, and a partition of those finds them. Should the bracket miss them,
    a dense matrix is copied after all. A packed one is never copied: where
    a dense one would be, its pass takes a bracket that holds every pair.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    pairs = n * (n - 1) // 2
    ranks = [(pairs - 1) // 2, pairs // 2]
    picked = None
    if n > MEDIAN_COPY_MAX_ROWS:
        picked = _select_pairs(sq, ranks, *_median_bracket(sq, ranks), workers=workers)
    if picked is None and isinstance(sq, PackedGram):
        picked = _select_pairs(sq, ranks, -np.inf, np.inf, workers=workers)
    if picked is None:
        mid = n + pairs
        ranked = np.partition(sq, mid - 1, axis=None)
        picked = ranked[mid - 1], ranked[mid:].min()
    low, high = picked
    med = float((np.sqrt(low) + np.sqrt(high)) / 2.0)
    if med <= 0.0:
        raise DegenerateKernelError("median pairwise distance is 0 (duplicated samples)")
    return med


def _median_bracket(sq, ranks: list[int]) -> tuple[float, float]:
    """Values that hold the pairs at ``ranks`` between them with near certainty.

    They come from ``MEDIAN_SAMPLE_PER_ROW * n`` pairs drawn with a fixed
    seed, widened by ``MEDIAN_BRACKET_SDS`` binomial standard deviations on
    each side (at most to the sample's ends).
    """
    n = sq.shape[0]
    size = MEDIAN_SAMPLE_PER_ROW * n
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n, size)
    cols = rng.integers(0, n - 1, size)
    cols += cols >= rows  # a column other than the row, uniformly
    # the same pairs of a symmetric matrix, read in its upper triangle
    swap = cols < rows
    rows[swap], cols[swap] = cols[swap], rows[swap]
    sample = np.sort(sq.entries(rows, cols) if isinstance(sq, PackedGram) else sq[rows, cols])
    pairs = n * (n - 1) // 2
    margin = MEDIAN_BRACKET_SDS * np.sqrt(size) / 2.0
    first = int(np.floor(size * ranks[0] / pairs - margin))
    last = int(np.ceil(size * (ranks[1] + 1) / pairs + margin))
    return sample[max(first, 0)], sample[min(last, size - 1)]


def _select_pairs(sq, ranks: list[int], lo: float, hi: float,
                  workers: int = 1) -> tuple[float, float] | None:
    """The pair values at the two ``ranks`` if both lie in [lo, hi], else None.

    Reads the strict upper triangle a block of rows at a time
    (``_upper_blocks``): each block's diagonal square through a mask, its
    panel whole. The rows split over ``workers`` ranges at the row that
    halves the triangle, and the ranges' counts and gathered values are
    joined in row order, so the result does not depend on the worker count.
    """
    n = sq.shape[0]

    def count(r0: int, r1: int, _) -> tuple[int, int, list]:
        below = above = 0
        inside = []
        blocks = _upper_blocks(sq, r0, r1)
        size = max((square.shape[0] for square, _ in blocks), default=0)
        upper = np.triu(np.ones((size, size), dtype=bool), 1)
        for square, panel in blocks:
            h = square.shape[0]
            for values in (square[upper[:h, :h]], panel):
                keep = values >= lo
                below += values.size - np.count_nonzero(keep)
                under = values <= hi
                above += values.size - np.count_nonzero(under)
                if lo < hi:  # otherwise every value inside equals lo
                    keep &= under
                    inside.append(values[keep])
        return below, above, inside

    # rows 0:s hold half the triangle's pairs at s = n (1 - 1/sqrt 2)
    parts = _split_rows(count, 0, n, [None] * workers, share=1.0 - np.sqrt(0.5))
    below, above = sum(part[0] for part in parts), sum(part[1] for part in parts)
    pairs = n * (n - 1) // 2
    if ranks[0] < below or ranks[1] >= pairs - above:
        return None
    if lo == hi:
        return lo, lo
    inside = np.concatenate([values for part in parts for values in part[2]])
    first, second = ranks[0] - below, ranks[1] - below
    inside.partition([first, second])
    return float(inside[first]), float(inside[second])


def _gram(x: np.ndarray, kernel, out=None,
          workers: int = 1) -> tuple[np.ndarray, GaussianKernel | LinearKernel, np.ndarray | None]:
    """The Gram matrix of sample rows, in ``out`` when given (an n x n float64
    array), its kernel, and the rows' ``sq_norms`` that a Gaussian Gram
    computed (None for a linear one): the one builder of every fit's Gram.

    ``kernel`` is a ``GaussianKernel``, a ``LinearKernel`` or None, a
    Gaussian kernel at the median heuristic of the same distances, so one
    distance matrix serves both and becomes the Gram matrix in place;
    anything else raises ``ValueError`` before a matrix is built. ``x`` is
    not checked here: it must be a finite 2-D float array, as its callers
    have made sure. The passes over a Gaussian Gram after its product (the
    distance update, the median count and ``exp``) split over ``workers``
    row ranges; the matrix is the same bits on any number of workers.

    Either Gram is exactly symmetric, so none is scanned for symmetry. A
    Gaussian one needs no scan at all: ``sq_distances`` rejects its one
    possible NaN, and every other entry lies in [0, 1]. A linear one is not
    checked here: huge finite rows can overflow ``x x'`` or its centering,
    so each fit checks the linear matrix it hands to its solver, once.
    """
    _check_kernel(kernel)
    if isinstance(kernel, LinearKernel):
        x = np.ascontiguousarray(x)  # x x' of a contiguous x is a symmetric rank-k update
        return np.matmul(x, x.T, out=out), kernel, None
    sq, norms = _sq_distances(x, out=out, workers=workers)
    if kernel is None:
        kernel = GaussianKernel(_median_distance(sq, workers))
    _split_rows(lambda r0, r1, _: kernel.of_sq_distances(sq[r0:r1]), 0, sq.shape[0],
                [None] * workers)
    return sq, kernel, norms


def _packed_gram(x: np.ndarray, kernel,
                 out=None) -> tuple[PackedGram, GaussianKernel | LinearKernel, np.ndarray | None]:
    """``_gram`` on the upper triangle only: the Gram matrix of sample rows as
    a ``PackedGram``, in ``out`` when given (a C-contiguous float64 array of
    at least ``_packed_size(n)`` entries), its kernel and the rows'
    ``sq_norms`` (None for a linear Gram), on one worker.

    Each block's square is ``sq_distances`` of its rows with themselves, so
    it is exactly symmetric with a diagonal of exactly 0, and its panel their
    distances to the rows below (for a linear kernel, the products ``x x'``
    of the same rows, a symmetric rank-k update on the square). The kernel
    rule, the median heuristic and the overflow error are ``_gram``'s.
    """
    _check_kernel(kernel)
    x = np.ascontiguousarray(x, dtype=float)
    store = PackedGram(x.shape[0], out)
    linear = isinstance(kernel, LinearKernel)
    norms = None if linear else sq_norms(x)
    for r0, r1, square, panel in store.blocks:
        rows, below = x[r0:r1], x[r1:]
        if linear:
            np.matmul(rows, rows.T, out=square)
            np.matmul(rows, below.T, out=panel)
        else:
            sq_distances(rows, out=square)
            sq_distances(rows, below, out=panel, z_norms=norms[r1:])
    if linear:
        return store, kernel, None
    if kernel is None:
        kernel = GaussianKernel(_median_distance(store))
    kernel.of_sq_distances(store.buffer)
    return store, kernel, norms


def _check_kernel(kernel) -> None:
    """``ValueError`` unless ``kernel`` is a ``GaussianKernel``, a ``LinearKernel`` or None."""
    if not (kernel is None or isinstance(kernel, (GaussianKernel, LinearKernel))):
        raise ValueError(f"kernel must be a GaussianKernel, a LinearKernel or None, got {kernel!r}")


def _finite_prediction(values: np.ndarray) -> np.ndarray:
    """``values`` computed from kernel rows, or ``ValueError`` where they
    overflowed: a linear kernel's values are unbounded."""
    if not np.isfinite(values).all():
        raise ValueError("inputs too large: kernel rows overflow")
    return values


def center_kernel(k) -> tuple[np.ndarray, np.ndarray, float]:
    """Double-center a Gram matrix in place.

    Returns ``(k_centered, column_means, grand_mean)``; the means are the
    statistics needed to center out-of-sample kernel rows consistently.
    ``k_centered`` is ``k`` itself, overwritten, when ``k`` is a float64
    array, and a centered copy of any other input. Symmetry is not checked
    here: centering changes ``k[i, j] - k[j, i]`` by rounding only, so the
    exactly symmetric Grams the fits build center to symmetric within
    rounding. A fit calls it only when the full eigensolver serves a
    request; the partial one centers inside its products instead.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {k.shape}")
    col_means = k.mean(axis=0)
    grand_mean = float(k.mean())
    k -= col_means[None, :]
    k -= col_means[:, None]
    k += grand_mean
    return k, col_means, grand_mean


@dataclass
class KpcaModel:
    x_train: np.ndarray
    train_norms: np.ndarray | None  # (N,) sq_norms of x_train for a Gaussian kernel's rows
    kernel: GaussianKernel | LinearKernel
    eigenvalues: np.ndarray
    alphas: np.ndarray  # (N, n_components), scaled so lambda_j * |alpha_j|^2 = 1
    train_scores: np.ndarray  # (N, n_components) training rows' projection, v_j * sqrt(lambda_j)
    col_means: np.ndarray
    grand_mean: float
    n_components: int


@one_blas_thread()
def kpca_fit(x, kernel=None, n_components: int | None = None, theta: float | None = None,
             out=None) -> KpcaModel:
    """Fit KPCA on sample rows.

    Component count comes from ``n_components`` (fixed) or ``theta``
    (smallest count reaching that fraction of the usable eigenvalue sum);
    giving both is an error, giving neither selects theta = 0.95.
    ``kernel`` is a ``GaussianKernel``, a ``LinearKernel`` or None, a
    Gaussian kernel at the median-heuristic width. Below
    ``IMPLICIT_CENTERING_MIN_ORDER`` samples the fit builds the whole n x n
    Gram matrix and centers it in place at once. From there on it stores
    the upper triangle alone, as a ``PackedGram`` of about n^2/2 + 64 n
    doubles, uncentered: the partial eigensolver centers inside its
    products, and the full one, if it serves a request, reads a centered
    n x n temporary unpacked from the store. ``out``, when given, is a
    C-contiguous float64 array of ``gram_size(n)`` entries that receives
    the Gram storage; the fit overwrites it and does not keep it. A linear
    Gram is checked for finiteness once, as its solver first receives it.
    Raises ``DegenerateKernelError`` when no eigenvalue clears the floor.

    ``x`` is copied once, C-ordered, and the model keeps that copy as
    ``x_train``: writing into the caller's array later changes nothing.
    ``pipeline_fit`` calls the unchecked core ``_fit`` instead, which keeps
    the block it is given.
    """
    return _fit(finite_array(np.array(x, dtype=float, order="C"), "x", 2), kernel, n_components,
                theta, out)


def _fit(x: np.ndarray, kernel, n_components: int | None, theta: float | None,
         out) -> KpcaModel:
    """``kpca_fit`` of a finite 2-D C-contiguous float64 ``x``, which is not
    checked, and which the model keeps as ``x_train`` without a copy: the
    caller hands it over. Every other rule is ``kpca_fit``'s."""
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"kpca_fit needs at least 2 samples, got {n}")
    check_selection(n_components, theta)
    if n_components is not None and n_components > n:
        raise ValueError(f"n_components must be <= the {n} samples, got {n_components}")
    if n_components is None and theta is None:
        theta = DEFAULT_THETA
    linear = isinstance(kernel, LinearKernel)  # huge finite rows can overflow x x' or its centering
    if n < IMPLICIT_CENTERING_MIN_ORDER:
        k, kernel, train_norms = _gram(x, kernel, out=None if out is None else out.reshape(n, n))
        k, col_means, grand_mean = center_kernel(k)
        centering = None
        if linear:
            finite_array(k, "kernel matrix", 2)
    else:
        k, kernel, train_norms = _packed_gram(x, kernel, out)
        if linear:
            finite_array(k.buffer, "kernel matrix", 1)
        col_means = (k @ np.ones(n)) / n  # the row sums of a symmetric K
        grand_mean = float(col_means.mean())
        centering = (col_means, grand_mean)
    values, vectors, keep = _leading_components(k, n_components, theta, centering)
    del k  # freed before the coefficients are formed (unless it is the caller's ``out``)

    lam = values[:keep].copy()
    root = np.sqrt(lam)[None, :]
    return KpcaModel(
        x_train=x,
        train_norms=train_norms,
        kernel=kernel,
        eigenvalues=lam,
        # column-major: kpca_transform's product, and its last bits, follow this layout
        alphas=np.divide(vectors[:, :keep], root, order="F"),
        train_scores=vectors[:, :keep] * root,
        col_means=col_means,
        grand_mean=grand_mean,
        n_components=keep,
    )


def _usable_count(values: np.ndarray, noise: float) -> tuple[int, float]:
    """How many of the (descending) eigenvalues clear the floor, and the floor.

    A leading eigenvalue at or below ``noise`` (0, or the rounding of the
    uncentered Gram whose products gave the eigenpairs) means the centered
    Gram has no spectrum at all."""
    lam_max = float(values[0])
    if lam_max <= noise:
        raise DegenerateKernelError("degenerate kernel: centered Gram has no positive eigenvalue")
    floor = EIGENVALUE_FLOOR_RATIO * lam_max
    return int(np.sum(values > floor)), floor


def _leading_components(k, n_components: int | None, theta: float,
                        centering=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Leading eigenpairs of the centered Gram matrix and the count to keep.

    ``k`` is the centered Gram matrix, or with ``centering``, the column
    means and grand mean of an uncentered ``k``, an uncentered
    ``PackedGram``: ``_eigenpairs`` then centers inside the partial
    solver's products, and for the full solver ``k`` is unpacked and
    centered by ``center_kernel``. The full solver runs at most once: every
    request after it reads its pairs. A fixed ``n_components`` asks
    ``_eigenpairs`` for that many pairs. The ``theta`` rule asks for
    ``FIRST_REQUEST`` pairs and doubles the request until the cumulative
    share of ``trace(k_c)`` (``trace(k) - n grand_mean`` for an uncentered
    ``k``) passes theta. The trace is the whole spectrum's sum; for a
    positive semi-definite kernel it differs from the sum of the usable
    eigenvalues by less than ``n`` times the floor, so ``tol`` below bounds
    the change to any share. When a share lies within ``tol`` of theta, or
    the floor comes before theta, the full spectrum is computed and the
    usable sum decides, as it always did. No share is above
    ``1 + n * EIGENVALUE_FLOOR_RATIO``, so a theta whose ``target + tol``
    reaches that (a theta of 1 always does) ends on the full spectrum: it
    asks for all n pairs at once.
    ``k`` is not checked here: ``kpca_fit`` hands over a finite Gram,
    symmetric by construction up to centering's rounding.

    A centered spectrum from an uncentered ``k`` is exact only to the
    rounding of ``k``, which ``eps n max(diag k)`` bounds for a positive
    semi-definite ``k``: a leading eigenvalue no larger is taken as none
    (``DegenerateKernelError``); from a centered ``k``, one at or below 0.
    """
    n = k.shape[0]
    if centering is None:
        trace, noise = float(np.trace(k)), 0.0
    else:
        diagonal = k.diagonal()
        trace = float(np.sum(diagonal - centering[1]))
        noise = np.finfo(float).eps * n * float(diagonal.max())

    solved = []  # all n pairs of the full solver, once it has run

    def full() -> tuple[np.ndarray, np.ndarray]:
        # a PackedGram is unpacked into a centered n x n temporary for it
        solved.append(_full_eigenpairs(k if centering is None
                                       else center_kernel(k.unpack())[0]))
        return solved[0]

    def eigenpairs(count: int) -> tuple[np.ndarray, np.ndarray]:
        if solved:
            values, vectors = solved[0]
            return values[:count], vectors[:, :count]
        return _eigenpairs(k, count, centering, full)

    if n_components is not None:
        values, vectors = eigenpairs(n_components)
        usable, floor = _usable_count(values, noise)
        if n_components > usable:
            raise ValueError(f"requested {n_components} components but only {usable} "
                             f"eigenvalues clear the floor {floor:.3e}")
        return values, vectors, n_components

    tol = 1e-9 + n * EIGENVALUE_FLOOR_RATIO
    target = theta - 1e-12
    count = n if target + tol >= 1 + n * EIGENVALUE_FLOOR_RATIO else min(FIRST_REQUEST, n)
    while True:
        values, vectors = eigenpairs(count)
        usable, _ = _usable_count(values, noise)
        spectrum = values[:usable]
        if count == n:
            fractions = np.cumsum(spectrum) / spectrum.sum()
            return values, vectors, min(int(np.searchsorted(fractions, target)) + 1, usable)
        shares = np.cumsum(spectrum) / trace
        j = int(np.searchsorted(shares, target))
        if j < usable:
            if shares[j] - target > tol and (j == 0 or target - shares[j - 1] > tol):
                return values, vectors, j + 1
            count = n
        elif usable < count:
            count = n
        else:
            count = min(2 * count, n)


@one_blas_thread()
def kpca_transform(model: KpcaModel, x) -> np.ndarray:
    """Project sample rows onto the retained components.

    Returns an (m, n_components) matrix for m rows. The raw kernel rows
    are centered with the stored training statistics before applying the
    coefficient columns. Rows whose kernel values, or the sums of them,
    overflow raise ``ValueError``.
    """
    rows = finite_rows(x, model.x_train.shape[1])
    k_rows = model.kernel(rows, model.x_train, model.train_norms)
    k_c = (
        k_rows
        - k_rows.mean(axis=1, keepdims=True)
        - model.col_means[None, :]
        + model.grand_mean
    )
    return _finite_prediction(k_c @ model.alphas)
