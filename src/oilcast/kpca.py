"""Kernel principal component analysis with a Gaussian kernel.

The leading eigenpairs of the double-centered kernel Gram matrix (so the
eigenproblem really operates on centered feature-space data) are computed,
and the top components kept either as a fixed count or by retained variance
fraction. From ``IMPLICIT_CENTERING_MIN_ORDER`` samples on, the Gram matrix
itself stays uncentered: the partial eigensolver centers inside each
product with the column and grand means, and the matrix is centered in
place only when the full eigensolver serves a request. A fit computes the
training distances and squared norms once and derives both the
median-heuristic width and the Gram matrix from them, and keeps the
training rows' scores and squared norms. Out-of-sample points are projected
by centering their kernel row against the stored training statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (BLOCK_ROWS, NumericalError, _eigenpairs, _split_rows, _sq_distances, at_least,
                       check_rules, finite_array, finite_rows, one_blas_thread, sq_distances)

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

# From this order on, a fit leaves its Gram uncentered and the partial
# eigensolver centers inside each product; below it, the four extra terms of
# every product cost more than centering the matrix once.
IMPLICIT_CENTERING_MIN_ORDER = 512


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


def _median_distance(sq: np.ndarray, workers: int = 1) -> float:
    """Median pairwise distance from a squared-distance matrix of one sample set.

    Up to ``MEDIAN_COPY_MAX_ROWS`` samples one partition of a copy of the
    whole matrix finds the two middle pairs: off the (exactly 0) diagonal
    each of the P = n(n-1)/2 pairs appears twice, and no entry is negative,
    so they sit at ranks n + P - 1 and n + P of the flattened matrix. Above
    that the copy would be a second large matrix, so they are selected
    from the matrix itself: a fixed sample of pairs brackets them, one pass
    over the upper triangle, split over ``workers`` row ranges, counts the
    pairs on either side of the bracket and gathers those inside it, and a
    partition of those finds them. Should the bracket miss them, the copy
    is made after all.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    picked = None
    if n > MEDIAN_COPY_MAX_ROWS:
        pairs = n * (n - 1) // 2
        ranks = [(pairs - 1) // 2, pairs // 2]
        picked = _select_pairs(sq, ranks, *_median_bracket(sq, ranks), workers=workers)
    if picked is None:
        mid = n + n * (n - 1) // 2
        ranked = np.partition(sq, mid - 1, axis=None)
        picked = ranked[mid - 1], ranked[mid:].min()
    low, high = picked
    med = float((np.sqrt(low) + np.sqrt(high)) / 2.0)
    if med <= 0.0:
        raise DegenerateKernelError("median pairwise distance is 0 (duplicated samples)")
    return med


def _median_bracket(sq: np.ndarray, ranks: list[int]) -> tuple[float, float]:
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
    sample = np.sort(sq[rows, cols])
    pairs = n * (n - 1) // 2
    margin = MEDIAN_BRACKET_SDS * np.sqrt(size) / 2.0
    first = int(np.floor(size * ranks[0] / pairs - margin))
    last = int(np.ceil(size * (ranks[1] + 1) / pairs + margin))
    return sample[max(first, 0)], sample[min(last, size - 1)]


def _select_pairs(sq: np.ndarray, ranks: list[int], lo: float, hi: float,
                  workers: int = 1) -> tuple[float, float] | None:
    """The pair values at the two ``ranks`` if both lie in [lo, hi], else None.

    Reads the strict upper triangle ``BLOCK_ROWS`` rows at a time: each
    block's diagonal square through a mask, the rest of its rows whole. The
    rows split over ``workers`` ranges at the row that halves the triangle,
    and the ranges' counts and gathered values are joined in row order, so
    the result does not depend on the worker count.
    """
    n = sq.shape[0]
    upper = np.triu(np.ones((BLOCK_ROWS, BLOCK_ROWS), dtype=bool), 1)

    def count(r0: int, r1: int, _) -> tuple[int, int, list]:
        below = above = 0
        inside = []
        for start in range(r0, r1, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, r1)
            square = sq[start:stop, start:stop][upper[: stop - start, : stop - start]]
            for values in (square, sq[start:stop, stop:]):
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
    if isinstance(kernel, LinearKernel):
        x = np.ascontiguousarray(x)  # x x' of a contiguous x is a symmetric rank-k update
        return np.matmul(x, x.T, out=out), kernel, None
    if not (kernel is None or isinstance(kernel, GaussianKernel)):
        raise ValueError(f"kernel must be a GaussianKernel, a LinearKernel or None, got {kernel!r}")
    sq, norms = _sq_distances(x, out=out, workers=workers)
    if kernel is None:
        kernel = GaussianKernel(_median_distance(sq, workers))
    _split_rows(lambda r0, r1, _: kernel.of_sq_distances(sq[r0:r1]), 0, sq.shape[0],
                [None] * workers)
    return sq, kernel, norms


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
    Gaussian kernel at the median-heuristic width. The Gram matrix is
    built in ``out`` when one is given, an n x n float64 array the fit
    overwrites and does not keep. Below ``IMPLICIT_CENTERING_MIN_ORDER``
    samples it is centered in place at once; from there on it is centered
    only if the full eigensolver serves a request. A linear one is checked
    for finiteness once, as its solver first receives it. Raises
    ``DegenerateKernelError`` when no eigenvalue clears the floor.
    """
    x = finite_array(x, "x", 2)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"kpca_fit needs at least 2 samples, got {n}")
    check_selection(n_components, theta)
    if n_components is not None and n_components > n:
        raise ValueError(f"n_components must be <= the {n} samples, got {n_components}")
    if n_components is None and theta is None:
        theta = DEFAULT_THETA
    # the fit's one n x n matrix: the Gram matrix, centered in place only
    # below IMPLICIT_CENTERING_MIN_ORDER
    k, kernel, train_norms = _gram(x, kernel, out=out)
    centering = None
    if n < IMPLICIT_CENTERING_MIN_ORDER:
        k, col_means, grand_mean = center_kernel(k)
    else:
        col_means, grand_mean = k.mean(axis=0), float(k.mean())  # as center_kernel takes them
        centering = (col_means, grand_mean)
    if isinstance(kernel, LinearKernel):  # huge finite rows can overflow x x' or its centering
        finite_array(k, "kernel matrix", 2)
    values, vectors, keep = _leading_components(k, n_components, theta, centering)
    del k  # freed before the coefficients are formed (unless it is the caller's ``out``)

    lam = values[:keep].copy()
    root = np.sqrt(lam)[None, :]
    return KpcaModel(
        x_train=x.copy(),
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


def _leading_components(k: np.ndarray, n_components: int | None, theta: float,
                        centering=None) -> tuple[np.ndarray, np.ndarray, int]:
    """Leading eigenpairs of the centered Gram matrix and the count to keep.

    ``k`` is the centered Gram matrix, or with ``centering``, the column
    means and grand mean of an uncentered ``k``, the uncentered one:
    ``_eigenpairs`` then centers inside the partial solver's products, and
    ``center_kernel`` centers ``k`` in place, once, before the full solver
    first reads it. A fixed ``n_components`` asks ``_eigenpairs`` for that
    many pairs. The ``theta`` rule asks for ``FIRST_REQUEST`` pairs and
    doubles the request until the cumulative share of ``trace(k_c)``
    (``trace(k) - n grand_mean`` for an uncentered ``k``) passes theta. The
    trace is the whole spectrum's sum; for a positive semi-definite kernel
    it differs from the sum of the usable eigenvalues by less than ``n``
    times the floor, so ``tol`` below bounds the change to any share. When
    a share lies within ``tol`` of theta, or the floor comes before theta,
    the full spectrum is computed and the usable sum decides, as it always
    did. ``k`` is not checked here: ``kpca_fit`` hands over a finite Gram,
    symmetric by construction up to centering's rounding.

    A centered spectrum from an uncentered ``k`` is exact only to the
    rounding of ``k``, which ``eps n max(diag k)`` bounds for a positive
    semi-definite ``k``: a leading eigenvalue no larger is taken as none
    (``DegenerateKernelError``); from a centered ``k``, one at or below 0.
    """
    n = k.shape[0]
    if centering is None:
        trace, noise = float(np.trace(k)), 0.0
    else:  # read before k is centered
        diagonal = np.diagonal(k)
        trace = float(np.sum(diagonal - centering[1]))
        noise = np.finfo(float).eps * n * float(diagonal.max())

    # set once k is centered: a list, not a rebound name, so no reference
    # cycle keeps the Gram alive past the return
    centered = [] if centering is not None else [True]

    def center() -> None:
        center_kernel(k)
        centered.append(True)

    def eigenpairs(count: int) -> tuple[np.ndarray, np.ndarray]:
        return _eigenpairs(k, count, None if centered else (*centering, center))

    if n_components is not None:
        values, vectors = eigenpairs(n_components)
        usable, floor = _usable_count(values, noise)
        if n_components > usable:
            raise ValueError(f"requested {n_components} components but only {usable} "
                             f"eigenvalues clear the floor {floor:.3e}")
        return values, vectors, n_components

    tol = 1e-9 + n * EIGENVALUE_FLOOR_RATIO
    target = theta - 1e-12
    count = min(FIRST_REQUEST, n)
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
