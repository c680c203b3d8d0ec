"""Kernel principal component analysis with a Gaussian kernel.

The kernel Gram matrix is double-centered (so the eigenproblem really
operates on centered feature-space data), its leading eigenpairs are
computed, and the top components kept either as a fixed count or by
retained variance fraction. A fit computes the training distances once and
derives both the median-heuristic width and the Gram matrix from them, and
keeps the training rows' scores and squared norms. Out-of-sample points are
projected by centering their kernel row against the stored training
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (BLOCK_ROWS, NumericalError, _eigenpairs, at_least, check_rules, finite_array,
                       finite_rows, one_blas_thread, sq_distances, sq_norms)

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


def _median_distance(sq: np.ndarray) -> float:
    """Median pairwise distance from a squared-distance matrix of one sample set.

    Up to ``MEDIAN_COPY_MAX_ROWS`` samples one partition of a copy of the
    whole matrix finds the two middle pairs: off the (exactly 0) diagonal
    each of the P = n(n-1)/2 pairs appears twice, and no entry is negative,
    so they sit at ranks n + P - 1 and n + P of the flattened matrix. Above
    that the copy would be a second large matrix, so they are selected
    from the matrix itself: a fixed sample of pairs brackets them, one pass
    over the upper triangle counts the pairs on either side of the bracket
    and gathers those inside it, and a partition of those finds them.
    Should the bracket miss them, the copy is made after all.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    picked = None
    if n > MEDIAN_COPY_MAX_ROWS:
        pairs = n * (n - 1) // 2
        ranks = [(pairs - 1) // 2, pairs // 2]
        picked = _select_pairs(sq, ranks, *_median_bracket(sq, ranks))
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


def _select_pairs(sq: np.ndarray, ranks: list[int], lo: float,
                  hi: float) -> tuple[float, float] | None:
    """The pair values at the two ``ranks`` if both lie in [lo, hi], else None.

    Reads the strict upper triangle ``BLOCK_ROWS`` rows at a time: each
    block's diagonal square through a mask, the rest of its rows whole.
    """
    n = sq.shape[0]
    below = above = 0
    inside = []
    upper = np.triu(np.ones((BLOCK_ROWS, BLOCK_ROWS), dtype=bool), 1)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        square = sq[start:stop, start:stop][upper[: stop - start, : stop - start]]
        for values in (square, sq[start:stop, stop:]):
            keep = values >= lo
            below += values.size - np.count_nonzero(keep)
            under = values <= hi
            above += values.size - np.count_nonzero(under)
            if lo < hi:  # otherwise every value inside equals lo
                keep &= under
                inside.append(values[keep])
    pairs = n * (n - 1) // 2
    if ranks[0] < below or ranks[1] >= pairs - above:
        return None
    if lo == hi:
        return lo, lo
    inside = np.concatenate(inside)
    first, second = ranks[0] - below, ranks[1] - below
    inside.partition([first, second])
    return float(inside[first]), float(inside[second])


def _gram(x: np.ndarray, kernel, out=None) -> tuple[np.ndarray, GaussianKernel | LinearKernel]:
    """The Gram matrix of sample rows, in ``out`` when given (an n x n float64
    array), and its kernel: the one builder of every fit's Gram.

    ``kernel`` is a ``GaussianKernel``, a ``LinearKernel`` or None, a
    Gaussian kernel at the median heuristic of the same distances, so one
    distance matrix serves both and becomes the Gram matrix in place;
    anything else raises ``ValueError`` before a matrix is built. ``x`` is
    not checked here: it must be a finite 2-D float array, as its callers
    have made sure.

    Either Gram is exactly symmetric, so none is scanned for symmetry. A
    Gaussian one needs no scan at all: ``sq_distances`` rejects its one
    possible NaN, and every other entry lies in [0, 1]. A linear one is not
    checked here: huge finite rows can overflow ``x x'`` or its centering,
    so each fit checks the linear matrix it hands to its solver, once.
    """
    if isinstance(kernel, LinearKernel):
        x = np.ascontiguousarray(x)  # x x' of a contiguous x is a symmetric rank-k update
        return np.matmul(x, x.T, out=out), kernel
    if not (kernel is None or isinstance(kernel, GaussianKernel)):
        raise ValueError(f"kernel must be a GaussianKernel, a LinearKernel or None, got {kernel!r}")
    sq = sq_distances(x, out=out)
    if kernel is None:
        kernel = GaussianKernel(_median_distance(sq))
    return kernel.of_sq_distances(sq), kernel


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
    rounding.
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
    train_norms: np.ndarray  # (N,) sq_norms of x_train, for kpca_transform's kernel rows
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
    overwrites and does not keep, and centered in place; a linear one is
    then checked for finiteness once. Raises ``DegenerateKernelError``
    when no eigenvalue clears the floor.
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
    # the fit's one n x n matrix: the Gram matrix, centered in place
    k, kernel = _gram(x, kernel, out=out)
    k, col_means, grand_mean = center_kernel(k)
    if isinstance(kernel, LinearKernel):  # checked centered: huge finite entries can center to inf
        finite_array(k, "kernel matrix", 2)
    values, vectors, keep = _leading_components(k, n_components, theta)
    del k  # freed before the coefficients are formed (unless it is the caller's ``out``)

    lam = values[:keep].copy()
    root = np.sqrt(lam)[None, :]
    x_train = x.copy()
    return KpcaModel(
        x_train=x_train,
        train_norms=sq_norms(x_train),
        kernel=kernel,
        eigenvalues=lam,
        # column-major: kpca_transform's product, and its last bits, follow this layout
        alphas=np.divide(vectors[:, :keep], root, order="F"),
        train_scores=vectors[:, :keep] * root,
        col_means=col_means,
        grand_mean=grand_mean,
        n_components=keep,
    )


def _usable_count(values: np.ndarray) -> tuple[int, float]:
    """How many of the (descending) eigenvalues clear the floor, and the floor."""
    lam_max = float(values[0])
    if lam_max <= 0.0:
        raise DegenerateKernelError("degenerate kernel: centered Gram has no positive eigenvalue")
    floor = EIGENVALUE_FLOOR_RATIO * lam_max
    return int(np.sum(values > floor)), floor


def _leading_components(k_c: np.ndarray, n_components: int | None,
                        theta: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Leading eigenpairs of the centered Gram matrix and the count to keep.

    A fixed ``n_components`` asks ``_eigenpairs`` for that many pairs. The
    ``theta`` rule asks for ``FIRST_REQUEST`` pairs and doubles the request
    until the cumulative share of ``trace(k_c)`` passes theta. The trace is
    the whole spectrum's sum; for a positive semi-definite kernel it differs
    from the sum of the usable eigenvalues by less than ``n`` times the
    floor, so ``tol`` below bounds the change to any share. When a share
    lies within ``tol`` of theta, or the floor comes before theta, the full
    spectrum is computed and the usable sum decides, as it always did.
    ``k_c`` is not checked here: ``kpca_fit`` hands over a centered Gram,
    symmetric by construction up to centering's rounding, and finite.
    """
    if n_components is not None:
        values, vectors = _eigenpairs(k_c, n_components)
        usable, floor = _usable_count(values)
        if n_components > usable:
            raise ValueError(f"requested {n_components} components but only {usable} "
                             f"eigenvalues clear the floor {floor:.3e}")
        return values, vectors, n_components

    n = k_c.shape[0]
    tol = 1e-9 + n * EIGENVALUE_FLOOR_RATIO
    target = theta - 1e-12
    trace = float(np.trace(k_c))
    count = min(FIRST_REQUEST, n)
    while True:
        values, vectors = _eigenpairs(k_c, count)
        usable, _ = _usable_count(values)
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
