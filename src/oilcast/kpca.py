"""Kernel principal component analysis with a Gaussian kernel.

The kernel Gram matrix is double-centered (so the eigenproblem really
operates on centered feature-space data), its leading eigenpairs are
computed, and the top components kept either as a fixed count or by
retained variance fraction. A fit computes the training distances once and
derives both the median-heuristic width and the Gram matrix from them, and
keeps the training rows' scores. Out-of-sample points are projected by
centering their kernel row against the stored training statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError, sq_distances, sym_eig

# Components with eigenvalue at or below EIGENVALUE_FLOOR_RATIO * lambda_max
# are treated as numerical rank deficiency and never retained.
EIGENVALUE_FLOOR_RATIO = 1e-10

DEFAULT_THETA = 0.95

# The variance-fraction rule first asks for this many leading eigenpairs and
# doubles the request until the fraction is reached.
FIRST_REQUEST = 4


class DegenerateKernelError(NumericalError):
    """The centered kernel has no usable spectrum (e.g. duplicated samples)."""


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, z) = exp(-||x - z||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"Gaussian kernel width must be positive, got {self.sigma}")

    def __call__(self, x: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """Kernel values between the rows of x and of z (x itself when z is None)."""
        return self.of_sq_distances(sq_distances(x, z))

    def of_sq_distances(self, sq: np.ndarray) -> np.ndarray:
        """The kernel of squared distances, computed in place over ``sq``."""
        sq /= -2.0 * self.sigma**2
        return np.exp(sq, out=sq)


@dataclass(frozen=True)
class LinearKernel:
    """k(x, z) = x . z; used to cross-check against classical PCA."""

    def __call__(self, x: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        # x x' of a contiguous x is a symmetric rank-k update: exactly symmetric
        x = np.ascontiguousarray(x)
        return x @ (x if z is None else z).T


def _median_distance(sq: np.ndarray) -> float:
    """Median pairwise distance from a squared-distance matrix of one sample set.

    Off the (exactly 0) diagonal each of the P = n(n-1)/2 pairs appears
    twice, and no entry is negative, so the two middle pairs sit at ranks
    n + P - 1 and n + P of the whole flattened matrix; one partition finds
    them without gathering the upper triangle.
    """
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least 2 samples")
    mid = n + n * (n - 1) // 2
    ranked = np.partition(sq, mid - 1, axis=None)
    med = float((np.sqrt(ranked[mid - 1]) + np.sqrt(ranked[mid:].min())) / 2.0)
    if med <= 0.0:
        raise DegenerateKernelError("median pairwise distance is 0 (duplicated samples)")
    return med


def gaussian_gram(x, sigma: float | None = None) -> tuple[np.ndarray, GaussianKernel]:
    """Gram matrix of the sample rows under a Gaussian kernel, and that kernel.

    ``sigma`` None takes the median heuristic of the same distances, so one
    distance matrix serves both and becomes the Gram matrix in place.
    """
    sq = sq_distances(_as_samples(x, "gaussian_gram input"))
    kernel = GaussianKernel(_median_distance(sq) if sigma is None else sigma)
    return kernel.of_sq_distances(sq), kernel


def _as_samples(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D (samples as rows), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")
    return x


def center_kernel(k) -> tuple[np.ndarray, np.ndarray, float]:
    """Double-center a Gram matrix.

    Returns ``(k_centered, column_means, grand_mean)``; the means are the
    statistics needed to center out-of-sample kernel rows consistently.
    Symmetry is not checked here: centering changes ``k[i, j] - k[j, i]``
    by rounding only, and ``sym_eig`` checks the centered matrix.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {k.shape}")
    col_means = k.mean(axis=0)
    grand_mean = float(k.mean())
    k_c = k - col_means[None, :]
    k_c -= col_means[:, None]
    k_c += grand_mean
    return k_c, col_means, grand_mean


@dataclass
class KpcaModel:
    x_train: np.ndarray
    kernel: GaussianKernel | LinearKernel
    eigenvalues: np.ndarray
    alphas: np.ndarray  # (N, n_components), scaled so lambda_j * |alpha_j|^2 = 1
    train_scores: np.ndarray  # (N, n_components) training rows' projection, v_j * sqrt(lambda_j)
    col_means: np.ndarray
    grand_mean: float
    n_components: int


def kpca_fit(x, kernel=None, n_components: int | None = None, theta: float | None = None) -> KpcaModel:
    """Fit KPCA on sample rows.

    Component count comes from ``n_components`` (fixed) or ``theta``
    (smallest count reaching that fraction of the usable eigenvalue sum);
    giving both is an error, giving neither selects theta = 0.95. With no
    kernel, a Gaussian kernel at the median-heuristic width is used.
    Raises ``DegenerateKernelError`` when no eigenvalue clears the floor.
    """
    x = _as_samples(x, "kpca_fit input")
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"kpca_fit needs at least 2 samples, got {n}")
    if n_components is not None and theta is not None:
        raise ValueError("give either n_components or theta, not both")
    if n_components is not None and not (1 <= n_components <= n):
        raise ValueError(f"n_components must lie in [1, {n}], got {n_components}")
    if theta is not None and not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if n_components is None and theta is None:
        theta = DEFAULT_THETA
    if kernel is None:
        k, kernel = gaussian_gram(x)
    else:
        k = kernel(x)
    k_c, col_means, grand_mean = center_kernel(k)
    del k  # free the Gram matrix before the eigensolve
    values, vectors, keep = _leading_components(k_c, n_components, theta)

    lam = values[:keep].copy()
    root = np.sqrt(lam)[None, :]
    return KpcaModel(
        x_train=x.copy(),
        kernel=kernel,
        eigenvalues=lam,
        alphas=vectors[:, :keep] / root,
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

    A fixed ``n_components`` asks ``sym_eig`` for that many pairs. The
    ``theta`` rule asks for ``FIRST_REQUEST`` pairs and doubles the request
    until the cumulative share of ``trace(k_c)`` passes theta. The trace is
    the whole spectrum's sum; for a positive semi-definite kernel it differs
    from the sum of the usable eigenvalues by less than ``n`` times the
    floor, so ``tol`` below bounds the change to any share. When a share
    lies within ``tol`` of theta, or the floor comes before theta, the full
    spectrum is computed and the usable sum decides, as it always did.
    """
    if n_components is not None:
        values, vectors = sym_eig(k_c, n_components)
        usable, floor = _usable_count(values)
        if n_components > usable:
            raise ValueError(
                f"requested {n_components} components but only {usable} eigenvalues "
                f"clear the floor {floor:.3e}"
            )
        return values, vectors, n_components

    n = k_c.shape[0]
    tol = 1e-9 + n * EIGENVALUE_FLOOR_RATIO
    target = theta - 1e-12
    trace = float(np.trace(k_c))
    count = min(FIRST_REQUEST, n)
    while True:
        values, vectors = sym_eig(k_c, count)
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


def kpca_transform(model: KpcaModel, x) -> np.ndarray:
    """Project sample rows onto the retained components.

    Returns an (m, n_components) matrix for m rows. The raw kernel rows
    are centered with the stored training statistics before applying the
    coefficient columns.
    """
    rows = _as_samples(x, "kpca_transform input")
    if rows.shape[1] != model.x_train.shape[1]:
        raise ValueError(
            f"sample dimension {rows.shape[1]} does not match training dimension "
            f"{model.x_train.shape[1]}"
        )
    k_rows = model.kernel(rows, model.x_train)
    k_c = (
        k_rows
        - k_rows.mean(axis=1, keepdims=True)
        - model.col_means[None, :]
        + model.grand_mean
    )
    return k_c @ model.alphas
