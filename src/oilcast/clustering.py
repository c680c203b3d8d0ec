"""K-means over whole series using correlation distance.

Series are rows of an (n_series, n_obs) matrix; two series are close
when they move together, regardless of level or amplitude. Distance is
``1 - pearson_r``, so it lives in [0, 2]: 0 for perfectly correlated
series, 2 for perfectly anti-correlated ones.

Every fit works on one standardized C-contiguous (n_obs, n_series) matrix
``S``: each series centered and scaled to unit norm, as a column, with its
centered norm ``sigma`` kept. One assignment pass is two products: ``C' S``
gives the correlations, with ``C`` the k unit centroids as (n_obs, k)
columns, and ``S W`` the next centroids, with ``W[m, j] = sigma_m / n_j``
for each member m of cluster j. That column is the centered mean of the
cluster's raw member series, so the fit is the member-mean k-means, with
labels identical to it. Each fit has its own two products: a BLAS product's
last bits depend on the operands' shapes, so stacking the ks of an elbow
into shared products would make a fit depend on which others ran beside it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericalError, finite_array, one_blas_thread

MAX_ITER = 300

# Relative slack for the per-iteration objective check. The mean update
# is not the exact minimizer of summed correlation distance, but on
# comparable-scale series it descends; a genuine increase is surfaced
# loudly instead of being averaged away.
_WCSS_SLACK = 1e-9

# A centered series or centroid with a smaller norm is taken as constant.
_CONSTANT_NORM = 1e-12


class DegenerateSeriesError(NumericalError):
    """A series (or centroid) is constant, so correlation is undefined."""


@dataclass
class ClusterModel:
    """Fitted k-means state under correlation distance.

    Labels are 0-based. ``wcss_history`` records the objective after
    every assignment pass, so monotone descent is checkable after the
    fact; ``wcss`` is its final entry and ``n_iter`` its length. A fit
    is the same to the last bit whether ``kmeans_fit`` made it alone or
    ``elbow_select`` made it among other ks.
    """

    k: int
    labels: np.ndarray
    wcss: float
    wcss_history: list[float] = field(repr=False)
    n_iter: int = 0


def _standardized(series) -> tuple[np.ndarray, np.ndarray]:
    """Checked series rows as unit-norm centered columns, with their centered norms.

    The columns form a new C-contiguous (n_obs, n_series) matrix; a
    constant series is rejected by its row index.
    """
    series = finite_array(series, "series", 2)
    if series.shape[1] < 2:
        raise ValueError("series need at least 2 observations for correlation distance")
    cols = series.T
    std = np.subtract(cols, cols.mean(axis=0), order="C")
    norms = np.linalg.norm(std, axis=0)
    bad = np.flatnonzero(norms < _CONSTANT_NORM)
    if bad.size:
        raise DegenerateSeriesError(f"series {bad[0]} is constant; correlation distance is undefined")
    std /= norms
    return std, norms


def _repair_empty_clusters(dist: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Reassign the globally worst-fit series to each empty cluster.

    ``dist`` holds one row per cluster. Donor series must come from
    clusters with at least two members so a repair never empties another
    cluster; one always exists, as ``_fit`` checks 1 <= k <= n series.
    """
    for j in range(k):
        if np.any(labels == j):
            continue
        fit = dist[labels, np.arange(labels.size)]
        counts = np.bincount(labels, minlength=k)
        fit[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(fit))
        labels = labels.copy()
        labels[donor] = j
    return labels


def _fit(std: np.ndarray, sigma: np.ndarray, k: int, seed: int) -> ClusterModel:
    """``kmeans_fit`` of the series ``_standardized`` returned as ``std`` and ``sigma``."""
    n = std.shape[1]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}] for {n} series, got {k}")
    means = std[:, np.random.default_rng(seed).choice(n, size=k, replace=False)]
    labels = None
    history: list[float] = []
    for n_iter in range(1, MAX_ITER + 1):
        norms = np.linalg.norm(means, axis=0)
        bad = np.flatnonzero(norms < _CONSTANT_NORM)
        if bad.size:
            raise DegenerateSeriesError(
                f"centroid of cluster {bad[0]} is constant; correlation distance is undefined")
        dist = (means / norms).T @ std
        np.clip(dist, -1.0, 1.0, out=dist)
        np.subtract(1.0, dist, out=dist)
        assigned = np.argmin(dist, axis=0)
        if np.bincount(assigned, minlength=k).min() == 0:
            assigned = _repair_empty_clusters(dist, assigned, k)
        wcss = float(dist[assigned, np.arange(n)].sum())
        if history and wcss > history[-1] + _WCSS_SLACK * max(1.0, history[-1]):
            raise NumericalError(
                f"within-cluster distance increased from {history[-1]:.6e} to {wcss:.6e} "
                f"at iteration {n_iter}; series scales are too disparate for the mean update"
            )
        history.append(wcss)
        if labels is not None and np.array_equal(assigned, labels):
            break
        labels = assigned
        counts = np.bincount(labels, minlength=k)
        weights = np.zeros((n, k))
        weights[np.arange(n), labels] = sigma / counts[labels]
        means = std @ weights
    return ClusterModel(k=k, labels=labels, wcss=history[-1], wcss_history=history, n_iter=n_iter)


@one_blas_thread()
def kmeans_fit(series, k: int, seed: int = 0) -> ClusterModel:
    """Cluster series rows into ``k`` groups under correlation distance.

    Centroids start as a seeded uniform draw of ``k`` distinct series and
    are recomputed as plain member means, formed as one product with the
    standardized series (see the module docstring). Ties in assignment go
    to the lowest cluster index; an emptied cluster is re-seeded from the
    series that fits its own cluster worst. The fit stops when an assignment pass
    repeats the previous labels (the centroids, being member means, then
    repeat too) or after ``MAX_ITER`` passes. Deterministic for a given seed.
    """
    return _fit(*_standardized(series), k, seed)


@one_blas_thread()
def elbow_select(series, k_range, seed: int = 0) -> tuple[int, dict[int, ClusterModel]]:
    """Pick k at the sharpest bend of the WCSS curve.

    Makes the fit ``kmeans_fit`` makes for every k in ``k_range``
    (ascending, at least 3 distinct values), checking and standardizing the
    series once for all of them; a failing fit raises its error, so the
    lowest failing k's is the one raised. Returns the interior k maximizing
    the second difference ``wcss(prev) - 2 wcss(k) + wcss(next)``, together
    with every fit by k. When the second differences are all equal (up to
    rounding) the smallest interior k is returned, with a warning if none of
    them is positive: a straight curve has no elbow.
    """
    ks = sorted(set(int(k) for k in np.atleast_1d(k_range)))
    if len(ks) < 3:
        raise ValueError(f"k_range needs at least 3 distinct values, got {ks}")
    std, sigma = _standardized(series)
    fits = {k: _fit(std, sigma, k, seed) for k in ks}
    return _pick_elbow(ks, [fits[k].wcss for k in ks]), fits


def _pick_elbow(ks: list[int], wcss_values: list[float]) -> int:
    """Interior k with the largest second difference; first on ties."""
    wcss = np.asarray(wcss_values, dtype=float)
    second_diff = wcss[:-2] - 2.0 * wcss[1:-1] + wcss[2:]
    rounding = 1e-12 * max(1.0, float(np.max(np.abs(wcss))))
    if np.ptp(second_diff) <= rounding:
        if np.max(second_diff) <= rounding:  # no interior k bends
            warnings.warn("WCSS curve has no elbow; returning the smallest interior k",
                          stacklevel=3)
        return ks[1]
    return ks[1 + int(np.argmax(second_diff))]
