"""K-means over whole series using correlation distance.

Series are rows of an (n_series, n_obs) matrix; two series are close
when they move together, regardless of level or amplitude. Distance is
``1 - pearson_r``, so it lives in [0, 2]: 0 for perfectly correlated
series, 2 for perfectly anti-correlated ones.
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


class DegenerateSeriesError(NumericalError):
    """A series (or centroid) is constant, so correlation is undefined."""


def _standardized_rows(x: np.ndarray, what: str) -> np.ndarray:
    """Center each row and scale to unit norm; reject constant rows."""
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise DegenerateSeriesError(f"{what} {bad[0]} is constant; correlation distance is undefined")
    return centered / norms[:, None]


@dataclass
class ClusterModel:
    """Fitted k-means state under correlation distance.

    Labels are 0-based. ``wcss_history`` records the objective after
    every assignment pass, so monotone descent is checkable after the
    fact; ``wcss`` is its final entry.
    """

    k: int
    labels: np.ndarray
    wcss: float
    wcss_history: list[float] = field(repr=False)
    n_iter: int = 0


def _distance_matrix(series_std: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    cent_std = _standardized_rows(centroids, "centroid of cluster")
    corr = np.clip(series_std @ cent_std.T, -1.0, 1.0)
    return 1.0 - corr


def _repair_empty_clusters(dist: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Reassign the globally worst-fit series to each empty cluster.

    Donor series must come from clusters with at least two members so a
    repair never empties another cluster.
    """
    for j in range(k):
        if np.any(labels == j):
            continue
        fit = dist[np.arange(labels.size), labels].copy()
        counts = np.bincount(labels, minlength=k)
        fit[counts[labels] < 2] = -np.inf
        donor = int(np.argmax(fit))
        if not np.isfinite(fit[donor]):
            raise NumericalError("cannot repair empty cluster: all donor clusters are singletons")
        labels = labels.copy()
        labels[donor] = j
    return labels


def _checked_series(series) -> tuple[np.ndarray, np.ndarray]:
    """The checked series matrix and its standardized rows."""
    series = finite_array(series, "series", 2)
    if series.shape[1] < 2:
        raise ValueError("series need at least 2 observations for correlation distance")
    return series, _standardized_rows(series, "series")


@one_blas_thread()
def kmeans_fit(series, k: int, seed: int = 0) -> ClusterModel:
    """Cluster series rows into ``k`` groups under correlation distance.

    Centroids start as a seeded uniform draw of ``k`` distinct series and
    are recomputed as plain member means. Ties in assignment go to the
    lowest cluster index; an emptied cluster is re-seeded from the series
    that fits its own cluster worst. The fit stops when an assignment pass
    repeats the previous labels (the centroids, being member means, then
    repeat too) or after ``MAX_ITER`` passes. Deterministic for a given seed.
    """
    return _kmeans(*_checked_series(series), k, seed)


def _kmeans(series: np.ndarray, series_std: np.ndarray, k: int, seed: int) -> ClusterModel:
    """``kmeans_fit`` of series checked by ``_checked_series``, with their standardized rows."""
    n = series.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = series[rng.choice(n, size=k, replace=False)].copy()

    labels = None
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        dist = _distance_matrix(series_std, centroids)
        assigned = _repair_empty_clusters(dist, np.argmin(dist, axis=1), k)
        wcss = float(dist[np.arange(n), assigned].sum())
        if history and wcss > history[-1] + _WCSS_SLACK * max(1.0, history[-1]):
            raise NumericalError(
                f"within-cluster distance increased from {history[-1]:.6e} to {wcss:.6e} "
                f"at iteration {n_iter}; series scales are too disparate for the mean update"
            )
        history.append(wcss)
        if labels is not None and np.array_equal(assigned, labels):
            break
        labels = assigned
        centroids = np.vstack([series[labels == j].mean(axis=0) for j in range(k)])

    return ClusterModel(
        k=k,
        labels=labels,
        wcss=history[-1],
        wcss_history=history,
        n_iter=n_iter,
    )


@one_blas_thread()
def elbow_select(series, k_range, seed: int = 0) -> tuple[int, dict[int, ClusterModel]]:
    """Pick k at the sharpest bend of the WCSS curve.

    Makes the fit ``kmeans_fit`` makes for every k in ``k_range``
    (ascending, at least 3 distinct values), checking and standardizing the
    series once for all of them, and returns the interior k maximizing the
    second difference ``wcss(prev) - 2 wcss(k) + wcss(next)``, together
    with every fit by k. A flat curve has no elbow; the smallest interior k
    is returned with a warning.
    """
    ks = sorted(set(int(k) for k in np.atleast_1d(k_range)))
    if len(ks) < 3:
        raise ValueError(f"k_range needs at least 3 distinct values, got {ks}")
    series, series_std = _checked_series(series)
    fits = {k: _kmeans(series, series_std, k, seed) for k in ks}
    return _pick_elbow(ks, [fits[k].wcss for k in ks]), fits


def _pick_elbow(ks: list[int], wcss_values: list[float]) -> int:
    """Interior k with the largest second difference; first on ties."""
    wcss = np.asarray(wcss_values, dtype=float)
    second_diff = wcss[:-2] - 2.0 * wcss[1:-1] + wcss[2:]
    if np.ptp(second_diff) <= 1e-12 * max(1.0, float(np.max(np.abs(wcss)))):
        warnings.warn("WCSS curve has no elbow; returning the smallest interior k", stacklevel=3)
        return ks[1]
    return ks[1 + int(np.argmax(second_diff))]
