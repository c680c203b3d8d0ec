"""Hybrid forecasting pipeline: Granger filter, cluster, per-cluster KPCA, KELM.

Fitting consumes a training panel only; every learned quantity (normalization
bounds, cluster assignment, kernel components, regressor weights) is a
function of the rows it was given, so deleting test rows upstream cannot
change the model.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import fdtrc

from .baselines import _lag_matrix
from .clustering import ClusterModel, elbow_select, kmeans_fit
from .kpca import (_WIDTH_RULE, GaussianKernel, KpcaModel, kpca_fit, kpca_transform,
                   usable_width)
from .numerics import one_blas_thread
from .panel import FeaturePanel, NormalizationParams, normalize_fit, require_finite
from .regressors import DEFAULT_C, DEFAULT_N_HIDDEN, REGRESSORS, regressor_fit, regressor_predict

DEFAULT_MAX_LAG = 3
DEFAULT_P_THRESHOLD = 0.1
MIN_TRAIN_ROWS = 24

# Training windows of at least this many rows fit the clusters' KPCAs on
# several threads. Below it a Gram matrix is small enough that contention
# for the interpreter lock costs more than a second core returns.
CONCURRENT_MIN_ROWS = 512

# At most this many threads fit KPCAs at once, whatever the CPU count: each
# holds its own n x n Gram matrix, and speed and peak memory have been
# measured at this count only.
MAX_FIT_WORKERS = 2


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the original error is the __cause__."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage {stage!r}: {original}")
        self.stage = stage


@dataclass(frozen=True)
class GrangerResult:
    retained: list[str]
    pvalues: dict[str, float]
    fstats: dict[str, float]
    inconclusive: list[str]


# A candidate whose lags, with the target's own lags and the constant
# projected out, leave a diagonal entry of their R at or below this fraction of
# the norm of the raw lags is rank-deficient for the batched screen; lstsq's
# minimum-norm fit decides it instead. The same rule applies to the
# restricted design against its own norm.
_RANK_RTOL = 1e-8

# The screen projects and factors this many candidate-lag values at a time
# (512 KB of doubles), so its scratch stays near 2 MB for any candidate
# count; the paper's 70 candidates over 168 months fit in one block.
_BLOCK_DOUBLES = 1 << 16


def _sse(design: np.ndarray, target: np.ndarray) -> float:
    beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    if not np.all(np.isfinite(beta)):
        return np.nan
    resid = target - design @ beta
    return float(resid @ resid)


def _rank_deficient(r: np.ndarray, norm) -> np.ndarray:
    """Whether each (stacked) R has a diagonal entry at most ``_RANK_RTOL * norm``."""
    diagonal = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return (diagonal <= _RANK_RTOL * np.asarray(norm)[..., None]).any(axis=-1)


@one_blas_thread()
def granger_filter(panel: FeaturePanel, candidates, max_lag: int = DEFAULT_MAX_LAG,
                   p_threshold: float = DEFAULT_P_THRESHOLD) -> GrangerResult:
    """Keep candidates whose lags significantly improve the target regression.

    Each candidate is tested with an F statistic comparing the restricted
    least-squares fit (target on its own lags 1..max_lag plus a constant)
    against the unrestricted fit that adds the candidate's lags. Candidates
    whose F statistic cannot be formed (both fits exact, or a non-finite
    solve) are reported as inconclusive and excluded with a warning. A
    non-finite target or candidate value is rejected by column and date.

    The restricted design is factored once by QR. The candidates' lags are
    projected off it in one product and factored by one batched QR per
    block of ``_BLOCK_DOUBLES`` values, which gives each candidate the
    orthonormal basis Q_c of its projected lags. By Frisch-Waugh-Lovell the
    unrestricted SSE is then |e_r - Q_c Q_c' e_r|^2, with e_r the restricted
    residual; it equals SSE_r - |Q_c' e_r|^2, but that difference cancels
    when a candidate explains nearly all of e_r. A rank-deficient candidate
    (see ``_RANK_RTOL``), or every candidate when the restricted design is
    rank-deficient, is fitted by lstsq on the full design instead.
    """
    max_lag = int(max_lag)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if not (0.0 < p_threshold < 1.0):
        raise ValueError(f"p_threshold must lie in (0, 1), got {p_threshold}")
    target = panel.target_name
    if target is None:
        raise ValueError("panel has no target column")
    candidates = list(candidates)
    columns = panel.columns
    unknown = [c for c in candidates if c not in columns]
    if unknown:
        raise ValueError(f"unknown candidate columns: {unknown}")
    if target in candidates:
        raise ValueError("target column cannot be its own candidate")

    n = panel.n_rows
    t = n - max_lag
    dof2 = t - 2 * max_lag - 1
    if dof2 < 1:
        raise ValueError(
            f"{n} rows leave {dof2} denominator degrees of freedom "
            f"for max_lag={max_lag}; need more data"
        )
    names = [target, *candidates]
    values = panel.matrix(names)
    require_finite(values, names, panel.dates)
    y_reg = values[max_lag:, 0]
    own = _lag_matrix(values[:, 0], max_lag)
    const = np.ones(t)
    restricted = np.column_stack([own, const])

    q, r = np.linalg.qr(restricted)
    sse_r, sse_u = np.empty(len(candidates)), np.empty(len(candidates))
    fallback = np.ones(len(candidates), dtype=bool)
    if not _rank_deficient(r, np.linalg.norm(restricted)):
        e_r = y_reg - q @ (q.T @ y_reg)
        sse_r[:] = e_r @ e_r
        step = max(1, _BLOCK_DOUBLES // (t * max_lag))
        for lo in range(0, len(candidates), step):
            # lags[:, c, j] is lag j + 1 of the block's candidate c
            lags = _lag_matrix(values[:, 1 + lo : 1 + lo + step], max_lag)
            flat = lags.reshape(t, -1)
            raw_norms = np.linalg.norm(np.linalg.norm(flat, axis=0).reshape(-1, max_lag), axis=1)
            flat -= q @ (q.T @ flat)  # the projected lags, in place
            q_c, r_c = np.linalg.qr(lags.transpose(1, 0, 2))
            fallback[lo : lo + step] = _rank_deficient(r_c, raw_norms)
            resid = e_r - (q_c @ (e_r @ q_c)[:, :, None])[:, :, 0]
            sse_u[lo : lo + step] = np.square(resid).sum(axis=1)
    if fallback.any():  # both fits by lstsq, as the loop over candidates made them
        sse_r[fallback] = _sse(restricted, y_reg)
        for c in np.flatnonzero(fallback):
            x_lags = _lag_matrix(values[:, 1 + c], max_lag)
            sse_u[c] = _sse(np.column_stack([own, x_lags, const]), y_reg)
    zero_scale = 1e-12 * (float(y_reg @ y_reg) + 1.0)

    tested, fstats, inconclusive = [], {}, []
    for name, r_sse, u_sse in zip(candidates, sse_r.tolist(), sse_u.tolist()):
        if not math.isfinite(r_sse) or not math.isfinite(u_sse):
            inconclusive.append(name)
            warnings.warn(f"granger test inconclusive for {name!r}: regression did not solve")
            continue
        if u_sse <= zero_scale:
            if r_sse <= zero_scale:
                inconclusive.append(name)
                warnings.warn(
                    f"granger test inconclusive for {name!r}: both fits are exact"
                )
                continue
            f_stat = np.inf
        else:
            f_stat = max(0.0, ((r_sse - u_sse) / max_lag) / (u_sse / dof2))
        tested.append(name)
        fstats[name] = float(f_stat)
    # the F upper tail of every tested candidate in one call
    tails = fdtrc(max_lag, dof2, np.array([fstats[name] for name in tested])).tolist()
    pvalues = dict(zip(tested, tails))
    retained = [name for name, p_value in zip(tested, tails) if p_value <= p_threshold]
    return GrangerResult(retained=retained, pvalues=pvalues, fstats=fstats,
                         inconclusive=inconclusive)


def at_least(low: int):
    """The rule that a value is at least ``low``: (test, stated rule)."""
    return (lambda value: value >= low), f">= {low}"


# PipelineConfig field -> (test of a set value, the rule it states); the CLI
# applies the same rules to its model keys before reading any data
CONFIG_RULES = {
    **dict.fromkeys(("k", "n_components", "n_hidden", "lag"), at_least(1)),
    "seed": at_least(0),
    "theta": ((lambda value: 0.0 < value <= 1.0), "in (0, 1]"),
    "sigma": (usable_width, _WIDTH_RULE),
    "c": ((lambda value: np.isfinite(value) and value > 0), "positive and finite"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters for the hybrid pipeline.

    Exactly one of n_components / theta drives per-cluster component
    selection (both unset falls back to the kernel module's default
    variance threshold). sigma None means the median heuristic, applied
    per cluster and again for the final kernel regressor.
    """

    k: int | None = None
    k_range: tuple[int, int] = (1, 8)
    n_components: int | None = None
    theta: float | None = None
    sigma: float | None = None
    c: float = DEFAULT_C
    regressor: str = "kelm"
    n_hidden: int = DEFAULT_N_HIDDEN
    lag: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_components is not None and self.theta is not None:
            raise ValueError("set n_components or theta, not both")
        for name, (valid, rule) in CONFIG_RULES.items():
            value = getattr(self, name)
            if value is not None and not valid(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if self.regressor not in REGRESSORS:
            raise ValueError(f"regressor must be one of {REGRESSORS}, got {self.regressor!r}")
        lo, hi = self.k_range
        if lo < 1 or hi < lo:
            raise ValueError(f"k_range bounds must satisfy 1 <= lo <= hi, got {self.k_range}")
        if self.k is None and hi - lo < 2:
            raise ValueError(f"k_range {self.k_range} holds {hi - lo + 1} k values; "
                             f"the elbow needs 3 candidates; widen it or pin k")


@dataclass
class PipelineModel:
    """A fitted pipeline. ``norm`` and ``cluster.labels`` follow the order of
    ``indicator_names``; cluster j's KPCA reads the columns labelled j."""

    norm: NormalizationParams
    target_norm: NormalizationParams
    indicator_names: list[str]
    cluster: ClusterModel
    kpca_models: list[KpcaModel]
    regressor: object
    elbow_curve: dict[int, float] = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as err:
        raise PipelineStageError(name, err) from err


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_in_threads(task, count: int, scratch: list) -> list:
    """``[task(0, ...), ..., task(count - 1, ...)]`` on one thread per ``scratch`` item.

    The calling thread is one of them, and each thread passes its own item
    as ``task``'s second argument. Each takes the next index no thread has
    taken until none is left. When tasks raise, the error of the lowest
    failing index is raised, as a loop in index order would raise it;
    higher indices not yet started are skipped. Every helper has stopped
    before this returns or raises.
    """
    results: list = [None] * count
    failed: dict[int, Exception] = {}
    indices = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()

    def work(item):
        while not stop.is_set():
            with lock:
                j = next(indices, None)
                if j is None or (failed and j > min(failed)):
                    return
            try:
                results[j] = task(j, item)
            except Exception as err:
                with lock:
                    failed[j] = err

    helpers = []
    try:
        for item in scratch[1:]:
            helper = threading.Thread(target=work, args=(item,), name="oilcast-fit")
            try:
                helper.start()
            except RuntimeError:  # no thread to be had: fewer workers, same result
                break
            helpers.append(helper)
        work(scratch[0])
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return results


@one_blas_thread()
def pipeline_fit(panel: FeaturePanel, config: PipelineConfig) -> PipelineModel:
    """Fit normalization, clustering, per-cluster KPCA and the final regressor.

    The panel must hold training rows only. Indicator series are clustered
    over the training window, each cluster's columns feed one KPCA, and the
    concatenated component scores at month t regress the normalized target
    at month t + lag. From ``CONCURRENT_MIN_ROWS`` training rows on, the
    clusters' KPCAs are fitted side by side, on up to one thread per CPU
    the process may use and at most ``MAX_FIT_WORKERS``; each fit's
    arithmetic is the same on any thread, so the model does not depend on
    the thread count.
    """
    target = panel.target_name
    if target is None:
        raise ValueError("panel has no target column")
    indicators = panel.indicator_names("H")
    if not indicators:
        raise ValueError("panel has no indicator columns")
    if panel.n_rows < MIN_TRAIN_ROWS:
        raise ValueError(f"need at least {MIN_TRAIN_ROWS} training rows, got {panel.n_rows}")
    if panel.n_rows - config.lag < 2:
        raise ValueError(f"lag {config.lag} leaves fewer than 2 supervised pairs in "
                         f"{panel.n_rows} training rows")
    if config.k is None:
        lo, hi = config.k_range[0], min(config.k_range[1], len(indicators))
        if hi - lo < 2:  # k cannot exceed the series count
            raise ValueError(f"{len(indicators)} indicator series leave k in [{lo}, {hi}]; "
                             f"the elbow needs 3 candidates; pin k")

    values, target_values = panel.matrix(indicators), panel.matrix([target])
    norm = _stage("normalize", normalize_fit, values, indicators, panel.dates)
    target_norm = _stage("normalize", normalize_fit, target_values, [target], panel.dates)
    normed = norm.apply(values)
    del values  # the normalized copy serves the rest of the fit
    series = normed.T  # one row per indicator series

    elbow_curve: dict[int, float] = {}
    if config.k is None:
        k, fits = _stage("cluster", elbow_select, series, range(lo, hi + 1), seed=config.seed)
        cluster = fits[k]
        elbow_curve = {j: fit.wcss for j, fit in fits.items()}
    else:
        cluster = _stage("cluster", kmeans_fit, series, config.k, seed=config.seed)

    def fit_cluster(j: int, gram: np.ndarray) -> KpcaModel:
        kernel = GaussianKernel(config.sigma) if config.sigma is not None else None
        return _stage(f"kpca[{j}]", kpca_fit, normed[:, cluster.labels == j], kernel=kernel,
                      n_components=config.n_components, theta=config.theta, out=gram)

    workers = 1
    if panel.n_rows >= CONCURRENT_MIN_ROWS:
        workers = min(cluster.k, _cpu_count(), MAX_FIT_WORKERS)
    # one Gram matrix per worker, allocated by this thread: a helper's own
    # allocation would come from its own malloc arena and stay resident there
    grams = [np.empty((panel.n_rows, panel.n_rows)) for _ in range(workers)]
    kpca_models = _map_in_threads(fit_cluster, cluster.k, grams)
    del grams  # freed before the regressor builds its own

    # each fit already holds its training rows' projection
    features = _stage("features", np.hstack, [m.train_scores for m in kpca_models])
    x = features[: panel.n_rows - config.lag]
    y = target_norm.apply(target_values)[config.lag :, 0]

    regressor = _stage("regressor", regressor_fit, config.regressor, x, y, c=config.c,
                       sigma=config.sigma, n_hidden=config.n_hidden, seed=config.seed)

    return PipelineModel(
        norm=norm, target_norm=target_norm, indicator_names=indicators,
        cluster=cluster, kpca_models=kpca_models, regressor=regressor, elbow_curve=elbow_curve,
    )


@one_blas_thread()
def pipeline_predict(model: PipelineModel, panel: FeaturePanel) -> np.ndarray:
    """Forecast the target, one value per input row, in original units.

    Rejects a missing indicator column, or a non-finite value in one, by
    name (and date) before any stage runs.
    """
    names = model.indicator_names
    values = panel.matrix(names)
    require_finite(values, names, panel.dates, where="forecast origin ")
    normed = model.norm.apply(values)
    labels = model.cluster.labels
    features = np.hstack([kpca_transform(kmodel, normed[:, labels == j])
                          for j, kmodel in enumerate(model.kpca_models)])
    return model.target_norm.invert(regressor_predict(model.regressor, features))
