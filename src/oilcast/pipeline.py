"""Hybrid forecasting pipeline: Granger filter, cluster, per-cluster KPCA, KELM.

Fitting consumes a training panel only; every learned quantity (normalization
bounds, cluster assignment, kernel components, regressor weights) is a
function of the rows it was given, so deleting test rows upstream cannot
change the model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import _lag_matrix
from .clustering import ClusterModel, _cluster
from .kpca import (RULES as KPCA_RULES, GaussianKernel, KpcaModel, _fit as _kpca_fit,
                   check_selection, gram_size, kpca_transform)
from .numerics import (MAX_FIT_WORKERS, _cpu_count, _map_in_threads, at_least, check_rules,
                       one_blas_thread)
from .panel import FeaturePanel, NormalizationParams, normalize_fit, require_finite
from .regressors import (RULES as REGRESSOR_RULES, DEFAULT_C, DEFAULT_N_HIDDEN, regressor_fit,
                         regressor_predict)

DEFAULT_MAX_LAG = 3
DEFAULT_P_THRESHOLD = 0.1
MIN_TRAIN_ROWS = 24

RULES = {  # parameter -> (test of a valid value, stated rule)
    **dict.fromkeys(("k", "k_lo", "k_hi", "lag", "max_lag"), at_least(1)),
    "seed": at_least(0),
    "p_threshold": ((lambda value: 0.0 < value < 1.0), "in (0, 1)"),
}

# Training windows of at least this many rows fit the clusters' KPCAs on
# several threads. Below it a Gram matrix is small enough that contention
# for the interpreter lock costs more than a second core returns.
CONCURRENT_MIN_ROWS = 512


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
# the norm of the raw lags is rank-deficient, and so is a restricted design
# against its own norm. Such a block keeps the directions of its range whose
# singular value exceeds this fraction of the same norm, and drops the rest.
_RANK_RTOL = 1e-8

# The screen projects and factors this many candidate-lag values at a time
# (512 KB of doubles), so its scratch stays near 2 MB for any candidate
# count; the paper's 70 candidates over 168 months fit in one block.
_BLOCK_DOUBLES = 1 << 16


def _basis(blocks: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the numerical ranges of a (b, t, m) stack of blocks.

    Q of the batched QR; a block whose R has a diagonal entry at or below
    ``_RANK_RTOL`` times its norm gets Q U instead, U the left singular
    vectors of R with each one whose singular value is at or below that
    bound zeroed (Golub & Van Loan, Matrix Computations, 4th ed., 5.4-5.5).
    """
    q, r = np.linalg.qr(blocks)
    bound = _RANK_RTOL * norms
    deficient = (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) <= bound[:, None]).any(axis=-1)
    if deficient.any():
        u, s, _ = np.linalg.svd(r[deficient])
        u *= (s > bound[deficient, None])[:, None, :]
        q[deficient] = q[deficient] @ u
    return q


def _f_upper_tail(f: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """P(F > f) for each f, F an F(d1, d2) variable with integer degrees of freedom.

    The finite sums of Abramowitz & Stegun 26.6.4 (d1 even), 26.6.5 (d2
    even) and 26.6.8 (both odd, the arctan form), in x = cos^2 theta and
    y = sin^2 theta, where tan^2 theta = d1 f / d2. The tail is exactly 1 at
    f = 0 and exactly 0 at f = inf.
    """
    tan2 = d1 * f / d2
    x = 1.0 / (1.0 + tan2)
    small = np.minimum(tan2, 1.0)  # y as 1 - x would cancel where x is near 1
    y = np.where(tan2 < 1.0, small / (1.0 + small), 1.0 - x)
    if d1 % 2 == 0:
        tail = x ** (d2 / 2) * _tail_series(y, d2 - 2, 0, d1 // 2)
    elif d2 % 2 == 0:
        tail = 1.0 - y ** (d1 / 2) * _tail_series(x, d1 - 2, 0, d2 // 2)
    else:
        cos, sin = np.sqrt(x), np.sqrt(y)
        # 1 - A(t | d2) + beta(d1, d2), with the common factor 2 / pi taken out;
        # gamma = (pi / 2) (2 / sqrt(pi)) Gamma((d2 + 1) / 2) / Gamma(d2 / 2)
        half = np.arange(1, (d2 - 1) // 2 + 1)
        gamma = float(np.prod(2.0 * half / (2.0 * half - 1.0)))
        tail = (np.arctan2(cos, sin) - sin * cos * _tail_series(x, 0, 1, (d2 - 1) // 2)
                + gamma * sin * cos ** d2 * _tail_series(y, d2 - 1, 1, (d1 - 1) // 2))
        tail *= 2.0 / np.pi
    return np.clip(tail, 0.0, 1.0)


def _tail_series(z: np.ndarray, top: int, bottom: int, terms: int):
    """The sum over j < terms of z^j prod_{i <= j} (top + 2i) / (bottom + 2i), for each z."""
    if terms == 0:
        return 0.0
    i = np.arange(1, terms)
    return 1.0 + np.cumprod(z[:, None] * ((top + 2 * i) / (bottom + 2 * i)), axis=1).sum(axis=1)


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
    when a candidate explains nearly all of e_r. The restricted design and
    every candidate follow one rank rule (``_basis``): a direction whose
    singular value is at or below ``_RANK_RTOL`` times the block's norm is
    dropped, even where lstsq's cutoff (about eps t sigma_max) would keep
    it, and a candidate with no direction left scores F = 0 exactly.

    Each column is first divided by the power of two of its largest
    magnitude (``np.frexp``): the division is exact, the screen does not
    depend on the panel's units, and no finite panel overflows or underflows
    a sum of squares. Householder QR is exact under a power-of-two scaling
    of its columns, so where the undivided sums did not overflow, F and p
    are the bits the undivided columns give, unless the restricted design's
    rank decision differs: it is judged on the divided lags beside a
    constant 1, not on lags in the target's units. The exact-fit threshold
    is 1e-12 (|y|^2 + 1) in the target's units, y the regression target;
    below |y| = 1/2 the 1 is counted in units of that power of two, so a
    small target is not taken for an exact fit.
    """
    max_lag = int(max_lag)
    check_rules(RULES, max_lag=max_lag, p_threshold=p_threshold)
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
    # each column over the power of two of its largest magnitude (see the docstring)
    exponents = np.frexp(np.maximum(values.max(axis=0), -values.min(axis=0)))[1]
    np.ldexp(values, -exponents, out=values)
    y_reg = values[max_lag:, 0]
    own = _lag_matrix(values[:, 0], max_lag)
    restricted = np.column_stack([own, np.ones(t)])
    q = _basis(restricted[None], np.linalg.norm(restricted)[None])[0]
    e_r = y_reg - q @ (q.T @ y_reg)
    sse_r = float(e_r @ e_r)
    sse_u = np.empty(len(candidates))
    step = max(1, _BLOCK_DOUBLES // (t * max_lag))
    for lo in range(0, len(candidates), step):
        # lags[:, c, j] is lag j + 1 of the block's candidate c
        lags = _lag_matrix(values[:, 1 + lo : 1 + lo + step], max_lag)
        flat = lags.reshape(t, -1)
        raw_norms = np.linalg.norm(np.linalg.norm(flat, axis=0).reshape(-1, max_lag), axis=1)
        flat -= q @ (q.T @ flat)  # the projected lags, in place
        q_c = _basis(lags.transpose(1, 0, 2), raw_norms)
        proj = e_r @ q_c
        resid = e_r - (q_c @ proj[:, :, None])[:, :, 0]
        # Q_c' e_r = 0 leaves the residual e_r: SSE_u is SSE_r, whatever the sum order
        sse_u[lo : lo + step] = np.where((proj == 0.0).all(axis=1), sse_r,
                                         np.square(resid).sum(axis=1))
    # 1e-12 (|y|^2 + 1) in the target's units, or below |y| = 1/2 in units of its power of two
    zero_scale = 1e-12 * (float(y_reg @ y_reg) + np.ldexp(1.0, -2 * max(int(exponents[0]), 0)))

    tested, fstats, inconclusive = [], {}, []
    for name, u_sse in zip(candidates, sse_u.tolist()):
        if not math.isfinite(sse_r) or not math.isfinite(u_sse):
            inconclusive.append(name)
            warnings.warn(f"granger test inconclusive for {name!r}: regression did not solve")
            continue
        if u_sse <= zero_scale:
            if sse_r <= zero_scale:
                inconclusive.append(name)
                warnings.warn(
                    f"granger test inconclusive for {name!r}: both fits are exact"
                )
                continue
            f_stat = np.inf
        else:
            f_stat = max(0.0, ((sse_r - u_sse) / max_lag) / (u_sse / dof2))
        tested.append(name)
        fstats[name] = float(f_stat)
    # the F upper tail of every tested candidate in one call
    tails = _f_upper_tail(np.array([fstats[name] for name in tested]), max_lag, dof2).tolist()
    pvalues = dict(zip(tested, tails))
    retained = [name for name, p_value in zip(tested, tails) if p_value <= p_threshold]
    return GrangerResult(retained=retained, pvalues=pvalues, fstats=fstats,
                         inconclusive=inconclusive)


def check_k_range(k: int | None, k_lo: int, k_hi: int) -> None:
    """The rules of k: ``k`` (when set), ``k_lo`` and ``k_hi`` each by its rule,
    ``k_hi >= k_lo``, and with ``k`` unset the 3 candidates the elbow needs."""
    check_rules(RULES, k_lo=k_lo, k_hi=k_hi)
    if k_hi < k_lo:
        raise ValueError(f"k_hi must be >= k_lo = {k_lo}, got {k_hi}")
    if k is not None:
        check_rules(RULES, k=k)
    elif k_hi - k_lo < 2:
        raise ValueError(f"k_lo = {k_lo} and k_hi = {k_hi} leave {k_hi - k_lo + 1} k values; "
                         f"the elbow needs 3 candidates; widen them or pin k")


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
        check_k_range(self.k, *self.k_range)
        check_selection(self.n_components, self.theta)
        if self.sigma is not None:
            check_rules(KPCA_RULES, sigma=self.sigma)
        check_rules(REGRESSOR_RULES, c=self.c, n_hidden=self.n_hidden, regressor=self.regressor)
        check_rules(RULES, lag=self.lag, seed=self.seed)


@dataclass
class PipelineModel:
    """A fitted pipeline. ``norm`` and ``cluster.labels`` follow the order of
    ``indicator_names``; cluster j's KPCA reads the columns labelled j, whose
    positions, ascending, are ``cluster_columns[j]``."""

    norm: NormalizationParams
    target_norm: NormalizationParams
    indicator_names: list[str]
    cluster: ClusterModel
    cluster_columns: list[np.ndarray]
    kpca_models: list[KpcaModel]
    regressor: object
    elbow_curve: dict[int, float] = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        raise PipelineStageError(name, err) from err


@one_blas_thread()
def pipeline_fit(panel: FeaturePanel, config: PipelineConfig) -> PipelineModel:
    """Fit normalization, clustering, per-cluster KPCA and the final regressor.

    The panel must hold training rows only. Indicator series are clustered
    over the training window, each cluster's columns feed one KPCA, and the
    concatenated component scores at month t regress the normalized target
    at month t + lag. From ``CONCURRENT_MIN_ROWS`` training rows on, the
    clusters' KPCAs are fitted side by side, on W workers: one per CPU the
    process may use, at most ``MAX_FIT_WORKERS`` and at most one per
    cluster. Worker w, the calling thread when w = 0, fits clusters w,
    w + W, ... in order, in one Gram storage (``kpca.gram_size``) that this
    thread allocates per worker; each fit's arithmetic is the same on any
    thread, so the model does not depend on the worker count.

    The fit holds one matrix of the indicators' size at a time. The
    normalized indicator matrix goes to the unchecked clustering core
    (``clustering._cluster``), which standardizes it in place, and is
    released after the clustering stage. Each cluster's columns are then
    gathered from the panel and normalized by the same bounds, which is
    elementwise, so each block has the bits of the normalized matrix's
    columns. Each block goes to the unchecked KPCA core (``kpca._fit``),
    whose model keeps it as ``x_train``: the fit holds the clusters' columns
    once, not as the blocks and the models' copies. ``normalize_fit`` has
    already checked every value.
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
    norm.apply(values, out=values)  # in place: the fit's one matrix of this size
    ks = list(range(lo, hi + 1)) if config.k is None else [config.k]
    k, fits = _stage("cluster", _cluster, values, ks, config.seed)  # standardizes values
    del values
    cluster = fits[k]
    elbow_curve = {j: fit.wcss for j, fit in fits.items()} if config.k is None else {}

    cluster_columns = [np.flatnonzero(cluster.labels == j) for j in range(cluster.k)]

    def normalized_block(columns: np.ndarray) -> np.ndarray:
        # gathered C-ordered, which the distance product reads without a copy,
        # and normalized in place by its columns' bounds: elementwise, so the
        # bits of the whole matrix's normalization
        block = panel.matrix([indicators[i] for i in columns])
        return NormalizationParams(norm.mins[columns], norm.maxs[columns]).apply(block, out=block)

    blocks = [normalized_block(columns) for columns in cluster_columns]

    def fit_cluster(j: int, gram: np.ndarray) -> KpcaModel:
        kernel = GaussianKernel(config.sigma) if config.sigma is not None else None
        return _stage(f"kpca[{j}]", _kpca_fit, blocks[j], kernel=kernel,
                      n_components=config.n_components, theta=config.theta, out=gram)

    workers = 1
    if panel.n_rows >= CONCURRENT_MIN_ROWS:
        workers = min(cluster.k, _cpu_count(), MAX_FIT_WORKERS)
    # one Gram storage per worker (n^2 doubles, or about half that packed from
    # kpca.IMPLICIT_CENTERING_MIN_ORDER rows), allocated by this thread: a
    # helper's own allocation would come from its own malloc arena and stay
    # resident there
    grams = [np.empty(gram_size(panel.n_rows)) for _ in range(workers)]
    kpca_models = _map_in_threads(fit_cluster, cluster.k, grams)
    del grams  # freed before the regressor builds its own

    # each fit already holds its training rows' projection
    features = _stage("features", np.hstack, [m.train_scores for m in kpca_models])
    x = features[: panel.n_rows - config.lag]
    y = target_norm.apply(target_values)[config.lag :, 0]

    regressor = _stage("regressor", regressor_fit, config.regressor, x, y, c=config.c,
                       sigma=config.sigma, n_hidden=config.n_hidden, seed=config.seed)

    return PipelineModel(
        norm=norm, target_norm=target_norm, indicator_names=indicators, cluster=cluster,
        cluster_columns=cluster_columns, kpca_models=kpca_models, regressor=regressor,
        elbow_curve=elbow_curve,
    )


@one_blas_thread()
def pipeline_predict(model: PipelineModel, panel: FeaturePanel) -> np.ndarray:
    """Forecast the target, one value per input row, in original units.

    Rejects a missing indicator column, a non-finite value in one, or a
    finite value that normalizes to +-inf (far outside a tiny training
    range), by name (and date) before any stage runs.
    """
    names = model.indicator_names
    values = panel.matrix(names)
    require_finite(values, names, panel.dates, where="forecast origin ")
    normed = model.norm.apply(values, out=values)
    require_finite(normed, names, panel.dates, where="normalized forecast origin ")
    features = np.hstack([kpca_transform(kmodel, np.take(normed, columns, axis=1))
                          for columns, kmodel in zip(model.cluster_columns, model.kpca_models)])
    return model.target_norm.invert(regressor_predict(model.regressor, features))
