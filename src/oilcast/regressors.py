"""Extreme learning machines: random-feature (ELM) and kernel (KELM).

ELM draws a fixed random hidden layer and solves only the output weights
with a ridge penalty. KELM replaces the random features with a kernel
matrix, so it has no randomness. Both solve one ridge dual,
(I/C + Omega) a = y, where the ELM's Omega is H H' of its hidden
features and its output weights are H' a.
Targets are vectors, one value per sample row.
``regressor_fit`` and ``regressor_predict`` are the one place that
chooses between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kpca import GaussianKernel, LinearKernel, _finite_prediction, _gram
from .numerics import (MAX_FIT_WORKERS, _cpu_count, _solve_spd, at_least, check_rules, finite_array,
                       finite_rows, one_blas_thread, one_of)

DEFAULT_C = 100.0
DEFAULT_N_HIDDEN = 100

REGRESSORS = ("kelm", "elm")

# From this many rows on, the ridge solve splits the rows of its Gram passes
# and Cholesky panels over the fit workers. Each split starts a thread (about
# 0.2 ms with its first BLAS call); measured on a 2-CPU host, a KELM fit
# gains from about 1100 rows (10 ms at 1187, 90 ms at 2376) and loses up to
# 2.6 ms below 1000, where its Gram still sits in cache.
SPLIT_MIN_ROWS = 1024

RULES = {  # parameter -> (test of a valid value, stated rule)
    # the solvers add 1/c to a diagonal
    "c": ((lambda c: 0.0 < c < np.inf and 1.0 / c < np.inf), "positive, with 1/c finite"),
    "n_hidden": at_least(1),
    "regressor": one_of(REGRESSORS),
}


def _as_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x, y = finite_array(x, "x", 2), finite_array(y, "y", 1)
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"targets of shape {y.shape} do not match {x.shape[0]} input rows")
    return x, y


def _ridge_dual(x: np.ndarray, y: np.ndarray, c: float,
                kernel) -> tuple[np.ndarray, GaussianKernel | LinearKernel, np.ndarray | None]:
    """The dual coefficients ``a`` of ``(I/C + Omega) a = y``, Omega the Gram
    matrix of checked rows ``x`` under ``kernel``, that kernel, and the rows'
    squared norms if the Gram computed them: the one ridge solve of both
    regressors.

    The system is factored in the Gram matrix ``kpca._gram`` builds, exactly
    symmetric and not scanned for symmetry; a linear one is checked for
    finiteness once, as huge finite rows can overflow ``x x'``. From
    ``SPLIT_MIN_ROWS`` rows on, the Gram's passes after its product and the
    Cholesky panels split their rows over one worker per CPU the process
    may use, at most ``MAX_FIT_WORKERS``: the fit workers the KPCAs had,
    idle by now. The result is the same bits on any number of workers.
    """
    workers = 1
    if x.shape[0] >= SPLIT_MIN_ROWS:
        workers = min(_cpu_count(), MAX_FIT_WORKERS)
    system, kernel, norms = _gram(x, kernel, workers=workers)
    system[np.diag_indices_from(system)] += 1.0 / c
    if isinstance(kernel, LinearKernel):
        finite_array(system, "kernel matrix", 2)
    return _solve_spd(system, y, workers), kernel, norms


@dataclass
class ElmModel:
    weights: np.ndarray  # (L, n) input weights, fixed after construction
    biases: np.ndarray  # (L,)
    beta: np.ndarray  # (L,) output weights


def _hidden_layer(rows: np.ndarray, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Sigmoid features ``1 / (1 + exp(-z))`` of finite rows, computed in
    place; ``exp`` overflows to inf for z below about -709, which gives the
    limit 0. A NaN (huge rows can sum inf and -inf in the product) is
    rejected, as nothing later would catch it."""
    hidden = rows @ weights.T
    hidden += biases
    np.negative(hidden, out=hidden)
    with np.errstate(over="ignore"):
        np.exp(hidden, out=hidden)
    hidden += 1.0
    np.reciprocal(hidden, out=hidden)
    if np.isnan(hidden).any():
        raise ValueError("inputs too large: hidden-layer inputs overflow")
    return hidden


@one_blas_thread()
def elm_fit(x, y, n_hidden: int = DEFAULT_N_HIDDEN, c: float = DEFAULT_C, seed: int = 0) -> ElmModel:
    """Fit an ELM: seeded uniform [-1, 1] hidden layer, sigmoid features H,
    output weights ``H' (I/C + H H')^-1 y``, the ridge pseudoinverse
    solution. Deterministic given seed."""
    check_rules(RULES, c=c, n_hidden=n_hidden)
    x, y = _as_xy(x, y)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_hidden, x.shape[1]))
    biases = rng.uniform(-1.0, 1.0, size=n_hidden)
    hidden = _hidden_layer(x, weights, biases)
    alpha = _ridge_dual(hidden, y, c, LinearKernel())[0]
    return ElmModel(weights=weights, biases=biases, beta=hidden.T @ alpha)


@one_blas_thread()
def elm_predict(model: ElmModel, x) -> np.ndarray:
    """Apply the fixed hidden layer and output weights to sample rows."""
    rows = finite_rows(x, model.weights.shape[1])
    return _hidden_layer(rows, model.weights, model.biases) @ model.beta


@dataclass
class KelmModel:
    x_train: np.ndarray
    train_norms: np.ndarray | None  # (N,) sq_norms of x_train for a Gaussian kernel's rows
    kernel: GaussianKernel | LinearKernel
    alpha: np.ndarray  # (N,) dual coefficients


@one_blas_thread()
def kelm_fit(x, y, c: float = DEFAULT_C, kernel=None) -> KelmModel:
    """Fit a KELM: solve (I/C + Omega) a = y on the raw (uncentered)
    training kernel matrix with ``_ridge_dual``.

    ``kernel`` is a ``GaussianKernel``, a ``LinearKernel`` (the ridge
    regression cross-check) or None, a Gaussian kernel at the
    median-heuristic width.
    """
    check_rules(RULES, c=c)
    x, y = _as_xy(x, y)
    alpha, kernel, train_norms = _ridge_dual(x, y, c, kernel)
    return KelmModel(x_train=x.copy(), train_norms=train_norms, kernel=kernel, alpha=alpha)


@one_blas_thread()
def kelm_predict(model: KelmModel, x) -> np.ndarray:
    """Kernel rows against the training inputs times the dual coefficients;
    rows whose kernel values, or the sums of them, overflow raise ``ValueError``."""
    rows = finite_rows(x, model.x_train.shape[1])
    return _finite_prediction(model.kernel(rows, model.x_train, model.train_norms) @ model.alpha)


# The dispatch calls the fit/predict functions through their module-level
# names at call time, so a caller that rebinds those names (a profiler, a
# test double) sees every regressor call.
def regressor_fit(name: str, x, y, c: float = DEFAULT_C, sigma: float | None = None,
                  n_hidden: int = DEFAULT_N_HIDDEN, seed: int = 0) -> KelmModel | ElmModel:
    """Fit the regressor ``name`` (one of ``REGRESSORS``).

    KELM uses ``c`` and ``sigma``; ELM uses ``c``, ``n_hidden`` and ``seed``.
    """
    check_rules(RULES, regressor=name)
    if name == "kelm":
        return kelm_fit(x, y, c=c, kernel=None if sigma is None else GaussianKernel(sigma))
    return elm_fit(x, y, n_hidden=n_hidden, c=c, seed=seed)


def regressor_predict(model: KelmModel | ElmModel, x) -> np.ndarray:
    """Predict with a model from ``regressor_fit``; the model's type picks the path."""
    if isinstance(model, KelmModel):
        return kelm_predict(model, x)
    return elm_predict(model, x)
