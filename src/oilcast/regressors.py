"""Extreme learning machines: random-feature (ELM) and kernel (KELM).

ELM draws a fixed random hidden layer and solves only the output weights
with a ridge penalty. KELM replaces the random features with a kernel
matrix and solves the dual system directly, so it has no randomness.
Targets are vectors, one value per sample row.
``regressor_fit`` and ``regressor_predict`` are the one place that
chooses between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .kpca import GaussianKernel, LinearKernel, gaussian_gram
from .numerics import _ridge_pinv, _solve_spd, _symmetric, finite_array, one_blas_thread

DEFAULT_C = 100.0
DEFAULT_N_HIDDEN = 100

REGRESSORS = ("kelm", "elm")


def _as_xy(x, y, c: float) -> tuple[np.ndarray, np.ndarray]:
    x, y = finite_array(x, "x", 2), finite_array(y, "y", 1)
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"targets of shape {y.shape} do not match {x.shape[0]} input rows")
    if not (0.0 < c < np.inf and 1.0 / c < np.inf):  # the solvers add 1/C to a diagonal
        raise ValueError(f"penalty C must be positive, with 1/C finite, got {c}")
    return x, y


def _as_eval_rows(x, dim: int) -> np.ndarray:
    rows = finite_array(x, "x", 2)
    if rows.shape[1] != dim:
        raise ValueError(f"sample dimension {rows.shape[1]} does not match model dimension {dim}")
    return rows


@dataclass
class ElmModel:
    weights: np.ndarray  # (L, n) input weights, fixed after construction
    biases: np.ndarray  # (L,)
    beta: np.ndarray  # (L,) output weights


def _hidden_layer(rows: np.ndarray, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Sigmoid features of finite rows; a NaN (huge rows can sum inf and -inf
    in the product) is rejected, as nothing later would catch it."""
    hidden = expit(rows @ weights.T + biases)
    if np.isnan(hidden).any():
        raise ValueError("inputs too large: hidden-layer inputs overflow")
    return hidden


@one_blas_thread()
def elm_fit(x, y, n_hidden: int = DEFAULT_N_HIDDEN, c: float = DEFAULT_C, seed: int = 0) -> ElmModel:
    """Fit an ELM: seeded uniform [-1, 1] hidden layer, sigmoid features,
    output weights via the ridge pseudoinverse. Deterministic given seed."""
    x, y = _as_xy(x, y, c)
    if n_hidden < 1:
        raise ValueError(f"hidden count must be at least 1, got {n_hidden}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_hidden, x.shape[1]))
    biases = rng.uniform(-1.0, 1.0, size=n_hidden)
    beta = _ridge_pinv(_hidden_layer(x, weights, biases), y, c)
    return ElmModel(weights=weights, biases=biases, beta=beta)


@one_blas_thread()
def elm_predict(model: ElmModel, x) -> np.ndarray:
    """Apply the fixed hidden layer and output weights to sample rows."""
    rows = _as_eval_rows(x, model.weights.shape[1])
    return _hidden_layer(rows, model.weights, model.biases) @ model.beta


@dataclass
class KelmModel:
    x_train: np.ndarray
    kernel: GaussianKernel | LinearKernel
    alpha: np.ndarray  # (N,) dual coefficients


@one_blas_thread()
def kelm_fit(x, y, c: float = DEFAULT_C, sigma: float | None = None, kernel=None) -> KelmModel:
    """Fit a KELM: solve (I/C + Omega) a = y on the raw (uncentered)
    training kernel matrix.

    The kernel is Gaussian with width ``sigma`` (median heuristic when
    omitted); passing ``kernel`` directly overrides it, which is how the
    linear-kernel ridge cross-check is wired in. The fit factors the
    system in its Gaussian Gram matrix, symmetric by construction and not
    scanned, or in a checked copy of what ``kernel`` returns.
    """
    x, y = _as_xy(x, y, c)
    caller = kernel is not None
    if caller:
        system = np.array(kernel(x), dtype=float)
    else:
        system, kernel = gaussian_gram(x, sigma)
    system[np.diag_indices_from(system)] += 1.0 / c
    if caller:  # checked with 1/C added: the system the solver factors
        _symmetric(system, "kernel matrix")
        if system.shape[0] != y.size:
            raise ValueError(f"kernel matrix of order {len(system)} does not match {y.size} targets")
    alpha = _solve_spd(system, y)
    return KelmModel(x_train=x.copy(), kernel=kernel, alpha=alpha)


@one_blas_thread()
def kelm_predict(model: KelmModel, x) -> np.ndarray:
    """Kernel rows against the training inputs times the dual coefficients."""
    rows = _as_eval_rows(x, model.x_train.shape[1])
    return model.kernel(rows, model.x_train) @ model.alpha


# The dispatch calls the fit/predict functions through their module-level
# names at call time, so a caller that rebinds those names (a profiler, a
# test double) sees every regressor call.
def regressor_fit(name: str, x, y, c: float = DEFAULT_C, sigma: float | None = None,
                  n_hidden: int = DEFAULT_N_HIDDEN, seed: int = 0) -> KelmModel | ElmModel:
    """Fit the regressor ``name`` (one of ``REGRESSORS``).

    KELM uses ``c`` and ``sigma``; ELM uses ``c``, ``n_hidden`` and ``seed``.
    """
    if name == "kelm":
        return kelm_fit(x, y, c=c, sigma=sigma)
    if name == "elm":
        return elm_fit(x, y, n_hidden=n_hidden, c=c, seed=seed)
    raise ValueError(f"regressor must be one of {REGRESSORS}, got {name!r}")


def regressor_predict(model: KelmModel | ElmModel, x) -> np.ndarray:
    """Predict with a model from ``regressor_fit``; the model's type picks the path."""
    if isinstance(model, KelmModel):
        return kelm_predict(model, x)
    return elm_predict(model, x)
