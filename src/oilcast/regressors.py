"""Extreme learning machines: random-feature (ELM) and kernel (KELM).

ELM draws a fixed random hidden layer and solves only the output weights
with a ridge penalty. KELM replaces the random features with a kernel
matrix and solves the dual system directly, so it has no randomness.
Targets may be a vector (m = 1) or a matrix of stacked outputs.
``regressor_fit`` and ``regressor_predict`` are the one place that
chooses between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .kpca import GaussianKernel, LinearKernel, gaussian_gram
from .numerics import one_blas_thread, ridge_pinv, solve_spd

DEFAULT_C = 100.0
DEFAULT_N_HIDDEN = 100

REGRESSORS = ("kelm", "elm")


def _as_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"inputs must be 2-D (samples as rows), got shape {x.shape}")
    if y.ndim not in (1, 2) or y.shape[0] != x.shape[0]:
        raise ValueError(f"targets of shape {y.shape} do not match {x.shape[0]} input rows")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("training data contains non-finite values")
    return x, y


def _as_eval_rows(x, dim: int) -> np.ndarray:
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"prediction input must be 2-D (samples as rows), got shape {rows.shape}")
    if rows.shape[1] != dim:
        raise ValueError(f"sample dimension {rows.shape[1]} does not match model dimension {dim}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("prediction input contains non-finite values")
    return rows


@dataclass
class ElmModel:
    weights: np.ndarray  # (L, n) input weights, fixed after construction
    biases: np.ndarray  # (L,)
    beta: np.ndarray  # (L,) or (L, m) output weights


@one_blas_thread()
def elm_fit(x, y, n_hidden: int = DEFAULT_N_HIDDEN, c: float = DEFAULT_C, seed: int = 0) -> ElmModel:
    """Fit an ELM: seeded uniform [-1, 1] hidden layer, sigmoid features,
    output weights via the ridge pseudoinverse. Deterministic given seed."""
    x, y = _as_xy(x, y)
    if n_hidden < 1:
        raise ValueError(f"hidden count must be at least 1, got {n_hidden}")
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"penalty C must be positive, got {c}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_hidden, x.shape[1]))
    biases = rng.uniform(-1.0, 1.0, size=n_hidden)
    hidden = expit(x @ weights.T + biases)
    beta = ridge_pinv(hidden, y, c)
    return ElmModel(weights=weights, biases=biases, beta=beta)


@one_blas_thread()
def elm_predict(model: ElmModel, x) -> np.ndarray:
    """Apply the fixed hidden layer and output weights to sample rows."""
    rows = _as_eval_rows(x, model.weights.shape[1])
    return expit(rows @ model.weights.T + model.biases) @ model.beta


@dataclass
class KelmModel:
    x_train: np.ndarray
    kernel: GaussianKernel | LinearKernel
    alpha: np.ndarray  # (N,) or (N, m) dual coefficients


@one_blas_thread()
def kelm_fit(x, y, c: float = DEFAULT_C, sigma: float | None = None, kernel=None) -> KelmModel:
    """Fit a KELM: solve (I/C + Omega) A = Y on the raw (uncentered)
    training kernel matrix.

    The kernel is Gaussian with width ``sigma`` (median heuristic when
    omitted); passing ``kernel`` directly overrides it, which is how the
    linear-kernel ridge cross-check is wired in. The fit factors the
    system in its Gaussian Gram matrix, or in a copy of what ``kernel``
    returns.
    """
    x, y = _as_xy(x, y)
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"penalty C must be positive, got {c}")
    if kernel is None:
        system, kernel = gaussian_gram(x, sigma)
    else:
        system = np.array(kernel(x), dtype=float)
    system[np.diag_indices_from(system)] += 1.0 / c
    alpha = solve_spd(system, y)
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
