"""Univariate benchmark models: naive random walk, least-squares AR, lag features.

The AR benchmark is an ARI(p, d) fitted by least squares; the order p is
picked by AIC or SC computed on a common differenced sample window so the
criteria are comparable across candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import at_least, check_rules, finite_array, one_blas_thread

CRITERIA = ("aic", "sc")

# the defaults of ar_fit and univariate_lag_features, which the CLI's keys echo
DEFAULT_MAX_P = 12
DEFAULT_D = 1
DEFAULT_CRITERION = "aic"
DEFAULT_LAGS = 12

RULES = {  # parameter -> (test of a valid value, stated rule)
    "max_p": at_least(1),
    "d": ((lambda value: value in (0, 1)), "0 or 1"),
    "criterion": ((lambda value: str(value).lower() in CRITERIA), f"one of {CRITERIA}"),
    "lags": at_least(1),
    "steps": at_least(0),
}


def _as_series(y, min_len, name="y"):
    y = finite_array(y, name, 1)
    if y.size < min_len:
        raise ValueError(f"{name} has {y.size} observations, need at least {min_len}")
    return y


@dataclass
class ArModel:
    """Autoregression on the d-times differenced series.

    coef[i] multiplies lag i+1 of the differenced series.  scores maps each
    fitted candidate order to its information criteria; candidates whose
    regression could not be estimated are absent.
    """

    d: int
    p: int
    intercept: float
    coef: np.ndarray
    scores: dict[int, dict[str, float]]


def _criterion_scores(t, sse, p):
    if sse <= 0.0:
        return {"aic": -np.inf, "sc": -np.inf}
    base = t * np.log(sse / t)
    return {"aic": base + 2.0 * (p + 1), "sc": base + np.log(t) * (p + 1)}


def _lag_matrix(z: np.ndarray, max_lag: int) -> np.ndarray:
    """Lags 1..max_lag of ``z`` over its rows max_lag.. (those that have every lag),
    stacked on a new last axis: (t, max_lag) for a series, (t, C, max_lag) for a
    (rows, C) block; index j of that axis holds lag j+1."""
    n = z.shape[0]
    return np.stack([z[max_lag - j : n - j] for j in range(1, max_lag + 1)], axis=-1)


@one_blas_thread()
def ar_fit(y, max_p=DEFAULT_MAX_P, d=DEFAULT_D, criterion=DEFAULT_CRITERION):
    """Fit AR models of order 1..max_p on the differenced series, keep the best.

    All candidates are scored on the same regression window (the rows left
    after dropping max_p lags), so T is identical and AIC/SC comparable.
    Candidates with fewer rows than parameters are skipped as inestimable.
    """
    max_p = int(max_p)
    check_rules(RULES, max_p=max_p, d=d, criterion=criterion)
    criterion = str(criterion).lower()
    y = _as_series(y, max_p + d + 3)

    z = np.diff(y, n=d)
    t = z.size - max_p
    target = z[max_p:]
    lag_cols = _lag_matrix(z, max_p)

    scores: dict[int, dict[str, float]] = {}
    fits: dict[int, tuple[float, np.ndarray]] = {}
    for p in range(1, max_p + 1):
        if t < p + 1:
            continue  # more parameters than equations
        design = np.column_stack([lag_cols[:, :p], np.ones(t)])
        beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        if not np.all(np.isfinite(beta)):
            continue
        resid = target - design @ beta
        scores[p] = _criterion_scores(t, float(resid @ resid), p)
        fits[p] = (float(beta[p]), beta[:p].copy())
    if not scores:
        raise ValueError("no autoregressive order could be estimated")

    best_p = min(scores, key=lambda p: (scores[p][criterion], p))
    intercept, coef = fits[best_p]
    return ArModel(d=d, p=best_p, intercept=intercept, coef=coef, scores=scores)


def ar_forecast(model, history, steps):
    """Iterate the fitted recursion forward, re-integrating the differences."""
    steps = int(steps)
    check_rules(RULES, steps=steps)
    history = _as_series(history, model.p + model.d, name="history")
    if steps == 0:
        return np.empty(0)

    z = np.diff(history, n=model.d)
    buf = list(z[-model.p:]) if model.p else []
    out = np.empty(steps)
    level = history[-1]
    for s in range(steps):
        z_next = model.intercept
        for i in range(model.p):
            z_next += model.coef[i] * buf[-1 - i]
        buf.append(z_next)
        if model.d:
            level = level + z_next
            out[s] = level
        else:
            out[s] = z_next
    return out


def naive_forecast(history, steps):
    """Repeat the last observed value: the random-walk point forecast."""
    history = _as_series(history, 1, name="history")
    steps = int(steps)
    check_rules(RULES, steps=steps)
    return np.full(steps, history[-1])


def univariate_lag_features(y, lags=DEFAULT_LAGS):
    """Build rows (y_{t-1}, ..., y_{t-lags}) -> y_t over every valid t."""
    lags = int(lags)
    check_rules(RULES, lags=lags)
    y = _as_series(y, lags + 1)
    return _lag_matrix(y, lags), y[lags:].copy()
