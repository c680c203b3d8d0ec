"""Forecast accuracy metrics, improvement rates, and report serialization.

Directional accuracy follows the printed convention exactly: transition
t is correct when (y(t+1) - y(t)) * (yhat(t+1) - y(t)) >= 0, i.e. the
forecast for t+1 moves from the *actual* value at t in the realized
direction, with exact ties counting as correct. The denominator is the
N-1 evaluated transitions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def _as_pair(y, yhat, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or yhat.ndim != 1 or y.shape != yhat.shape:
        raise ValueError(f"series must be 1-D and equal length, got {y.shape} and {yhat.shape}")
    if y.size < min_len:
        raise ValueError(f"need at least {min_len} points, got {y.size}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(yhat))):
        raise ValueError("metric input contains non-finite values")
    return y, yhat


def mape(y, yhat) -> float:
    """Mean absolute percentage error, in percent. Rejects zero actuals."""
    y, yhat = _as_pair(y, yhat)
    zeros = np.flatnonzero(y == 0.0)
    if zeros.size:
        raise ValueError(f"actual value at index {zeros[0]} is 0; MAPE is undefined")
    return float(np.mean(np.abs(y - yhat) / np.abs(y)) * 100.0)


def rmse(y, yhat) -> float:
    y, yhat = _as_pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mae(y, yhat) -> float:
    y, yhat = _as_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def direction_hits(y, yhat) -> np.ndarray:
    """d(t) for t = 1..N-1: 1 when (y(t+1)-y(t)) * (yhat(t+1)-y(t)) >= 0."""
    y, yhat = _as_pair(y, yhat, min_len=2)
    product = (y[1:] - y[:-1]) * (yhat[1:] - y[:-1])
    return (product >= 0.0).astype(int)


@dataclass
class EvalReport:
    """Metrics for one forecast run plus the per-point detail behind them.

    ``points`` holds (t, y(t), yhat(t), d(t)) with 1-based t; d is None
    for the final point, which starts no transition.
    """

    label: str
    n: int
    mape_pct: float
    rmse: float
    mae: float
    da_pct: float
    config_echo: str = ""
    points: list[tuple[int, float, float, int | None]] = dataclasses.field(
        default_factory=list, repr=False
    )


def evaluate(y, yhat, label: str = "", config_echo: str = "") -> EvalReport:
    """Compute all metrics for a forecast and package them as a report."""
    y, yhat = _as_pair(y, yhat, min_len=2)
    hits = direction_hits(y, yhat)
    points = [
        (t + 1, float(y[t]), float(yhat[t]), int(hits[t]) if t < hits.size else None)
        for t in range(y.size)
    ]
    return EvalReport(
        label=label,
        n=int(y.size),
        mape_pct=mape(y, yhat),
        rmse=rmse(y, yhat),
        mae=mae(y, yhat),
        da_pct=float(hits.sum() / hits.size * 100.0),
        config_echo=config_echo,
        points=points,
    )


@dataclass(frozen=True)
class ImprovementRates:
    ir_mape_pct: float
    ir_rmse_pct: float
    ir_da_pct: float


def improvement_rate(report_a: EvalReport, report_b: EvalReport) -> ImprovementRates:
    """Relative improvement of A over B, in percent; positive favors A.

    Error metrics flip sign (lower is better); directional accuracy does
    not. Zero reference values make the rate undefined and are rejected.
    """
    for metric, value in (("MAPE", report_b.mape_pct), ("RMSE", report_b.rmse), ("DA", report_b.da_pct)):
        if value == 0.0:
            raise ValueError(f"improvement rate undefined: reference {metric} is 0")
    return ImprovementRates(
        ir_mape_pct=-(report_a.mape_pct - report_b.mape_pct) / report_b.mape_pct * 100.0,
        ir_rmse_pct=-(report_a.rmse - report_b.rmse) / report_b.rmse * 100.0,
        ir_da_pct=(report_a.da_pct - report_b.da_pct) / report_b.da_pct * 100.0,
    )


# --- report serialization (field names are the CLI's external contract) ------

_REPORT_FIELDS = ("label", "n", "mape_pct", "rmse", "mae", "da_pct", "config_echo")
_POINTS_HEADER = "t,y,yhat,d"


def format_report(report: EvalReport) -> str:
    lines = [
        f"label = {report.label}",
        f"n = {report.n}",
        f"mape_pct = {report.mape_pct!r}",
        f"rmse = {report.rmse!r}",
        f"mae = {report.mae!r}",
        f"da_pct = {report.da_pct!r}",
        f"config_echo = {report.config_echo}",
        "",
        _POINTS_HEADER,
    ]
    for t, y, yhat, d in report.points:
        lines.append(f"{t},{y!r},{yhat!r},{'' if d is None else d}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvalReport:
    r"""The report in ``format_report``'s text; only ``\n`` ends a line, so a label
    may hold any other character."""
    lines = text.split("\n")
    fields: dict[str, tuple[int, str]] = {}  # key -> (line number, raw value)
    i = 0
    while i < len(lines) and lines[i].strip():
        if " = " not in lines[i]:
            raise ValueError(f"malformed report line {i + 1}: {lines[i]!r}")
        key, raw = lines[i].split(" = ", 1)
        fields[key.strip()] = (i + 1, raw)
        i += 1
    missing = [f for f in _REPORT_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"report is missing fields: {missing}")
    points: list[tuple[int, float, float, int | None]] = []
    rest = [(no, ln) for no, ln in enumerate(lines[i:], start=i + 1) if ln.strip()]
    if rest:
        if rest[0][1].strip() != _POINTS_HEADER:
            raise ValueError(f"expected per-point header {_POINTS_HEADER!r}, got {rest[0][1]!r}")
        for no, ln in rest[1:]:
            try:
                t, y, yhat, d = ln.split(",")
                points.append((int(t), float(y), float(yhat), int(d) if d != "" else None))
            except ValueError:
                raise ValueError(f"line {no}: expected {_POINTS_HEADER}, got {ln!r}") from None

    def value(key, convert=str):
        lineno, raw = fields[key]
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {raw!r}") from None

    return EvalReport(
        label=value("label"),
        n=value("n", int),
        mape_pct=value("mape_pct", float),
        rmse=value("rmse", float),
        mae=value("mae", float),
        da_pct=value("da_pct", float),
        config_echo=value("config_echo"),
        points=points,
    )

