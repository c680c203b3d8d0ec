"""Deterministic synthetic panels with planted cluster and factor structure.

Every claim about the forecasting pipeline is tested against panels from this
generator, so the algorithm itself is part of the package contract (the README
documents it step by step for reimplementation). In outline, one seeded
`numpy.random.default_rng` stream drives:

1. F+1 Gaussian random walks, smoothed by a centered moving average, then
   orthonormalized over the first `months - 12` rows (QR with positive
   diagonal, unit variance per column).
2. A common mode built from basis column 0 plus a seasonal sine with a random
   phase; latent factor j mixes that mode with idiosyncratic basis column j+1
   at ratio 1 : COMMON_MIX, is squashed by tanh, and re-scaled to unit
   variance over the same prefix window.
3. Indicators: `loading * factor + offset + noise`, loadings U(0.5, 2),
   offsets U(-1, 1), grouped `series_per_factor` per factor and tagged
   economic / gsvi alternately by factor.
4. The target: a weighted tanh mixture of the factors plus a factor-contrast
   tilt, scaled onto a price-like level, with the indicators leading the
   target by `lag` months.

The factor correlation structure is deliberate: all factors share most of
their variance through the common mode, so a global variance-ranked reduction
concentrates on that mode while the per-cluster route keeps each factor at
full scale. That is the planted advantage the hybrid pipeline is expected to
exploit, and the contrast term in the link is the part of the target a
common-mode-only feature set cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import at_least, check_rules, one_blas_thread
from .panel import RULES as PANEL_RULES, FeaturePanel, month_range

# family constants; part of the documented generator contract
SMOOTH_WINDOW = 6
COMMON_MIX = 0.2
FACTOR_BOUND = 1.5
SEASON_AMPLITUDE = 1.3
TARGET_BASE = 60.0
TARGET_SCALE = 15.0
CONTRAST_WEIGHT = 2.0
STAT_HOLDOUT = 12

TARGET_NAME = "price"
STANDARD_SEEDS = tuple(range(10))

RULES = {  # SynthSpec field -> (test of a valid value, stated rule)
    "seed": at_least(0),
    "months": at_least(36),
    "factors": at_least(1),
    "series_per_factor": at_least(2),
    **dict.fromkeys(("noise", "target_noise"), ((lambda value: 0.0 <= value < np.inf),
                                                ">= 0 and finite")),
    "lag": at_least(1),
    "start": PANEL_RULES["month"],
}


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic panel draw."""

    seed: int = 0
    months: int = 180
    factors: int = 3
    series_per_factor: int = 10
    noise: float = 0.05
    target_noise: float = 0.5
    lag: int = 1
    start: str = "2004-01"

    def __post_init__(self) -> None:
        check_rules(RULES, **{f.name: getattr(self, f.name) for f in fields(self)})


def _latent_factors(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Factor matrix with months + lag rows, unit scale on the prefix window."""
    total = spec.months + spec.lag
    window = spec.months - STAT_HOLDOUT
    raw = rng.standard_normal((total, spec.factors + 1)).cumsum(axis=0)
    kernel = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW
    smooth = np.column_stack(
        [np.convolve(raw[:, j], kernel, mode="same") for j in range(spec.factors + 1)]
    )
    # orthonormal basis fixed on the prefix so the holdout stays out of sample
    centered = smooth - smooth[:window].mean(axis=0)
    _, r = np.linalg.qr(centered[:window])
    basis = centered @ np.linalg.inv(r)
    basis *= np.sign(np.diag(r))
    basis /= basis[:window].std(axis=0)

    phase = rng.uniform(0.0, 2.0 * np.pi)
    season = SEASON_AMPLITUDE * np.sin(2.0 * np.pi * np.arange(total) / 12.0 + phase)
    common = basis[:, 0] + season
    factors = common[:, None] + COMMON_MIX * basis[:, 1:]
    factors /= np.sqrt(1.0 + COMMON_MIX * COMMON_MIX)
    factors = np.tanh(factors / FACTOR_BOUND)
    return factors / factors[:window].std(axis=0)


def _tanh_mix_target(
    spec: SynthSpec, factors: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    weights = rng.uniform(0.5, 1.5, spec.factors)
    tilt = weights - weights.mean()
    norm = np.linalg.norm(tilt)
    if norm > 0:
        tilt = tilt / norm
    at_target = factors[: spec.months]
    link = np.tanh(at_target) @ weights + CONTRAST_WEIGHT * (at_target @ tilt)
    noise = spec.target_noise * rng.standard_normal(spec.months)
    return TARGET_BASE + TARGET_SCALE * link / spec.factors + noise


@one_blas_thread()
def synth_generate(
    spec: SynthSpec,
) -> tuple[FeaturePanel, np.ndarray, np.ndarray]:
    """Draw one panel; returns (panel, factor series, cluster labels).

    The factor series has one row per panel row and is the latent state the
    indicators observe; the target at row t + lag is a fixed function of that
    state at row t. Labels give each indicator's factor index in panel column
    order.
    """
    rng = np.random.default_rng(spec.seed)
    factors = _latent_factors(spec, rng)
    observed = factors[spec.lag :]  # indicators lead the target by lag months

    columns: dict[str, np.ndarray] = {}
    tags: dict[str, str] = {}
    labels = []
    for j in range(spec.factors):
        for i in range(spec.series_per_factor):
            loading = rng.uniform(0.5, 2.0)
            offset = rng.uniform(-1.0, 1.0)
            wiggle = spec.noise * rng.standard_normal(spec.months)
            name = f"f{j}s{i}"
            columns[name] = loading * observed[:, j] + offset + wiggle
            tags[name] = "economic" if j % 2 == 0 else "gsvi"
            labels.append(j)

    columns[TARGET_NAME] = _tanh_mix_target(spec, factors, rng)
    tags[TARGET_NAME] = "target"

    panel = FeaturePanel(
        dates=month_range(spec.start, spec.months), columns=columns, tags=tags
    )
    return panel, observed, np.asarray(labels)
