"""Confidence sequence from the L_p Dubins-Savage maximal inequality.

For a martingale S_t with conditional p-th increment moments
V_t = E[|S_t - S_{t-1}|^p | F_{t-1}],

    P(exists t: S_t >= a + b sum_{i<=t} V_i) <= 1 / (1 + m_p a b^(1/(p-1)))^(p-1),
    m_p = ((p-1) / 2^(2-p))^(1/(p-1)),

for every a >= 0, b > 0.  Applying it to +-sum lambda_i (X_i - mu), whose
increments have V_i = lambda_i^p E[|X_i - mu|^p | .] <= lambda_i^p v_p,
and choosing a so each one-sided bound equals alpha/2 gives the two-sided
sequence

    | sum lambda_i X_i - mu sum lambda_i |  <=  a + b v_p sum lambda_i^p
    for all n, with probability >= 1 - alpha,

i.e. an interval centred at the lambda-weighted mean with radius
(a + b v_p sum lambda_i^p) / sum lambda_i.  The interval keeps the a term
the union bound certifies, rather than the 2 b v_p sum(lambda^p)/sum(lambda)
width display that drops it.

The per-time width minimizer of b v_p lam^(p-1) + a/(t lam) is
lambda_t = (a / (t b v_p (p-1)))^(1/p); with it the radius shrinks at the
rate O(log t / t^((p-1)/p)) with an O(alpha^(-1/p)) confidence dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interval import ConfidenceInterval
from .schedules import LambdaSchedule, PrefixSums, _KahanSum, ds_optimal


def m_p(p: float) -> float:
    """m_p = ((p-1) / 2^(2-p))^(1/(p-1)); positive on (1, 2], -> 0 as p -> 1."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return ((p - 1.0) / 2.0 ** (2.0 - p)) ** (1.0 / (p - 1.0))


@dataclass(frozen=True)
class DsConfig:
    """Dubins-Savage sequence parameters; b > 0 is free and defaults to 1."""

    p: float
    v_p: float
    alpha: float
    b: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        if self.v_p <= 0.0:
            raise ValueError(f"v_p must be positive, got {self.v_p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive, got {self.b}")


def ds_a(cfg: DsConfig) -> float:
    """a = (1 / (m_p b^(1/(p-1)))) ((2/alpha)^(1/(p-1)) - 1).

    Chosen so the one-sided tail bound equals alpha/2; positive and
    decreasing in alpha, growing like alpha^(-1/(p-1)).
    """
    q = 1.0 / (cfg.p - 1.0)
    return ((2.0 / cfg.alpha) ** q - 1.0) / (m_p(cfg.p) * cfg.b**q)


def ds_tail_bound(a: float, b: float, p: float) -> float:
    """1 / (1 + m_p a b^(1/(p-1)))^(p-1), in (0, 1]; equals 1 at a = 0."""
    if a < 0.0:
        raise ValueError(f"a must be >= 0, got {a}")
    if b <= 0.0:
        raise ValueError(f"b must be positive, got {b}")
    return 1.0 / (1.0 + m_p(p) * a * b ** (1.0 / (p - 1.0))) ** (p - 1.0)


@dataclass
class DsState(PrefixSums):
    """PrefixSums' sum(lambda_i) and sum(lambda_i^p), plus sum(lambda_i X_i).

    Unlike the Catoni state this is a finite sufficient statistic, so no
    observations are retained.  Works with any positive schedule; pass the
    schedule whose weights should be applied at each update.
    """

    _sx: _KahanSum = field(default_factory=_KahanSum, repr=False)

    @property
    def sum_lambda_x(self) -> float:
        return self._sx.total


def ds_update(state: DsState, schedule: LambdaSchedule, x: float) -> DsState:
    """Fold one observation into the running sums.

    Rejects non-finite input, and input whose weighted sum would overflow,
    leaving the state unchanged.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite, got {x}")
    lam = schedule.at(state.n + 1)
    if not math.isfinite(state.sum_lambda_x + lam * x):
        raise ValueError(f"sum of lambda_i X_i overflows at observation {state.n + 1} ({x})")
    state.push(lam)
    state._sx.add(lam * x)
    return state


def ds_radius(cfg: DsConfig, sum_lambda: float, sum_lambda_p: float) -> float:
    """(a + b v_p sum lambda_i^p) / sum lambda_i."""
    return (ds_a(cfg) + cfg.b * cfg.v_p * sum_lambda_p) / sum_lambda


def ds_interval(state: DsState, cfg: DsConfig) -> ConfidenceInterval:
    """Weighted-mean centre +- the union-bound-certified radius."""
    if state.n == 0:
        raise ValueError("ds_interval requires at least one observation")
    center = state.sum_lambda_x / state.sum_lambda
    radius = ds_radius(cfg, state.sum_lambda, state.sum_lambda_p)
    return ConfidenceInterval(center - radius, center + radius)


def ds_optimal_schedule(cfg: DsConfig) -> LambdaSchedule:
    """The width-minimizing schedule lambda_t = (a/(t b v_p (p-1)))^(1/p)."""
    return ds_optimal(a=ds_a(cfg), b=cfg.b, v_p=cfg.v_p, p=cfg.p)


def ds_width(cfg: DsConfig, n: int, schedule: LambdaSchedule | None = None) -> float:
    """Deterministic interval width 2 (a + b v_p sum lam^p) / sum lam at n.

    Defaults to the width-optimal schedule; an explicit schedule may be
    passed to evaluate the same functional under other weights.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    schedule = ds_optimal_schedule(cfg) if schedule is None else schedule
    lam = schedule.head(n)
    return 2.0 * ds_radius(cfg, float(np.sum(lam)), float(np.sum(lam**cfg.p)))
