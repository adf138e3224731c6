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
import sys
from dataclasses import dataclass, field

import numpy as np

from .interval import ConfidenceInterval
from .schedules import LambdaSchedule, PrefixSums, _KahanSum, power_law


#: The smallest positive normal float and the log of the largest float;
#: `_normal` tells that no step of a computation overflowed or underflowed.
_TINY, _LOG_MAX = sys.float_info.min, math.log(sys.float_info.max)


def _normal(*xs: float) -> bool:
    return all(_TINY <= x < math.inf for x in xs)


def _log_m_p(p: float) -> float:
    return math.log((p - 1.0) / 2.0 ** (2.0 - p)) / (p - 1.0)


def m_p(p: float) -> float:
    """m_p = ((p-1) / 2^(2-p))^(1/(p-1)) on (1, 2]; -> 0 as p -> 1, ValueError where it underflows (p < 1.00782)."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    m = ((p - 1.0) / 2.0 ** (2.0 - p)) ** (1.0 / (p - 1.0))
    if not _normal(m):
        raise ValueError(f"m_p underflows at p = {p}")
    return m


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
        if not 0.0 < self.v_p < math.inf:
            raise ValueError(f"v_p must be positive and finite, got {self.v_p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"b must be positive and finite, got {self.b}")


def ds_a(cfg: DsConfig) -> float:
    """a = (1 / (m_p b^(1/(p-1)))) ((2/alpha)^(1/(p-1)) - 1).

    Chosen so the one-sided tail bound equals alpha/2; positive and
    decreasing in alpha, growing like alpha^(-1/(p-1)).  Evaluated in logs
    where the direct form over- or underflows (near p = 1).  ValueError
    where a is not a positive normal float.
    """
    q = 1.0 / (cfg.p - 1.0)
    try:
        mb = m_p(cfg.p) * cfg.b**q
        a = ((2.0 / cfg.alpha) ** q - 1.0) / mb
    except (OverflowError, ValueError, ZeroDivisionError):
        mb = a = math.nan
    if not _normal(mb, a):
        log_r = q * math.log(2.0 / cfg.alpha)
        log_a = log_r + math.log1p(-math.exp(-log_r)) - _log_m_p(cfg.p) - q * math.log(cfg.b)
        a = math.exp(log_a) if log_a <= _LOG_MAX else math.inf
    if not _normal(a):
        raise ValueError(f"a is not a positive normal float at p = {cfg.p}, alpha = {cfg.alpha}, b = {cfg.b}")
    return a


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
    """Weighted-mean centre +- the union-bound-certified radius.

    Rounds outward: where the float centre - radius (centre + radius)
    rounded inward, cutting into the radius, that endpoint moves one float
    down (up), so the interval always contains [centre - radius,
    centre + radius] in exact arithmetic.  Raises ValueError on an empty
    state, or on one that sums lambda_i^p at another p than the config's.
    """
    if state.n == 0:
        raise ValueError("ds_interval requires at least one observation")
    if state.p != cfg.p:
        raise ValueError(f"state sums lambda^p at p = {state.p}, config has p = {cfg.p}")
    center = state.sum_lambda_x / state.sum_lambda
    radius = ds_radius(cfg, state.sum_lambda, state.sum_lambda_p)
    lower, upper = center - radius, center + radius
    # fsum is correctly rounded, so its sign is the sign of the exact rounding error.
    if math.fsum((center, -radius, -lower)) < 0.0:
        lower = math.nextafter(lower, -math.inf)
    if math.fsum((center, radius, -upper)) > 0.0:
        upper = math.nextafter(upper, math.inf)
    return ConfidenceInterval(lower, upper)


def ds_optimal_schedule(cfg: DsConfig) -> LambdaSchedule:
    """The width-minimizing schedule lambda_t = (a/(t b v_p (p-1)))^(1/p).

    That is the power law c t^(-1/p) with c = (a/(b v_p (p-1)))^(1/p).
    """
    return power_law((ds_a(cfg) / (cfg.b * cfg.v_p * (cfg.p - 1.0))) ** (1.0 / cfg.p), cfg.p)


def ds_width(cfg: DsConfig, n: int) -> float:
    """Deterministic interval width 2 (a + b v_p sum lam^p) / sum lam at n, under ds_optimal_schedule."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = ds_optimal_schedule(cfg).head(n)
    return 2.0 * ds_radius(cfg, float(np.sum(lam)), float(np.sum(lam**cfg.p)))
