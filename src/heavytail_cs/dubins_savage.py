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

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .interval import ConfidenceInterval
from .schedules import LambdaSchedule, PrefixSums, _ExactSum, _ratio_up, power_law


#: The smallest positive normal float and the log of the largest float;
#: `_normal` tells that no step of a computation overflowed or underflowed.
_TINY, _LOG_MAX = sys.float_info.min, math.log(sys.float_info.max)
#: The unit roundoff.
_U = 2.0**-53
#: A factor just above 1 for the terms in u^2 and the rounding of the error bounds' own evaluation.
_SAFE = 1.0 + 2.0**-20


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
    return _ds_a_rounded(cfg)[0]


def _ds_a_rounded(cfg: DsConfig) -> tuple[float, float]:
    """(ds_a's float a, e) with |ln(float a) - ln a| <= e for the exact a of cfg's floats.

    With u = 2^-53, each pow, log and exp errs by under an ulp (2u), each
    other operation by u, and the rounded q = 1/(p-1) moves x^q by u |ln x^q|.
    Write L = ln R = q ln(2/alpha), Lm = |ln m_p| and Lb = |ln b^q|.

    Direct form, a = (R - 1) / (m_p b^q):
      m_p: 3u in its base, raised to q, u Lm from q, 2u the pow: u (3q + Lm + 2);
      b^q: u (Lb + 2);  R: u (q + L + 2), at most doubled by R - 1 as R > 2, plus u;
      the product and the quotient: 2u;  in all u (5q + 2L + Lm + Lb + 11).
    Log form, ln a = L + log1p(-e^-L) - ln m_p - ln b^q:
      L: u q from 2/alpha, 2u L the log, u L from q, u L the product: u (q + 4L),
        counted twice, as L + log1p(-e^-L) = ln(R - 1) moves by R/(R - 1) <= 2 times it;
      the exp and log1p: 2u each (e^-L <= 1/2, so |log1p| <= ln 2);
      ln m_p = ln((p-1)/2^(2-p))/(p-1): 3u q from the base, 3u Lm the log and the quotient;
      ln b^q: 4u Lb;  the three sums: u (L + 1 + Lm + Lb) each;  the final exp: 2u;
      in all u (11L + 5q + 6Lm + 7Lb + 9).
    Each bound takes one more u for the terms in u^2.
    """
    q = 1.0 / (cfg.p - 1.0)
    try:
        mb = m_p(cfg.p) * cfg.b**q
        big_r = (2.0 / cfg.alpha) ** q
        a = (big_r - 1.0) / mb
    except (OverflowError, ValueError, ZeroDivisionError):
        mb = a = math.nan
    log_m, log_bq = _log_m_p(cfg.p), q * math.log(cfg.b)
    if _normal(mb, a):
        return a, _U * (5.0 * q + 2.0 * math.log(big_r) + abs(log_m) + abs(log_bq) + 12.0)
    log_r = q * math.log(2.0 / cfg.alpha)
    log_a = log_r + math.log1p(-math.exp(-log_r)) - log_m - log_bq
    a = math.exp(log_a) if log_a <= _LOG_MAX else math.inf
    if not _normal(a):
        raise ValueError(f"a is not a positive normal float at p = {cfg.p}, alpha = {cfg.alpha}, b = {cfg.b}")
    return a, _U * (11.0 * log_r + 5.0 * q + 6.0 * abs(log_m) + 7.0 * abs(log_bq) + 10.0)


@functools.lru_cache(maxsize=256)
def _radius_terms(cfg: DsConfig) -> tuple[int, int, int]:
    """Integers (A, B, D) with A/D >= a, for the exact a of cfg's floats, and B/D = b v_p exactly.

    At p = 2, where m_p = 1 and a = (2/alpha - 1)/b is rational, A/D is a
    itself.  Elsewhere it is ds_a's float times 1 + 2e, which is at least
    e^e for e <= 1.  Cached, so a stream of queries pays once.
    """
    if cfg.p == 2.0:
        a = (2 / Fraction(cfg.alpha) - 1) / Fraction(cfg.b)
    else:
        a_float, e = _ds_a_rounded(cfg)
        a = Fraction(a_float) * (1 + Fraction(2.0 * e * _SAFE))
    bv = Fraction(cfg.b) * Fraction(cfg.v_p)
    return a.numerator * bv.denominator, bv.numerator * a.denominator, a.denominator * bv.denominator


@dataclass
class DsState(PrefixSums):
    """PrefixSums' sum(lambda_i) and sum(lambda_i^p), plus the exact sum(lambda_i X_i).

    Unlike the Catoni state this is a finite sufficient statistic, so no
    observations are retained.  Works with any positive schedule; pass the
    schedule whose weights should be applied at each update.
    """

    _sx: _ExactSum = field(default_factory=_ExactSum, init=False, repr=False)

    @property
    def sum_lambda_x(self) -> float:
        """Sum lambda_i X_i, correctly rounded (+-inf beyond the float range)."""
        return self._sx.nearest()


def ds_update(state: DsState, schedule: LambdaSchedule, x: float) -> DsState:
    """Fold one observation into the running sums.  Rejects non-finite input, leaving the state unchanged."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite, got {x}")
    lam = schedule.at(state.n + 1)
    state.push(lam)
    (m, d), (mx, dx) = lam.as_integer_ratio(), x.as_integer_ratio()
    state._sx.add(m * mx, d * dx)
    return state


def ds_radius(cfg: DsConfig, sum_lambda: float, sum_lambda_p: float) -> float:
    """(a + b v_p sum lambda_i^p) / sum lambda_i."""
    return (ds_a(cfg) + cfg.b * cfg.v_p * sum_lambda_p) / sum_lambda


def ds_interval(state: DsState, cfg: DsConfig) -> ConfidenceInterval:
    """Weighted-mean centre +- the union-bound-certified radius, rounded outward.

    With X = sum lambda_i X_i, S = sum lambda_i and N = a + b v_p sum
    lambda_i^p, the ends are (X - N)/S and (X + N)/S.  X and S are the
    state's exact sums and N is formed exactly from its upper bound on
    sum lambda_i^p and an upper bound on a (a itself at p = 2), so each end
    is one ratio of integers, rounded outward once.  The interval thus
    contains the exact [c - r, c + r] of the pushed float lambda_i and X_i
    and the exact a.
    Raises ValueError on an empty state or one summing lambda_i^p at another p.
    """
    state.check_query(cfg.p, "ds_interval")
    a_num, bv_num, den = _radius_terms(cfg)
    sx, s1, sp = state._sx, state._s1, state._sp
    k = max(sx.shift, s1.shift, sp.shift)  # each sum as an integer over 2**k
    x = (sx.num << (k - sx.shift)) * den
    n = (a_num << k) + bv_num * (sp.num << (k - sp.shift))
    s = (s1.num << (k - s1.shift)) * den
    return ConfidenceInterval(-_ratio_up(n - x, s), _ratio_up(x + n, s))


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
