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

a is formed in one place, `_radius_terms`: exactly at p = 2, and as a
`decimal` upper bound elsewhere.  `ds_a` is the smallest float at or
above it, so the batch thresholds, widths and weights and the streaming
interval all read one a, never below the exact one.

The per-time width minimizer of b v_p lam^(p-1) + a/(t lam) is
lambda_t = (a / (t b v_p (p-1)))^(1/p); with it the radius shrinks at the
rate O(log t / t^((p-1)/p)) with an O(alpha^(-1/p)) confidence dependence.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .interval import ConfidenceInterval
from .schedules import LambdaSchedule, PrefixSums, _ExactSum, _ratio_up, checkpoint_sums, power_law


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


def _a_upper(cfg: DsConfig) -> Decimal:
    """At least min(a, e^710), for the exact a of cfg's floats; within about 10^-30 of a, relative, if |ln a| <= 710.

    With d = p - 1, q = 1/d, L = q ln(2/alpha) >= ln 2 and
    N = ln(2/alpha) - ln d + (2 - p) ln 2 - ln b, ln a = N / d + ln(1 - e^-L).
    d and 2 - p are exact floats and a Decimal holds a float exactly, so
    only the decimal operations round, each within e = 5 10^-P of its
    result (ln and exp are correctly rounded).  Logs of floats are at most
    745 in size, so N errs by under 10^4 e, N / d by under q 10^4 e + 746 e
    and ln(1 - e^-L) by under q 746 e + 7 e (e^-L <= 1/2, L e^-L <= 1/e).
    P = 40 + floor(log10 q) keeps q e under 5 10^-38, so ln a errs by under
    10^-33 and the result, raised by 10^-30 of itself, is at least a.
    ln a is clamped to [-710, 710] before exp: beyond it a has no normal
    float, nor has the clamped result, and an exponent in the thousands
    would only cost a long Fraction (or a decimal Overflow).
    """
    p, d = cfg.p, Decimal(cfg.p - 1.0)
    with localcontext(Context(prec=40 + math.floor(math.log10(1.0 / (p - 1.0))))):
        ln_two_over_alpha = (2 / Decimal(cfg.alpha)).ln()
        numerator = ln_two_over_alpha - d.ln() + Decimal(2.0 - p) * Decimal(2).ln() - Decimal(cfg.b).ln()
        log_a = numerator / d + (1 - (-ln_two_over_alpha / d).exp()).ln()
        return min(max(log_a, Decimal(-710)), Decimal(710)).exp() * (1 + Decimal("1e-30"))


@functools.lru_cache(maxsize=256)
def _radius_terms(cfg: DsConfig) -> tuple[int, int, int]:
    """Integers (A, B, D) with A/D >= a, for the exact a of cfg's floats, and B/D = b v_p exactly.

    At p = 2, where m_p = 1 and a = (2/alpha - 1)/b is rational, A/D is a
    itself; elsewhere it is _a_upper.  The only place a is formed: ValueError
    where the smallest float >= A/D is not a positive normal float.  Cached,
    so a stream of queries pays once.
    """
    if cfg.p == 2.0:
        a = (2 / Fraction(cfg.alpha) - 1) / Fraction(cfg.b)
    else:
        a = Fraction(_a_upper(cfg))
    if not sys.float_info.min <= _ratio_up(a.numerator, a.denominator) < math.inf:
        raise ValueError(f"a is not a positive normal float at p = {cfg.p}, alpha = {cfg.alpha}, b = {cfg.b}")
    bv = Fraction(cfg.b) * Fraction(cfg.v_p)
    return a.numerator * bv.denominator, bv.numerator * a.denominator, a.denominator * bv.denominator


def ds_a(cfg: DsConfig) -> float:
    """a = (1 / (m_p b^(1/(p-1)))) ((2/alpha)^(1/(p-1)) - 1), as the smallest float at or above _radius_terms' bound.

    Chosen so the one-sided tail bound equals alpha/2; positive and
    decreasing in alpha, growing like alpha^(-1/(p-1)).  Never below the
    exact a, and above it by at most an ulp (plus the bound's 10^-30 of a);
    the same a the streaming interval reads.  ValueError where a is not a
    positive normal float.
    """
    a_num, _, den = _radius_terms(cfg)
    return _ratio_up(a_num, den)


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
    """Deterministic interval width 2 (a + b v_p sum lam^p) / sum lam at n, under ds_optimal_schedule.

    The sums are checkpoint_sums' at n, read in chunks as in `harness.run_width`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cum_lam, cum_lam_p = checkpoint_sums(ds_optimal_schedule(cfg).span, cfg.p, [n])
    return float(2.0 * ds_radius(cfg, cum_lam[0], cum_lam_p[0]))
