"""Deterministic tuning sequences lambda_t and their running prefix sums.

A schedule is either the power law lambda_t = c * t^(-1/p) or an explicit
finite list.  Valid schedules must satisfy lambda_t -> 0 and
sum_t lambda_t^p = infinity; the power law meets both (its p-th powers sum
like the harmonic series), and the Dubins-Savage width-optimal weights are
one (`dubins_savage.ds_optimal_schedule`).  Prefix sums are exact: every
finite float is an integer over a power of two, so a running sum is one
integer over a power of two, and a streaming interval rounds once, at the
query, instead of once per observation.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LambdaSchedule:
    """A positive deterministic sequence lambda_1, lambda_2, ...

    With `values` empty it is the power law lambda_t = c * t^(-1/p);
    otherwise it is that explicit finite list (c and p unused).  Build one
    with `power_law` or `custom_list`, which check the parameters.
    """

    c: float = 1.0
    p: float = 2.0
    values: tuple[float, ...] = ()

    def at(self, t: int) -> float:
        """lambda_t for t >= 1: element t of span, so streaming and batch weights agree bit for bit."""
        return float(self.span(t, t)[0])

    def head(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n as a float64 array."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self.span(1, n)

    def span(self, start: int, stop: int) -> np.ndarray:
        """lambda_start .. lambda_stop (inclusive) as a float64 array; empty when stop < start.

        Each value is computed from its own index, so a late window costs
        O(stop - start) and equals the same slice of head(stop) bit for bit.
        TypeError on a non-integer index (numpy integers pass).
        """
        start, stop = operator.index(start), operator.index(stop)
        if start < 1:
            raise ValueError(f"schedule index must be >= 1, got {start}")
        if not self.values:
            return self.c * np.arange(start, stop + 1, dtype=np.float64) ** (-1.0 / self.p)
        if stop > len(self.values):
            raise ValueError(
                f"custom_list schedule has {len(self.values)} values, {stop} requested"
            )
        return np.asarray(self.values[start - 1 : stop], dtype=np.float64)


def cumulative_sums(lam: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{i<=n} lambda_i, cumulative_powers(lam, p)) for n = 1..lam.size; batch bands, bounds and floors index these."""
    return np.cumsum(lam), cumulative_powers(lam, p)


def cumulative_powers(lam: np.ndarray, p: float) -> np.ndarray:
    """sum lambda_i^p over i <= n, for n = 1..lam.size, in lambda^p's buffer: the one batch sum lambda_i^p."""
    lam_p = lam**p
    return np.cumsum(lam_p, out=lam_p)


def power_law(c: float = 1.0, p: float = 2.0) -> LambdaSchedule:
    if not 0.0 < c < math.inf:
        raise ValueError(f"scale c must be positive and finite, got {c}")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return LambdaSchedule(c=c, p=p)


def custom_list(values) -> LambdaSchedule:
    vals = tuple(float(v) for v in values)
    if not vals or not all(0.0 < v < math.inf for v in vals):
        raise ValueError("custom_list schedule needs a nonempty list of positive finite values")
    return LambdaSchedule(values=vals)


#: The largest float as an integer: a sum above it has no finite float.
_MAX = int(sys.float_info.max)


class _ExactSum:
    """An exact running sum of floats (or their products): the integer num over 2**shift.

    The shift grows only when a term with a finer power of two arrives.
    """

    __slots__ = ("num", "shift")

    def __init__(self):
        self.num = 0
        self.shift = 0

    def add(self, m: int, d: int) -> None:
        """Add m / d, for d a power of two (as float.as_integer_ratio gives)."""
        k = d.bit_length() - 1
        if k > self.shift:
            self.num <<= k - self.shift
            self.shift = k
        self.num += m << (self.shift - k)

    def finite(self) -> bool:
        """Whether a sum of positive terms is at most the largest float; an integer test, no float conversion."""
        return self.num.bit_length() - self.shift <= 1023 or self.num <= _MAX << self.shift

    def nearest(self) -> float:
        """The sum correctly rounded (+-inf beyond the float range)."""
        try:
            return self.num / (1 << self.shift)  # int / int: correctly rounded
        except OverflowError:
            return math.inf if self.num > 0 else -math.inf


def _ratio_up(num: int, den: int) -> float:
    """The smallest float >= num / den, for den > 0 (inf above the float range)."""
    try:
        q = num / den  # int / int: correctly rounded
    except OverflowError:
        return math.inf if num > 0 else -sys.float_info.max
    e, f = q.as_integer_ratio()
    return math.nextafter(q, math.inf) if e * den < num * f else q  # q < num/den, as den, f > 0


@dataclass
class PrefixSums:
    """Running sums of lambda_i and lambda_i^p over i <= n.

    A value owned and updated by a single writer; `push` appends the next
    lambda value in O(1).  Sum lambda_i is exact.  Sum lambda_i^p is exact
    at p = 2 and otherwise sums nextafter(lambda_i**p, inf), which is at
    least lambda_i^p as the float pow errs by under an ulp.
    """

    p: float
    n: int = field(default=0, init=False)
    _s1: _ExactSum = field(default_factory=_ExactSum, init=False, repr=False)
    _sp: _ExactSum = field(default_factory=_ExactSum, init=False, repr=False)

    @property
    def sum_lambda(self) -> float:
        """Sum lambda_i, correctly rounded."""
        return self._s1.nearest()

    @property
    def sum_lambda_p(self) -> float:
        """The smallest float >= the kept sum of lambda_i^p: never below the true sum."""
        return _ratio_up(self._sp.num, 1 << self._sp.shift)

    def check_query(self, p: float, name: str) -> None:
        """ValueError unless a lambda was pushed and the sums take lambda^p at p; `name` is the querying function."""
        if self.n == 0:
            raise ValueError(f"{name} requires at least one observation")
        if self.p != p:
            raise ValueError(f"state sums lambda^p at p = {self.p}, config has p = {p}")

    def push(self, lam: float) -> None:
        """Append an explicit lambda value.

        Rejects a value that is not positive and finite, or whose sums
        would overflow, leaving the sums unchanged.
        """
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda values must be positive and finite, got {lam}")
        m, d = lam.as_integer_ratio()
        if self.p == 2.0:
            m_p, d_p = m * m, d * d
        else:
            try:
                m_p, d_p = math.nextafter(lam**self.p, math.inf).as_integer_ratio()
            except OverflowError:  # lambda**p, or the float above it, is past the float range
                m_p, d_p = 1 << 1024, 1
        self._s1.add(m, d)
        self._sp.add(m_p, d_p)
        if not (self._s1.finite() and self._sp.finite()):
            self._s1.add(-m, d)
            self._sp.add(-m_p, d_p)
            raise ValueError(f"sums of lambda_i and lambda_i^p overflow at lambda = {lam}")
        self.n += 1
