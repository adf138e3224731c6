"""Deterministic tuning sequences lambda_t and their running prefix sums.

A schedule is either the power law lambda_t = c * t^(-1/p) or an explicit
finite list.  Valid schedules must satisfy lambda_t -> 0 and
sum_t lambda_t^p = infinity; the power law meets both (its p-th powers sum
like the harmonic series), and the Dubins-Savage width-optimal weights are
one (`dubins_savage.ds_optimal_schedule`).  Prefix sums use compensated
(Kahan) summation: downstream interval widths divide by sum(lambda_i) at n
up to 10^6, where naive accumulation drifts past the 1e-12 agreement the
tests demand.
"""

from __future__ import annotations

import math
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
        """
        if start < 1:
            raise ValueError(f"schedule index must be >= 1, got {start}")
        if not self.values:
            return self.c * np.arange(start, stop + 1, dtype=np.float64) ** (-1.0 / self.p)
        if stop > len(self.values):
            raise ValueError(
                f"custom_list schedule has {len(self.values)} values, {stop} requested"
            )
        return np.asarray(self.values[start - 1 : stop], dtype=np.float64)


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


class _KahanSum:
    """Compensated scalar accumulator."""

    __slots__ = ("total", "_comp")

    def __init__(self):
        self.total = 0.0
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t


@dataclass
class PrefixSums:
    """Running sums of lambda_i and lambda_i^p over i <= n.

    A value owned and updated by a single writer; `push` appends the next
    lambda value in O(1).
    """

    p: float
    n: int = field(default=0, init=False)
    _s1: _KahanSum = field(default_factory=_KahanSum, init=False, repr=False)
    _sp: _KahanSum = field(default_factory=_KahanSum, init=False, repr=False)

    @property
    def sum_lambda(self) -> float:
        return self._s1.total

    @property
    def sum_lambda_p(self) -> float:
        return self._sp.total

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
        try:
            lam_p = lam**self.p
        except OverflowError:
            lam_p = math.inf
        if not (math.isfinite(self.sum_lambda + lam) and math.isfinite(self.sum_lambda_p + lam_p)):
            raise ValueError(f"sums of lambda_i and lambda_i^p overflow at lambda = {lam}")
        self.n += 1
        self._s1.add(lam)
        self._sp.add(lam_p)
