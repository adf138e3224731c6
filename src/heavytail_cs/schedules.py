"""Deterministic tuning sequences lambda_t and their running prefix sums.

Valid schedules must satisfy lambda_t -> 0 and sum_t lambda_t^p = infinity;
the power-law family lambda_t = c * t^(-1/p) meets both (its p-th powers
sum like the harmonic series).  Prefix sums use compensated (Kahan)
summation: downstream interval widths divide by sum(lambda_i) at n up to
10^6, where naive accumulation drifts past the 1e-12 agreement the tests
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POWER_LAW = "power_law"
DS_OPTIMAL = "ds_optimal"
CUSTOM_LIST = "custom_list"


@dataclass(frozen=True)
class LambdaSchedule:
    """A positive deterministic sequence lambda_1, lambda_2, ...

    kind:
      power_law   -- lambda_t = c * t^(-1/p)
      ds_optimal  -- lambda_t = (a / (t * b * v_p * (p-1)))^(1/p), the
                     per-time width minimizer of b*v_p*lam^(p-1) + a/(t*lam)
      custom_list -- explicit finite list of positive values
    """

    kind: str
    p: float = 2.0
    c: float = 1.0
    a: float = 0.0
    b: float = 0.0
    v_p: float = 0.0
    values: tuple[float, ...] = ()

    def at(self, t: int) -> float:
        """lambda_t for t >= 1."""
        if t < 1:
            raise ValueError(f"schedule index must be >= 1, got {t}")
        if self.kind != CUSTOM_LIST:
            return self._closed_form(float(t))
        if t > len(self.values):
            raise ValueError(
                f"custom_list schedule has {len(self.values)} values, index {t} requested"
            )
        return self.values[t - 1]

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
        if self.kind != CUSTOM_LIST:
            return self._closed_form(np.arange(start, stop + 1, dtype=np.float64))
        if stop > len(self.values):
            raise ValueError(
                f"custom_list schedule has {len(self.values)} values, {stop} requested"
            )
        return np.asarray(self.values[start - 1 : stop], dtype=np.float64)

    def _closed_form(self, t):
        """lambda_t of a power_law or ds_optimal schedule, t a float or float64 array."""
        if self.kind == POWER_LAW:
            return self.c * t ** (-1.0 / self.p)
        return (self.a / (t * self.b * self.v_p * (self.p - 1.0))) ** (1.0 / self.p)


def power_law(c: float = 1.0, p: float = 2.0) -> LambdaSchedule:
    if c <= 0.0:
        raise ValueError(f"scale c must be positive, got {c}")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return LambdaSchedule(kind=POWER_LAW, p=p, c=c)


def ds_optimal(a: float, b: float, v_p: float, p: float) -> LambdaSchedule:
    if min(a, b, v_p) <= 0.0:
        raise ValueError(f"a, b, v_p must be positive, got a={a}, b={b}, v_p={v_p}")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return LambdaSchedule(kind=DS_OPTIMAL, p=p, a=a, b=b, v_p=v_p)


def custom_list(values, p: float = 2.0) -> LambdaSchedule:
    vals = tuple(float(v) for v in values)
    if not vals or any(v <= 0.0 for v in vals):
        raise ValueError("custom_list schedule needs a nonempty list of positive values")
    return LambdaSchedule(kind=CUSTOM_LIST, p=p, values=vals)


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
    n: int = 0
    _s1: _KahanSum = field(default_factory=_KahanSum, repr=False)
    _sp: _KahanSum = field(default_factory=_KahanSum, repr=False)

    @property
    def sum_lambda(self) -> float:
        return self._s1.total

    @property
    def sum_lambda_p(self) -> float:
        return self._sp.total

    def push(self, lam: float) -> None:
        """Append an explicit lambda value."""
        if lam <= 0.0:
            raise ValueError(f"lambda values must be positive, got {lam}")
        self.n += 1
        self._s1.add(lam)
        self._sp.add(lam**self.p)
