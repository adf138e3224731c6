"""Scalar root finding for strictly monotone functions in a proven bracket.

`solve_monotone` is the package's root solver: safeguarded Newton on an
objective that returns its value and slope, inside a bracket the caller has
proved to hold the root.  It narrows the bracket at every evaluation, splits
it whenever a Newton step cannot be trusted, so it terminates like
bisection, and returns its final bracket, whose ends the caller picks from.
`expand_bracket` and `bisect` are the plain value-only methods; they remain
as the slow reference the solver is tested against.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

#: certify(x, f(x), f'(x), radius) -> a bracket [a, b] of half-width radius (up to
#: the rounding of its ends) proved to hold the root, or None; see solve_monotone.
Certifier = Callable[[float, float, float, float], tuple[float, float] | None]
#: The sign bit of a float64's bit pattern.
_SIGN = 1 << 63


def _value(f: Callable[[float], float], x: float) -> float:
    """f(x), rejecting NaN; +-inf count as signed values."""
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"objective is NaN at x = {x}")
    return fx


def _brackets(fa: float, fb: float) -> bool:
    return fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0)


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    max_doublings: int = 200,
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] symmetrically until f changes sign across it.

    Returns (lo, hi, f(lo), f(hi)) with f(lo) * f(hi) <= 0.  Each step
    doubles the interval radius.  Raises ValueError when `max_doublings`
    expansions find no sign change, or when f is NaN.
    """
    if not lo < hi:
        raise ValueError(f"invalid initial bracket [{lo}, {hi}]")
    flo, fhi = _value(f, lo), _value(f, hi)
    for _ in range(max_doublings):
        if _brackets(flo, fhi):
            break
        lo, hi = lo - (hi - lo), hi + (hi - lo)
        flo, fhi = _value(f, lo), _value(f, hi)
    if not _brackets(flo, fhi):
        raise ValueError(f"no sign change in [{lo}, {hi}] after {max_doublings} doublings: f(lo)={flo}, f(hi)={fhi}")
    return lo, hi, flo, fhi


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float,
    flo: float | None = None,
    fhi: float | None = None,
    max_iter: int = 200,
) -> float:
    """Bisect a sign-change bracket down to absolute width `xtol`.

    `flo`/`fhi` may be passed to reuse endpoint evaluations from
    expand_bracket.  Stops early if the midpoint stops moving in floating
    point, as it does at once on an infinite end.  Returns the bracket
    midpoint.  Raises ValueError when f is NaN.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    flo = _value(f, lo) if flo is None else flo
    fhi = _value(f, hi) if fhi is None else fhi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change: f({lo})={flo}, f({hi})={fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid <= lo or mid >= hi:
            break
        fmid = _value(f, mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _ordinal(x: float) -> int:
    """x's rank among the floats: adjacent floats differ by 1, and +-0.0 give 0."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return -(bits ^ _SIGN) if bits & _SIGN else bits


def _split(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi], or of its ends' ordinals where hi - lo is not finite (64 splits at most)."""
    if math.isfinite(hi - lo):
        return 0.5 * lo + 0.5 * hi
    k = (_ordinal(lo) + _ordinal(hi)) // 2
    return struct.unpack("<d", struct.pack("<Q", -k | _SIGN if k < 0 else k))[0]


def solve_monotone(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    x: float,
    xtol: float,
    fx: tuple[float, float] | None = None,
    certify: Certifier | None = None,
) -> tuple[float, float]:
    """The final bracket of the root of a strictly decreasing f, by safeguarded Newton in a proven one.

    The caller proves f(lo) >= 0 >= f(hi); the ends are never evaluated and
    may be +-inf.  f returns (f(x), f'(x)), and `fx` may pass that pair at
    the start x, which is clamped into [lo, hi] (_split(lo, hi) if x is not
    finite).  Each evaluation moves lo (f > 0) or hi (f < 0) to the iterate.
    Each step is a Newton step from the latest iterate, unless that step is
    not finite, leaves the bracket, or is longer than half the step before
    last; then _split splits the bracket.  A Newton step shorter than xtol/4
    is lengthened by xtol/4, so it lands just past the root and closes the
    bracket.

    `certify`, when given, is asked at every iterate, with x and its
    (fx, dfx), for a bracket [a, b] of half-width xtol/4 around the Newton
    point x - fx/dfx that it proves holds the root (for example from a
    bound on f's Taylor remainder).  A proved bracket ends the solve
    without evaluating f at its ends; None lets the loop go on unchanged.

    Returns the proved bracket, else the first one no wider than `xtol` or
    with adjacent ends ((x, x) where f(x) == 0); the caller takes the end on
    the side it needs.  Raises ValueError when f is NaN.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    start = min(max(x, lo), hi) if math.isfinite(x) else _split(lo, hi)
    if start != x:
        x, fx = start, None
    fx, dfx = f(x) if fx is None else fx
    prev = prev2 = math.inf  # lengths of the last two steps
    while True:
        if math.isnan(fx):
            raise ValueError(f"objective is NaN at x = {x}")
        if fx == 0.0:
            return x, x
        lo, hi = (x, hi) if fx > 0.0 else (lo, x)
        mid = _split(lo, hi)
        if hi - lo <= xtol or not lo < mid < hi:
            return lo, hi
        proved = certify(x, fx, dfx, 0.25 * xtol) if certify is not None else None
        if proved is not None:
            return proved
        step = -fx / dfx if dfx < 0.0 else math.nan
        if abs(step) < 0.25 * xtol:
            step = math.copysign(abs(step) + 0.25 * xtol, fx)
        nxt = x + step
        if not (lo < nxt < hi and abs(step) <= 0.5 * prev2):
            nxt = mid
        prev2, prev = prev, abs(nxt - x)
        x = nxt
        fx, dfx = f(x)
