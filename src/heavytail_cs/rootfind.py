"""Scalar root finding for strictly monotone functions.

Bracket expansion by geometric doubling around an initial guess interval,
followed by plain bisection.  Bisection is preferred over faster schemes
because every caller in this package has a strictly monotone objective and
wants a hard guarantee of termination with a sign-change bracket.
"""

from __future__ import annotations

import math
from typing import Callable


class BracketError(RuntimeError):
    """No sign change within the allowed doublings, nor out to +-inf."""


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
    doubles the interval radius.  When `max_doublings` expansions find no
    sign change, the root lies beyond them, possibly beyond the float
    range: the bracket becomes [-inf, lo] or [hi, inf], whichever f changes
    sign across, and bisecting it returns that infinite end, an outward
    answer.  Raises BracketError when neither does, and ValueError when f
    is NaN.
    """
    if not lo < hi:
        raise ValueError(f"invalid initial bracket [{lo}, {hi}]")
    flo = _value(f, lo)
    fhi = _value(f, hi)
    width = hi - lo
    for _ in range(max_doublings):
        if _brackets(flo, fhi):
            return lo, hi, flo, fhi
        lo -= width
        hi += width
        width = hi - lo
        flo = _value(f, lo)
        fhi = _value(f, hi)
    # The last expansion is still unchecked; after it, try each infinite end.
    f_ninf, f_pinf = _value(f, -math.inf), _value(f, math.inf)
    for a, b, fa, fb in ((lo, hi, flo, fhi), (-math.inf, lo, f_ninf, flo), (hi, math.inf, fhi, f_pinf)):
        if _brackets(fa, fb):
            return a, b, fa, fb
    raise BracketError(
        f"no sign change in [{lo}, {hi}] after {max_doublings} doublings: "
        f"f(lo)={flo}, f(hi)={fhi}"
    )


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


def solve_monotone(
    f: Callable[[float], float],
    guess_lo: float,
    guess_hi: float,
    xtol: float,
    max_doublings: int = 200,
) -> float:
    """Expand a guess interval to a bracket, then bisect to `xtol`."""
    lo, hi, flo, fhi = expand_bracket(f, guess_lo, guess_hi, max_doublings)
    return bisect(f, lo, hi, xtol, flo, fhi)
