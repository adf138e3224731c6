"""Scalar root finding for strictly monotone functions.

`solve_monotone` is the package's root solver: safeguarded Newton on an
objective that returns its value and slope.  It keeps a sign-change bracket
at all times and falls back to bisection (or, while one side is still open,
to geometric growth of the bracket) whenever a Newton step cannot be
trusted, so it terminates like bisection and stops only on a certified
bracket: one whose ends it evaluated, or one an optional certifier proves
from the latest value and slope.  `expand_bracket` and `bisect` are the plain value-only methods;
they remain as the slow reference the solver is tested against.
"""

from __future__ import annotations

import math
from typing import Callable


class BracketError(RuntimeError):
    """No sign change within the allowed doublings, nor out to +-inf."""


#: certify(x, f(x), f'(x), radius) -> a bracket [a, b] of half-width radius
#: (up to the rounding of its ends) proved to hold the root, or None; see
#: solve_monotone.
Certifier = Callable[[float, float, float, float], tuple[float, float] | None]
#: Open-side fallback steps after which solve_monotone probes that side's infinite end.
_MAX_DOUBLINGS = 200


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
    f: Callable[[float], tuple[float, float]],
    x: float,
    xtol: float,
    fx: tuple[float, float] | None = None,
    certify: Certifier | None = None,
) -> float:
    """Root of a strictly decreasing f to within `xtol`, by safeguarded Newton.

    f returns the pair (f(x), f'(x)); `fx` may pass that pair at the start
    `x` to reuse an evaluation.  The iterate always ends a bracket
    [lo, hi] with f(lo) > 0 > f(hi).  Each step is a Newton step from the
    latest iterate, unless that step is not finite, leaves the bracket, or
    is longer than half the step before last; then it bisects instead.
    While one side of the bracket is still open, the fallback step doubles
    the distance from the start, as in expand_bracket; after
    _MAX_DOUBLINGS steps on an open side, the next probe is that side's
    infinite end.  A Newton step shorter than xtol/4 is lengthened by
    xtol/4, so it lands just past the root and closes the bracket.

    `certify`, when given, is asked at every iterate, with x and its
    (fx, dfx), for a bracket [a, b] of half-width xtol/4 around the Newton
    point x - fx/dfx that it proves holds the root (for example from a
    bound on f's Taylor remainder).  A proved bracket ends the solve
    without evaluating f at its ends; None lets the loop go on unchanged.

    Returns the midpoint of the first bracket no wider than `xtol` (or of
    one whose ends are adjacent floats), so the root lies within xtol/2 of
    the answer.  f is taken to be finite at every finite x, so an infinite
    value there is an overflow of its computation and its sign is not
    trusted: when it turns up on an open side, the answer is that side's
    infinite end.  A root beyond the float range also comes back as +-inf.
    Raises ValueError when f is NaN or overflows at the start, and
    BracketError when f does not change sign out to +-inf.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    x0 = x
    fx, dfx = f(x) if fx is None else fx
    lo, hi = -math.inf, math.inf
    lo_open = hi_open = True
    reach, doublings = 1.0, 0
    prev = prev2 = math.inf  # lengths of the last two steps
    while True:
        if math.isnan(fx):
            raise ValueError(f"objective is NaN at x = {x}")
        if fx == 0.0:
            return x
        if math.isinf(fx) and math.isfinite(x) and (lo_open or hi_open):
            # f is finite at every finite x, so this value is an overflow and
            # its sign proves nothing: the root may lie anywhere beyond.
            if lo_open and hi_open:
                raise ValueError(f"objective overflows at the start x = {x}")
            return -math.inf if lo_open else math.inf
        if fx > 0.0:
            lo, lo_open = x, False
        else:
            hi, hi_open = x, False
        if not (lo_open or hi_open):
            mid = 0.5 * lo + 0.5 * hi
            if hi - lo <= xtol or not lo < mid < hi:
                return mid
        elif math.isinf(x):
            raise BracketError(f"no sign change out to x = {x}: f = {fx}")
        proved = certify(x, fx, dfx, 0.25 * xtol) if certify is not None else None
        if proved is not None:
            lo, hi = proved
            return 0.5 * lo + 0.5 * hi
        toward = 1.0 if fx > 0.0 else -1.0  # the side of x the root is on
        step = -fx / dfx if dfx < 0.0 else math.nan
        if abs(step) < 0.25 * xtol:
            step = toward * (abs(step) + 0.25 * xtol)
        nxt = x + step
        if not (lo < nxt < hi and (lo_open or hi_open or abs(step) <= 0.5 * prev2)):
            if not (lo_open or hi_open):
                nxt = mid
            elif doublings < _MAX_DOUBLINGS:
                end = lo if hi_open else hi
                reach = max(reach, abs(end - x0), 4.0 * math.ulp(end))
                nxt = end + toward * reach
                reach *= 2.0
            else:
                nxt = toward * math.inf
        if lo_open or hi_open:
            doublings += 1
        prev2, prev = prev, abs(nxt - x)
        x = nxt
        fx, dfx = f(x)
