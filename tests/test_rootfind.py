"""Safeguarded Newton, and the bracket expansion and bisection it is checked against."""

import math

import pytest

from heavytail_cs.rootfind import bisect, expand_bracket, solve_monotone


def test_expand_finds_sign_change():
    lo, hi, flo, fhi = expand_bracket(lambda x: x - 100.0, -1.0, 1.0)
    assert flo < 0 < fhi or fhi < 0 < flo
    assert lo <= 100.0 <= hi


def test_expand_gives_up_on_sign_definite():
    with pytest.raises(ValueError, match="no sign change"):
        expand_bracket(lambda x: 1.0 + x * x, -1.0, 1.0, max_doublings=60)


def test_bisect_tolerance():
    root = bisect(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-12)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect(lambda x: x + 10.0, 1.0, 2.0, xtol=1e-9)


def test_solve_monotone_decreasing():
    """The final bracket holds the root and is no wider than xtol."""
    lo, hi = solve_monotone(lambda x: (5.0 - x, -1.0), 0.0, 10.0, 0.0, 1e-12)
    assert lo <= 5.0 <= hi <= lo + 1e-12


def test_start_is_clamped_into_the_bracket():
    """A start outside [lo, hi] (or not finite) is never evaluated."""
    seen = []

    def f(x):
        seen.append(x)
        return 5.0 - x, -1.0

    for start in (-1e300, 1e300, math.inf, math.nan):
        seen.clear()
        lo, hi = solve_monotone(f, 4.0, 6.0, start, 1e-12)
        assert lo <= 5.0 <= hi and all(4.0 <= x <= 6.0 for x in seen)


def test_nan_objective_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bisect(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 1e-9)


def test_root_beyond_float_range_is_infinite():
    """Root at +-1e310 in [-inf, inf]: the bracket's outer end is that infinity,
    reached by splitting the ordinals in at most 64 steps past Newton's."""
    calls = []

    def f(sign):
        def g(x):
            calls.append(x)
            return sign * 1e10 - x * 1e-300, -1e-300
        return g

    assert solve_monotone(f(1.0), -math.inf, math.inf, 0.0, 1e-9)[1] == math.inf
    assert solve_monotone(f(-1.0), -math.inf, math.inf, 0.0, 1e-9)[0] == -math.inf
    assert len(calls) <= 2 * 66


def test_invalid_bracket():
    with pytest.raises(ValueError):
        expand_bracket(lambda x: x, 2.0, 1.0)


def test_newton_stops_on_certified_bracket():
    """Root of 2 - x^3 at 2^(1/3): the answer is within xtol/2 of it, and f
    changes sign across [answer - xtol/2, answer + xtol/2]."""
    f = lambda x: 2.0 - x**3
    xtol = 1e-9
    lo, hi = solve_monotone(lambda x: (f(x), -3.0 * x * x), 0.0, 2.0, 1.0, xtol)
    assert lo <= 2.0 ** (1.0 / 3.0) <= hi <= lo + xtol
    assert f(lo) > 0.0 > f(hi)


def test_bad_slope_falls_back_to_bracketing():
    """A useless slope (NaN, or of the wrong sign) leaves splitting, which
    still converges to the root, also from an infinite bracket."""
    for slope in (math.nan, 1.0, 0.0):
        for lo, hi in ((-10.0, 10.0), (-math.inf, math.inf)):
            lo, hi = solve_monotone(lambda x: (3.0 - x, slope), lo, hi, 0.0, 1e-10)
            assert lo <= 3.0 <= hi <= lo + 1e-10


def test_newton_nan_objective_rejected():
    with pytest.raises(ValueError, match="NaN"):
        solve_monotone(lambda x: (math.nan if x > 0.5 else 1.0 - x, -1.0), -10.0, 10.0, 0.0, 1e-9)
