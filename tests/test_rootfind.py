"""Safeguarded Newton, and the bracket expansion and bisection it is checked against."""

import math

import pytest

from heavytail_cs.rootfind import BracketError, bisect, expand_bracket, solve_monotone


def test_expand_finds_sign_change():
    lo, hi, flo, fhi = expand_bracket(lambda x: x - 100.0, -1.0, 1.0)
    assert flo < 0 < fhi or fhi < 0 < flo
    assert lo <= 100.0 <= hi


def test_expand_gives_up_on_sign_definite():
    with pytest.raises(BracketError):
        expand_bracket(lambda x: 1.0 + x * x, -1.0, 1.0, max_doublings=60)


def test_bisect_tolerance():
    root = bisect(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-12)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect(lambda x: x + 10.0, 1.0, 2.0, xtol=1e-9)


def test_solve_monotone_decreasing():
    assert solve_monotone(lambda x: (5.0 - x, -1.0), 0.0, 1e-12) == pytest.approx(5.0, abs=1e-12)


def test_nan_objective_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bisect(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 1e-9)


def test_root_beyond_float_range_is_infinite():
    """Root at 1e310: the outward answer is +inf, not a BracketError."""
    assert solve_monotone(lambda x: (1e10 - x * 1e-300, -1e-300), 0.0, 1e-9) == math.inf
    assert solve_monotone(lambda x: (-1e10 - x * 1e-300, -1e-300), 0.0, 1e-9) == -math.inf


def test_invalid_bracket():
    with pytest.raises(ValueError):
        expand_bracket(lambda x: x, 2.0, 1.0)


def test_newton_stops_on_certified_bracket():
    """Root of 2 - x^3 at 2^(1/3): the answer is within xtol/2 of it, and f
    changes sign across [answer - xtol/2, answer + xtol/2]."""
    f = lambda x: 2.0 - x**3
    xtol = 1e-9
    root = solve_monotone(lambda x: (f(x), -3.0 * x * x), 1.0, xtol)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 0.5 * xtol
    assert f(root - 0.5 * xtol) > 0.0 > f(root + 0.5 * xtol)


def test_bad_slope_falls_back_to_bracketing():
    """A useless slope (NaN, or of the wrong sign) leaves expansion and
    bisection, which still converge to the root."""
    for slope in (math.nan, 1.0, 0.0):
        assert solve_monotone(lambda x: (3.0 - x, slope), 0.0, 1e-10) == pytest.approx(3.0, abs=1e-10)


def test_newton_nan_objective_rejected():
    with pytest.raises(ValueError, match="NaN"):
        solve_monotone(lambda x: (math.nan if x > 0.5 else 1.0 - x, -1.0), 0.0, 1e-9)


def test_overflow_on_open_side_gives_infinite_end():
    """An infinite value at a finite x is an overflow, not a sign: the root is
    reported as the open side's infinite end, never as that finite x."""
    f = lambda x: (math.inf if x < -1e100 else 1e-3 * (-1e6 - x), -1e-3)
    assert solve_monotone(f, 0.0, 1e-9) == pytest.approx(-1e6, abs=1e-9)
    f = lambda x: (math.inf if x < -1e100 else -1e-3 * x - 1e300, -1e-3)
    assert solve_monotone(f, 0.0, 1e-9) == -math.inf
    with pytest.raises(ValueError, match="overflows"):
        solve_monotone(lambda x: (math.inf, -1.0), 0.0, 1e-9)
