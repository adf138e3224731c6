"""Bracket expansion and bisection."""

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
    assert solve_monotone(lambda x: 5.0 - x, 0.0, 1.0, 1e-12) == pytest.approx(5.0, abs=1e-12)


def test_nan_objective_rejected():
    with pytest.raises(ValueError, match="NaN"):
        bisect(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 1e-9)


def test_root_beyond_float_range_is_infinite():
    """Root at 1e310: the outward answer is +inf, not a BracketError."""
    assert solve_monotone(lambda x: 1e10 - x * 1e-300, -1.0, 1.0, 1e-9) == math.inf
    assert solve_monotone(lambda x: x * 1e-300 + 1e10, -1.0, 1.0, 1e-9) == -math.inf


def test_invalid_bracket():
    with pytest.raises(ValueError):
        expand_bracket(lambda x: x, 2.0, 1.0)
