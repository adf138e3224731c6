"""Catoni endpoints against exact arithmetic: the proven bracket, the outer ends and the overflow rule.

Signs are read from oracles.exact_f, which sums phi of the exact values of
the float inputs in mpmath.  An endpoint is outward when the exact f_n is
>= tgt at the lower end and <= -tgt at the upper end; an infinite end is
outward by definition.  The exact roots themselves come from
oracles.exact_endpoints.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import exact_endpoints, exact_f

from heavytail_cs import catoni_cs as cat
from heavytail_cs.influence import default_influence
from heavytail_cs.schedules import power_law

#: Digits for the exact f_n at data up to 1e308 and ends within an ulp of their roots.
DPS = 700


def assert_outward(influence, lam, xs, tgt, lower, upper, dps=50):
    assert lower == -math.inf or exact_f(influence, lam, xs, lower, dps) >= tgt
    assert upper == math.inf or exact_f(influence, lam, xs, upper, dps) <= -tgt


TABLE = [("shift", s) for s in (0.0, 1e3, 1e6, 1e9, 1e15, 1e17, 1e150)] + [
    ("outlier", x) for x in (1e100, -1e308, 1e200, 1e300)
]


@pytest.mark.parametrize("kind, value", TABLE, ids=[f"{k}={v:g}" for k, v in TABLE])
def test_streaming_interval_contains_the_exact_one(kind, value):
    """50 standard normal draws (default_rng(0)), p = 2, v_p = 1, alpha = 0.05,
    power_law(1, 2), shifted, or with one more observation appended, through
    update and interval.  A solver that returns its final bracket's midpoint,
    or wanders past the data, fails 8 of these 11: seven narrow (zero width at
    1e17 and 1e150) and "endpoints out of order" at the outlier 1e100.  The
    README's promise holds too: each finite end lies outward of its exact root
    (oracles.exact_endpoints) by at most root_tol = 1e-9 max(1, |xhat|)."""
    cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
    draws = np.random.default_rng(0).standard_normal(50)
    xs = draws + value if kind == "shift" else np.append(draws, value)
    state = cat.new_state(cfg)
    for x in xs:
        cat.update(state, x)
    iv = cat.interval(state, cfg)
    lam, xs = state.arrays()
    tgt = cat.target(cfg, state.sum_lambda_p)
    assert_outward(cfg.influence, lam, xs, tgt, iv.lower, iv.upper, DPS)
    if kind == "shift" and value <= 1e6:
        assert iv.upper - iv.lower < 0.953  # the exact width is 0.952 at these shifts
    lower, upper = exact_endpoints(cfg.influence, lam, xs, tgt)
    root_tol = 1e-9 * max(1.0, abs(float(np.dot(lam, xs)) / float(np.sum(lam))))
    assert iv.lower == -math.inf or 0 <= lower - iv.lower <= root_tol
    assert iv.upper == math.inf or 0 <= iv.upper - upper <= root_tol
    if value == 0.0:
        assert float(upper - lower) == pytest.approx(0.951757, abs=5e-7)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(1.0, 2.0, exclude_min=True),
    log10_alpha=st.floats(-300.0, math.log10(0.5)),
    log10_scale=st.floats(-300.0, 300.0),
    shift=st.floats(-1e300, 1e300),
    outlier=st.none() | st.floats(-1e300, 1e300),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_ends_clear_the_band(n, p, log10_alpha, log10_scale, shift, outlier, seed):
    """The bracket lemma: exact f_n >= tgt at lo and <= -tgt at hi (or the end
    is infinite), for Student-t(1.5) data at any shift and scale, with
    lambda_i = i^(-1/p) / scale and at most one outlier replacing X_n."""
    scale = 10.0**log10_scale
    xs = shift + scale * np.random.default_rng(seed).standard_t(1.5, n)
    if outlier is not None:
        xs[-1] = outlier
    assume(np.isfinite(xs).all())
    lam = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / p) / scale
    assume(np.isfinite(lam).all() and lam.min() > 0.0)
    influence = default_influence(p)
    tgt = math.log(2.0) - log10_alpha * math.log(10.0) + influence.c_p * float(np.sum((lam * scale) ** p))
    lo, hi = cat._bracket(influence, lam, xs, tgt)
    assert lo < hi
    assert_outward(influence, lam, xs, tgt, lo, hi)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("where", ["left", "lower", "between", "upper", "right", "everywhere"])
def test_overflow_reads_as_root_outward(monkeypatch, where, sign):
    """An infinite f_n at a finite x (an overflow, its sign unproved) is read
    as the root lying outward of x.  Passes inside a window report
    (sign * inf, NaN), as an overflowing z_i would: both ends stay outward of
    their exact roots wherever the window lies, also when it holds the
    shared pass at the weighted mean."""
    cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 1.5))
    xs = np.random.default_rng(1).standard_normal(40)
    lam = cfg.schedule.head(40)
    tgt = cat.target(cfg, float(np.sum(lam**1.5)))
    lower, upper = cat.solve_interval_arrays(cfg.influence, lam, xs, tgt)
    window = {
        "left": (-math.inf, lower - 1.0),
        "lower": (lower - 0.1, lower + 0.1),
        "between": (lower + 0.1, upper - 0.1),
        "upper": (upper - 0.1, upper + 0.1),
        "right": (upper + 1.0, math.inf),
        "everywhere": (-math.inf, math.inf),
    }[where]
    original = cat._f_and_slope

    def overflowing(influence, lam, xs, x, *args):
        out = original(influence, lam, xs, x, *args)
        return (sign * math.inf, math.nan, *out[2:]) if window[0] <= x <= window[1] else out

    monkeypatch.setattr(cat, "_f_and_slope", overflowing)
    lo, hi = cat.solve_interval_arrays(cfg.influence, lam, xs, tgt)
    assert lo <= hi
    assert_outward(cfg.influence, lam, xs, tgt, lo, hi)
    if where == "everywhere":
        assert (lo, hi) == cat._bracket(cfg.influence, lam, xs, tgt)


@pytest.mark.parametrize("data", [[1e308] * 3, [1e308, 1.7e308, 1e308]], ids=["equal", "mixed"])
def test_weighted_mean_beyond_the_float_range(data):
    """sum lambda_i X_i overflows, so xhat is +inf: update + interval raise no
    warning (pytest turns warnings into errors, and an unguarded dot product
    warns "overflow encountered in dot"), each solve starts from the proven
    bracket's split, and both ends are outward of the exact roots."""
    cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
    state = cat.new_state(cfg)
    for x in data:
        cat.update(state, x)
    iv = cat.interval(state, cfg)
    lam, xs = state.arrays()
    assert iv.lower <= 1e308 <= iv.upper
    assert_outward(cfg.influence, lam, xs, cat.target(cfg, state.sum_lambda_p), iv.lower, iv.upper, DPS)
