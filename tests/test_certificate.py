"""The Taylor certificate that ends endpoint solves, against 50-digit f_n.

For random data (n up to 300, p in (1, 2], location shifts up to 1e6 and
scales from 1e-3 to 1e3), the float pair (f, f') that _f_and_slope computes
at x and the exact f_n satisfy

    |f_n(x + d) - (f + f' d)| <= bound(x, f, f', |d|)

(Taylor remainder plus float allowance), and every bracket the certificate
returns holds the exact root.  Without either term, or with H_p halved, the
first property fails on the explicit examples.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import exact_f

from heavytail_cs import catoni_cs as cat
from heavytail_cs.harness import centered_pareto, gaussian, sample_stream, true_vp
from heavytail_cs.influence import default_influence
from heavytail_cs.schedules import power_law


def setup(n, p, shift, log10_scale, seed):
    """Heavy-tailed data, a power-law schedule in the data's units, and the solver's certificate."""
    scale = 10.0**log10_scale
    xs = shift + scale * np.random.default_rng(seed).standard_t(1.5, n)
    lam = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / p) / scale
    influence = default_influence(p)
    sum_lam = float(np.sum(lam))
    xhat = float(np.dot(lam, xs)) / sum_lam
    _, _, abs_z0, sum_lam_sq = cat._f_and_slope(influence, lam, xs, xhat, True)
    cert = cat._TaylorCertificate.build(influence, n, xhat, abs_z0, sum_lam, sum_lam_sq)
    return scale, xs, lam, influence, xhat, cert


data = dict(
    n=st.integers(1, 300),
    p=st.floats(1.0, 2.0, exclude_min=True),
    shift=st.floats(-1e6, 1e6),
    log10_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(offset=st.floats(-3.0, 3.0), log10_step=st.one_of(st.none(), st.floats(-12.0, 1.0)),
       negative=st.booleans(), **data)
# phi'' peaks at z = sqrt(3) - 1 (p = 2) and phi' is least smooth at z = 0
# (p < 2): there the remainder bound is tight, so halving H_p fails.
@example(offset=-(math.sqrt(3.0) - 1.0), log10_step=-3.0, negative=False, n=1, p=2.0, shift=0.0,
         log10_scale=0.0, seed=0)
@example(offset=0.0, log10_step=-4.0, negative=True, n=1, p=1.5, shift=0.0, log10_scale=0.0, seed=0)
# d = 0: the model is the computed value itself, off by its rounding alone.
@example(offset=0.5, log10_step=None, negative=False, n=300, p=1.5, shift=123456.789, log10_scale=-3.0,
         seed=1)
def test_model_error_within_bound(offset, log10_step, negative, n, p, shift, log10_scale, seed):
    scale, xs, lam, influence, xhat, cert = setup(n, p, shift, log10_scale, seed)
    x = xhat + offset * scale
    step = 0.0 if log10_step is None else (-1.0 if negative else 1.0) * scale * 10.0**log10_step
    y = x + step
    f, slope = cat._f_and_slope(influence, lam, xs, x)
    with mpmath.workdps(50):
        d = mpmath.mpf(y) - mpmath.mpf(x)
        gap = abs(exact_f(influence, lam, xs, y) - (mpmath.mpf(f) + mpmath.mpf(slope) * d))
        assert gap <= cert.bound(x, f, slope, abs(float(d)))


@settings(max_examples=60, deadline=None)
@given(log10_offset=st.floats(-12.0, 0.0), negative=st.booleans(), upper=st.booleans(), **data)
def test_certified_bracket_holds_the_exact_root(log10_offset, negative, upper, n, p, shift, log10_scale, seed):
    """From an iterate near an endpoint, any bracket the certificate proves
    has the exact f_n - level > 0 at its lower end and < 0 at its upper end."""
    scale, xs, lam, influence, xhat, cert = setup(n, p, shift, log10_scale, seed)
    tgt = math.log(2.0 / 0.05) + influence.c_p * float(np.sum((lam * scale) ** p))
    level = -tgt if upper else tgt
    root = cat.solve_interval_arrays(influence, lam, xs, tgt)[1 if upper else 0]
    x = root + (-1.0 if negative else 1.0) * scale * 10.0**log10_offset
    f, slope = cat._f_and_slope(influence, lam, xs, x)
    radius = 0.25e-9 * max(1.0, abs(xhat))
    proved = cert(x, f - level, slope, radius)
    if proved is not None:
        a, b = proved
        assert b - a <= 2.0 * radius + 2.0 * math.ulp(b)
        assert exact_f(influence, lam, xs, a) > level > exact_f(influence, lam, xs, b)


class TestPasses:
    """Fused f_n / f_n' passes per interval, the shared one at the weighted mean included."""

    @pytest.mark.parametrize("dist, p, most", [(gaussian(), 2.0, 3), (centered_pareto(1.9), 1.5, 5)])
    def test_at_1e4(self, monkeypatch, dist, p, most):
        n = 10_000
        cfg = cat.CatoniConfig(p=p, v_p=true_vp(dist, p), alpha=0.05, schedule=power_law(1.0, p))
        lam = cfg.schedule.head(n)
        tgt = cat.target(cfg, float(np.sum(lam**p)))
        calls = []
        original = cat._f_and_slope

        def counted(*args):
            calls.append(args[3])
            return original(*args)

        monkeypatch.setattr(cat, "_f_and_slope", counted)
        for seed in range(3):
            calls.clear()
            lower, upper = cat.solve_interval_arrays(cfg.influence, lam, sample_stream(dist, seed, n), tgt)
            assert lower < upper
            assert len(calls) <= most


class _Identity:
    """A stub influence: phi(z) = z and phi'(z) = 1, so f_n is the plain sum of the z_i."""

    @staticmethod
    def value_and_slope(z):
        return z.copy(), np.ones_like(z)


def test_block_sum_is_pairwise():
    """_rounding_error's _SUM_DEPTH assumes numpy sums a block pairwise.

    One 1.0 and then 2^15 - 1 values of 0.99 u (u = 2^-53): added one by
    one, each small value rounds away against the 1.0 (about 32439 u in
    all); a pairwise sum adds the small values among themselves first.
    """
    u = 2.0**-53
    xs = np.full(cat._BLOCK, 0.99 * u)
    xs[0] = 1.0
    f, _ = cat._f_and_slope(_Identity(), np.ones(cat._BLOCK), xs, 0.0)
    exact = sum(map(Fraction, xs.tolist()))
    assert abs(Fraction(f) - exact) <= cat._SUM_DEPTH * Fraction(cat._EPS) * exact
