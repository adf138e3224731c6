"""The Taylor certificate that ends endpoint solves, against 50-digit f_n.

For random data (n up to 300, p in (1, 2], location shifts up to 1e6 and
scales from 1e-3 to 1e3), the float pair (f, f') that _f_and_slope computes
at x and the exact f_n satisfy

    |f_n(x + d) - (f + f' d)| <= bound(x, f, f', |d|)

(Taylor remainder plus float allowance), with or without a _Split at x for
|d| within its rho, and every bracket the certificate returns holds the
exact root.  Without either term, or with H_p halved, the first property
fails on the explicit examples.
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


@settings(max_examples=120, deadline=None)
@given(offset=st.floats(-3.0, 3.0), place=st.sampled_from(["free", "observation", "boundary"]),
       log10_rho=st.floats(-12.0, 0.0), fraction=st.floats(-1.0, 1.0), **data)
# x on an observation: its z_i is 0, a near term, and u / |X_i - x| must not turn NaN.
@example(offset=0.0, place="observation", log10_rho=-3.0, fraction=1.0, n=5, p=1.1, shift=0.0, log10_scale=0.0,
         seed=2)
@example(offset=0.0, place="observation", log10_rho=-3.0, fraction=-1.0, n=300, p=1.5, shift=1e6,
         log10_scale=0.0, seed=3)
# An observation at the far threshold, the step toward it: phi'' is read down to |z_i| / 2.
@example(offset=0.0, place="boundary", log10_rho=-0.5, fraction=1.0, n=3, p=1.5, shift=0.0, log10_scale=0.0,
         seed=4)
@example(offset=0.0, place="boundary", log10_rho=-6.0, fraction=1.0, n=200, p=1.1, shift=-1e5, log10_scale=1.0,
         seed=5)
def test_split_model_error_within_bound(offset, place, log10_rho, fraction, n, p, shift, log10_scale, seed):
    """|f_n(x + d) - (f + f' d)| <= bound(x, f, f', |d|, split) for |d| <= rho,
    the split's sums taken in the same pass as (f, f'); x is free, on an
    observation, or 2 rho below one (the far threshold, up to a rounding)."""
    scale, xs, lam, influence, xhat, cert = setup(n, p, shift, log10_scale, seed)
    rho = scale * 10.0**log10_rho
    obs = float(xs[seed % n])
    x = {"free": xhat + offset * scale, "observation": obs, "boundary": obs - cat._Split.threshold(rho)}[place]
    f, slope, *sums = cat._f_and_slope(influence, lam, xs, x, False, cat._Split.threshold(rho))
    split = cat._Split.build(influence, n, rho, *sums)
    assert math.isfinite(split.far) and math.isfinite(split.near)
    y = x + fraction * rho * (1.0 - 2.0**-20)  # x + d rounds; a step past rho falls back to R(|d|)
    with mpmath.workdps(50):
        d = mpmath.mpf(y) - mpmath.mpf(x)
        bound = cert.bound(x, f, slope, abs(float(d)), split)
        assert bound <= cert.bound(x, f, slope, abs(float(d)))
        gap = abs(exact_f(influence, lam, xs, y) - (mpmath.mpf(f) + mpmath.mpf(slope) * d))
        assert gap <= bound


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("toward", [-1.0, 1.0])
def test_split_at_the_far_boundary(p, toward):
    """One term at |X - x| = 2 rho, just far, with |d| = rho: phi'' is read down to |z| / 2,
    and there lambda rho = 0.6 puts it at the peak of |phi''(v)| v^(2-p)."""
    influence = default_influence(p)
    rho = 0.5
    lam = np.array([0.6 / rho])
    x = 0.0
    xs = np.array([cat._Split.threshold(rho)])
    f, slope, *sums = cat._f_and_slope(influence, lam, xs, x, False, cat._Split.threshold(rho))
    split = cat._Split.build(influence, 1, rho, *sums)
    assert split.near == 0.0 and split.far > 0.0  # the one term is far
    cert = cat._TaylorCertificate.build(influence, 1, x, abs(float(lam[0] * xs[0])), float(lam[0]), float(lam[0] ** 2))
    d = toward * rho
    bound = cert.bound(x, f, slope, rho, split)
    with mpmath.workdps(50):
        gap = abs(exact_f(influence, lam, xs, x + d) - (mpmath.mpf(f) + mpmath.mpf(slope) * d))
        assert gap <= bound


def test_split_classifies_by_the_threshold():
    """A term is far exactly when its computed |X_i - x| reaches threshold(rho) =
    2 rho (1 + 4 eps), so one at 2 rho counts as near; a split is used only within
    its rho."""
    influence = default_influence(1.5)
    rho = 0.25
    thr = cat._Split.threshold(rho)
    xs = np.array([0.0, -0.5 * rho, 1.5 * rho, 2.0 * rho, thr, -thr, 30.0 * rho])
    lam = np.arange(1.0, 8.0) / 8.0
    f, slope, curv, near_sq, near_lam = cat._f_and_slope(influence, lam, xs, 0.0, False, thr)
    near, far = slice(0, 4), slice(4, None)
    assert near_lam == float(np.sum(lam[near])) and near_sq == float(np.dot(lam[near], lam[near]))
    assert curv == pytest.approx(float(np.sum(lam[far] ** 1.5 / np.sqrt(np.abs(xs[far])))), rel=1e-14)
    split = cat._Split.build(influence, xs.size, rho, curv, near_sq, near_lam)
    _, _, abs_z, lam_sq = cat._f_and_slope(influence, lam, xs, 0.0, True)
    cert = cat._TaylorCertificate.build(influence, xs.size, 0.0, abs_z, float(np.sum(lam)), lam_sq)
    assert cert.bound(0.0, f, slope, rho, split) < cert.bound(0.0, f, slope, rho)
    assert cert.bound(0.0, f, slope, 1.01 * rho, split) == cert.bound(0.0, f, slope, 1.01 * rho)



@pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
def test_hoelder_term_is_written_once(p):
    """The certificate's remainder is _Split.holder over all terms and a split's near is
    _Split.holder over its near terms, each bit for bit the inline expression they replaced."""
    scale, xs, lam, influence, xhat, cert = setup(300, p, 0.0, 0.0, 7)
    _, _, _, sum_lam_sq = cat._f_and_slope(influence, lam, xs, xhat, True)
    sum_lam = float(np.sum(lam))
    assert cert.remainder == cat._Split.holder(influence, 300, sum_lam_sq, sum_lam)
    q = p - 1.0
    inline = sum_lam_sq**q * sum_lam ** (1.0 - q) * (1.0 + (cat._TERM_ULPS + 300) * cat._EPS)
    assert cert.remainder == influence.holder_bound / p * inline
    rho = 0.5
    sums = cat._f_and_slope(influence, lam, xs, xhat, False, cat._Split.threshold(rho))[2:]
    assert cat._Split.build(influence, 300, rho, *sums).near == cat._Split.holder(influence, 300, *sums[1:])

@pytest.mark.parametrize("p", [1.1, 1.5])
@pytest.mark.parametrize("xs", [[0.3], [0.0] * 50], ids=["n1", "all_equal"])
def test_solve_from_an_observation(p, xs):
    """n = 1, or all-equal data, put xhat exactly on an observation (z_i = 0 in the
    shared pass): the solve raises no warning (pytest turns warnings into errors) and
    each finite endpoint has the exact f_n on either side of its level within root_tol."""
    influence = default_influence(p)
    xs = np.array(xs)
    lam = power_law(1.0, p).head(xs.size)
    tgt = math.log(2.0 / 0.05) + influence.c_p * float(np.sum(lam**p))
    assert float(np.dot(lam, xs)) / float(np.sum(lam)) == xs[0]
    lower, upper = cat.solve_interval_arrays(influence, lam, xs, tgt)
    tol = 1e-9 * max(1.0, abs(float(xs[0])))
    assert math.isfinite(lower) and math.isfinite(upper) and lower < xs[0] < upper
    for end, level in ((lower, tgt), (upper, -tgt)):
        assert exact_f(influence, lam, xs, end - tol) > level > exact_f(influence, lam, xs, end + tol)


@settings(max_examples=60, deadline=None)
@given(log10_offset=st.floats(-12.0, 0.0), negative=st.booleans(), upper=st.booleans(), split=st.booleans(),
       **data)
def test_certified_bracket_holds_the_exact_root(log10_offset, negative, upper, split, n, p, shift, log10_scale,
                                                seed):
    """From an iterate near an endpoint, any bracket the certificate proves,
    with or without a split at the iterate, has the exact f_n - level > 0 at
    its lower end and < 0 at its upper end."""
    scale, xs, lam, influence, xhat, cert = setup(n, p, shift, log10_scale, seed)
    tgt = math.log(2.0 / 0.05) + influence.c_p * float(np.sum((lam * scale) ** p))
    level = -tgt if upper else tgt
    root = cat.solve_interval_arrays(influence, lam, xs, tgt)[1 if upper else 0]
    x = root + (-1.0 if negative else 1.0) * scale * 10.0**log10_offset
    f, slope = cat._f_and_slope(influence, lam, xs, x)
    radius = 0.25e-9 * max(1.0, abs(xhat))
    at_x = None
    if split:
        rho = 4.0 * (abs((f - level) / slope) + radius)
        _, _, *sums = cat._f_and_slope(influence, lam, xs, x, False, cat._Split.threshold(rho))
        at_x = cat._Split.build(influence, n, rho, *sums)
    proved = cert(x, f - level, slope, radius, at_x)
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
    """_rounding_rates' _SUM_DEPTH assumes numpy sums a block pairwise.

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
