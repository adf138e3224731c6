"""Dubins-Savage tail bound, interval, width, and alpha scaling."""

import math
import re
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import mp_a, mp_intervals, mp_m_p, mp_tail_bound

from heavytail_cs import catoni_cs as cat
from heavytail_cs import dubins_savage as ds
from heavytail_cs.harness import centered_pareto, gaussian, run_width, sample_stream, true_vp
from heavytail_cs.schedules import custom_list, power_law


class TestNearOneVsMpmath:
    """ds_a against 60-digit mpmath at the same float inputs: never below the exact a, and at most an ulp above."""

    @staticmethod
    def check(p, alpha, b):
        exact = mp_a(p, alpha, b)
        a = ds.ds_a(ds.DsConfig(p=p, v_p=1.0, alpha=alpha, b=b))
        assert mp.mpf(math.nextafter(a, 0.0)) < exact <= mp.mpf(a)

    @pytest.mark.parametrize("p, alpha, b", [
        (1.01, 0.05, 1e6), (1.005, 0.5, 1e3), (1.0005, 0.9, 1e4), (1.02, 0.05, 30.0),
        (2.0, 0.05, 1.0), (1.5, 0.02, 0.7), (1.1, 1e-3, 4.0),
    ])
    def test_ds_a(self, p, alpha, b):
        self.check(p, alpha, b)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.one_of(st.just(2.0), st.floats(1.001, 1.05), st.floats(1.05, 2.0)),
        alpha=st.builds(lambda e: 10.0**e, st.floats(-12.0, -0.01)),
        b=st.builds(lambda e: 10.0**e, st.floats(-3.0, 3.0)),
    )
    def test_ds_a_sweep(self, p, alpha, b):
        """p down to 1.001, where the closed form in floats loses hundreds of ulp; skips a beyond the float range."""
        exact = mp_a(p, alpha, b)
        assume(mp.mpf(sys.float_info.min) <= exact < mp.mpf(sys.float_info.max))
        self.check(p, alpha, b)


class TestDsA:
    def test_p2_alpha_005(self):
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05, b=1.0)
        assert ds.ds_a(cfg) == pytest.approx(39.0, rel=1e-14)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            ds.DsConfig(p=2.0, v_p=1.0, alpha=2.0)

    def test_alpha_growth_ratio(self):
        # a(0.01)/a(0.1) = 199/19 for p = 2: the alpha^(-1/(p-1)) growth
        r = ds.ds_a(ds.DsConfig(2.0, 1.0, 0.01)) / ds.ds_a(ds.DsConfig(2.0, 1.0, 0.1))
        assert r == pytest.approx(199.0 / 19.0, rel=1e-14)

    def test_decreasing_in_alpha(self):
        alphas = [0.2, 0.1, 0.05, 0.01]
        vals = [ds.ds_a(ds.DsConfig(1.5, 1.0, a)) for a in alphas]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p, alpha", [(1.01, 1e-5), (1.001, 0.99), (1.0000001, 0.5), (1.0001, 1e-10),
                                          (1.001, 1e-300), (1.0000001, 1e-300)])
    def test_beyond_float_range_rejected(self, p, alpha):
        """Near p = 1, a is e^700 or more (e^(1.4 10^7) at p = 1.0000001):
        a typed error naming p and alpha, not a decimal Overflow or an OverflowError."""
        cfg = ds.DsConfig(p=p, v_p=1.0, alpha=alpha)
        for fn in (ds.ds_a, ds.ds_optimal_schedule):
            with pytest.raises(ValueError, match=f"p = {p}, alpha = {alpha}"):
                fn(cfg)

    @pytest.mark.parametrize("p, b", [(1.5, 1e300), (1.2, 1e-300), (2.0, 5e-324), (2.0, 1.7e308)])
    def test_b_beyond_float_range_rejected(self, p, b):
        """b^(1/(p-1)) divides a: a above the float range, or below its normal floats, is a typed error too."""
        with pytest.raises(ValueError, match=re.escape(f"p = {p}, alpha = 0.5, b = {b}")):
            ds.ds_a(ds.DsConfig(p=p, v_p=1.0, alpha=0.5, b=b))

    @pytest.mark.parametrize("b", [0.0, math.nan, math.inf])
    def test_b_must_be_positive_and_finite(self, b):
        with pytest.raises(ValueError, match="b must be positive and finite"):
            ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05, b=b)

    @pytest.mark.parametrize("v_p", [0.0, math.nan, math.inf, -math.inf])
    def test_v_p_must_be_positive_and_finite(self, v_p):
        with pytest.raises(ValueError, match="v_p must be positive and finite"):
            ds.DsConfig(p=2.0, v_p=v_p, alpha=0.05)


class TestTailBound:
    def test_inverts_ds_a(self):
        """ds_a puts the one-sided tail bound at alpha/2."""
        assert mp_tail_bound(39.0, 1.0, 2.0) == pytest.approx(0.025, rel=1e-14)
        cfg = ds.DsConfig(p=1.5, v_p=1.0, alpha=0.02, b=0.7)
        assert mp_tail_bound(ds.ds_a(cfg), 0.7, 1.5) == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize("a_level", [24.0, 200.0])
    def test_mc_exceedance_within_bound(self, a_level):
        """Empirical frequency of {exists t <= T: S_t >= a + b sum V_i} on
        centered Pareto streams stays below the bound plus 3 MC errors."""
        p, b, T, runs = 1.5, 1.0, 1000, 10**4
        dist = centered_pareto(1.9, 1.0)
        vp = true_vp(dist, p)
        lam = power_law(1.0, p).head(T)
        budget = a_level + b * vp * np.cumsum(lam**p)
        hits = np.zeros(runs, dtype=bool)
        for r in range(runs):
            x = sample_stream(dist, 2024, T, rep=r)
            hits[r] = bool(np.any(np.cumsum(lam * x) >= budget))
        rate = hits.mean()
        bound = mp_tail_bound(a_level, b, p)
        se = math.sqrt(max(rate * (1 - rate), 1e-9) / runs)
        assert rate <= bound + 3.0 * se


class TestInterval:
    def test_single_obs_reference(self):
        """n=1, lambda=1, X=0, p=2, b=1, v=1, alpha=0.05 -> [-40, 40]."""
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05, b=1.0)
        st = ds.ds_update(ds.DsState(p=2.0), custom_list([1.0]), 0.0)
        iv = ds.ds_interval(st, cfg)
        assert (iv.lower, iv.upper) == (-40.0, 40.0)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            ds.ds_interval(ds.DsState(p=2.0), ds.DsConfig(2.0, 1.0, 0.05))

    def test_state_p_must_match_config(self):
        """A DsState summing lambda^2 under a p = 1.5 config would give a
        radius built from the wrong moment sum."""
        st = ds.ds_update(ds.DsState(p=2.0), custom_list([0.5]), 0.0)
        with pytest.raises(ValueError, match="p = 2.0, config has p = 1.5"):
            ds.ds_interval(st, ds.DsConfig(1.5, 1.0, 0.05))

    def test_lambda_scaling_identity(self):
        """Scaling lambda by kappa: centre unchanged; the a part of the
        radius scales by 1/kappa and the moment part by kappa^(p-1)."""
        cfg = ds.DsConfig(p=1.5, v_p=2.0, alpha=0.1, b=1.0)
        rng = np.random.default_rng(17)
        xs = rng.normal(size=20)
        kappa = 3.0
        lam = 0.8 * np.arange(1, 21.0) ** -0.5
        s1, sx, sp = (float(np.sum(lam)), float(np.sum(lam * xs)), float(np.sum(lam**1.5)))
        center = sx / s1
        a = ds.ds_a(cfg)
        base_a_part = a / s1
        base_m_part = cfg.b * cfg.v_p * sp / s1
        scaled_radius = ds.ds_radius(cfg, kappa * s1, kappa**1.5 * sp)
        assert scaled_radius == pytest.approx(
            base_a_part / kappa + base_m_part * kappa**0.5, rel=1e-12
        )
        assert (kappa * sx) / (kappa * s1) == pytest.approx(center, rel=1e-15)

    def test_matches_running_state(self):
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        sched = power_law(1.0, 2.0)
        rng = np.random.default_rng(19)
        xs = rng.normal(size=500)
        st = ds.DsState(p=2.0)
        for x in xs:
            ds.ds_update(st, sched, x)
        lam = sched.head(500)
        iv = ds.ds_interval(st, cfg)
        center = float(np.sum(lam * xs) / np.sum(lam))
        radius = (39.0 + float(np.sum(lam**2))) / float(np.sum(lam))
        assert iv.lower == pytest.approx(center - radius, rel=1e-12)
        assert iv.upper == pytest.approx(center + radius, rel=1e-12)

    def test_sum_beyond_float_range_contains_exact(self):
        """Sum lambda_i X_i = 1.7e308 (1 + 2^-1/2) has no float, yet the sums are exact and the interval contains the exact one."""
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        xs = [1.7e308, 1.7e308]
        st = ds.DsState(p=2.0)
        for x in xs:
            ds.ds_update(st, power_law(1.0, 2.0), x)
        assert (st.n, st.sum_lambda_x) == (2, math.inf)
        iv = ds.ds_interval(st, cfg)
        lam = [Fraction(v) for v in power_law(1.0, 2.0).head(2).tolist()]
        s1, sx = sum(lam), sum(v * Fraction(x) for v, x in zip(lam, xs))
        center, radius = sx / s1, (2 / Fraction(cfg.alpha) - 1 + sum(v * v for v in lam)) / s1
        assert Fraction(iv.lower) <= center - radius and center + radius <= Fraction(iv.upper)
        assert (iv.lower, iv.upper) == (math.nextafter(1.7e308, 0.0), math.nextafter(1.7e308, math.inf))

    @pytest.mark.parametrize("x", [1.7e308, 1e17])
    def test_rounding_never_cuts_the_radius(self, x):
        """The radius (40) is below the float spacing at the centre: the float
        endpoints move one float outward, so the interval contains
        [centre - radius, centre + radius] in exact arithmetic."""
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        st = ds.ds_update(ds.DsState(p=2.0), power_law(1.0, 2.0), x)
        iv = ds.ds_interval(st, cfg)
        center = Fraction(st.sum_lambda_x) / Fraction(st.sum_lambda)
        radius = Fraction(ds.ds_radius(cfg, st.sum_lambda, st.sum_lambda_p))
        assert radius == 40
        assert Fraction(iv.lower) <= center - radius and Fraction(iv.upper) >= center + radius
        assert iv.upper - iv.lower > 0.0


def streamed(cfg, sched, xs):
    state = ds.DsState(p=cfg.p)
    for x in xs:
        ds.ds_update(state, sched, x)
        yield ds.ds_interval(state, cfg)


#: Shifts of TestIntervalContainsExact's gaussian stream.
SHIFTS = [0.0, 1e6, 1e15, 1e17]


class TestIntervalContainsExact:
    """ds_interval contains the exact interval, rounding of the centre included."""

    @pytest.mark.parametrize("p, shift", [pytest.param(2.0, s, id=str(s)) for s in SHIFTS]
                             + [pytest.param(p, s, id=f"p{p}-{s}") for p in (1.5, 1.2) for s in SHIFTS])
    def test_shifted_gaussian(self, p, shift):
        """Shifts at which the float centre alone left an end up to 2.69 inside.

        At p = 2 every sum and a are exact, and each end is one ratio
        rounded outward once, so it lies within an ulp of the exact end.
        Below p = 2, sum lambda^p adds lambda_i^p rounded up, and a is raised
        by about 10^-30 of itself, which leaves each end within the same slack.
        """
        cfg = ds.DsConfig(p=p, v_p=1.0, alpha=0.05)
        sched = ds.ds_optimal_schedule(cfg)
        xs = (np.random.default_rng(0).standard_normal(50) + shift).tolist()
        *_, iv = streamed(cfg, sched, xs)
        lo, hi, c, r = mp_intervals(cfg, sched.head(50).tolist(), xs)[-1]
        slack = 2 * math.ulp(float(c)) + 2 * math.ulp(float(r))
        assert lo - slack <= iv.lower <= lo and hi <= iv.upper <= hi + slack

    @pytest.mark.parametrize("p, alpha, b, beyond_float", [
        (1.005, 0.5, 1e3, True), (1.01, 0.05, 1e6, True), (1.2, 1e-6, 1.0, False),
    ])
    def test_bound_on_a(self, p, alpha, b, beyond_float):
        """Containment rests on the bound on a, where m_p or b^(1/(p-1)) has no float (near p = 1) and where both have.

        At these points the closed form evaluated in floats (in logs where
        it leaves the float range) lands 735, 338 and 37 u below the exact
        a.  The weights are a millionth of the width-optimal ones, so that
        a dominates the radius and no other term's slack would hide an a
        below the exact one.
        """
        cfg = ds.DsConfig(p=p, v_p=1.0, alpha=alpha, b=b)
        with mp.workdps(60):
            factors = mp_m_p(mp.mpf(p)), mp.mpf(b) ** (1 / (mp.mpf(p) - 1))
            assert (not all(sys.float_info.min <= f <= sys.float_info.max for f in factors)) == beyond_float
        sched = power_law(1e-6 * ds.ds_optimal_schedule(cfg).c, p)
        xs = np.random.default_rng(1).standard_normal(100).tolist()
        for iv, (lo, hi, _, _) in zip(streamed(cfg, sched, xs), mp_intervals(cfg, sched.head(100).tolist(), xs),
                                      strict=True):
            assert iv.lower <= lo and hi <= iv.upper

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.one_of(st.just(2.0), st.floats(1.05, 2.0)),
        alpha=st.floats(1e-6, 0.9),
        shift=st.one_of(st.just(0.0), st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]),
                                                    st.floats(0.0, 300.0))),
        scale=st.builds(lambda e: 10.0**e, st.floats(-300.0, 300.0)),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_contains_exact_at_every_n(self, p, alpha, shift, scale, n, seed):
        cfg = ds.DsConfig(p=p, v_p=1.0, alpha=alpha)
        sched = ds.ds_optimal_schedule(cfg)
        xs = (shift + scale * np.random.default_rng(seed).standard_normal(n)).tolist()
        lam = sched.head(n).tolist()
        assume(sum(abs(l * x) for l, x in zip(lam, xs)) < 1e307)  # short of overflow (inf, nan fail)
        for iv, (lo, hi, _, _) in zip(streamed(cfg, sched, xs), mp_intervals(cfg, lam, xs), strict=True):
            assert iv.lower <= lo and hi <= iv.upper


class TestWidth:
    def test_n1_consistency_with_interval(self):
        """Twice the single-observation radius above, under the same
        lambda_1 = 1 weights: 2 * (39 + 1) = 80."""
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05, b=1.0)
        assert 2.0 * ds.ds_radius(cfg, 1.0, 1.0) == pytest.approx(80.0, rel=1e-14)

    def test_default_schedule_is_width_optimal(self):
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        sched = ds.ds_optimal_schedule(cfg)
        assert sched.at(1) == pytest.approx(math.sqrt(39.0), rel=1e-14)
        # The width minimizer (a/(t b v_p (p-1)))^(1/p) is the power law c t^(-1/p).
        cfg15 = ds.DsConfig(p=1.5, v_p=2.0, alpha=0.01, b=0.7)
        t = np.arange(1.0, 1001.0)
        exact = (ds.ds_a(cfg15) / (t * 0.7 * 2.0 * 0.5)) ** (1.0 / 1.5)
        np.testing.assert_allclose(ds.ds_optimal_schedule(cfg15).head(1000), exact, rtol=1e-15)
        lam = sched.head(100)
        assert ds.ds_width(cfg, 100) == pytest.approx(
            2.0 * ds.ds_radius(cfg, float(np.sum(lam)), float(np.sum(lam**2))), rel=1e-15
        )

    @pytest.mark.parametrize(
        "p,frozen",
        [(2.0, -0.417408), (1.5, -0.254371)],
    )
    def test_loglog_slope_frozen_oracle(self, p, frozen):
        """OLS slope of log width over n in [1e3, 1e6], width-optimal schedule.

        The limit slope is -(p-1)/p, but the harmonic log factor enters
        with coefficient a/(p-1) against the constant a, so at desk scale
        the fit sits ~0.08 above the limit (frozen from the direct scan).
        It tightens toward -(p-1)/p as the window moves right, which is
        asserted alongside the frozen value.
        """
        cfg = ds.DsConfig(p=p, v_p=1.0, alpha=0.05)
        ns = np.geomspace(1e3, 1e6, 13).astype(int)
        w = [ds.ds_width(cfg, int(n)) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(w), 1)[0]
        assert slope == pytest.approx(frozen, abs=5e-4)
        ns_hi = np.geomspace(1e4, 1e6, 9).astype(int)
        slope_hi = np.polyfit(np.log(ns_hi), np.log([ds.ds_width(cfg, int(n)) for n in ns_hi]), 1)[0]
        assert slope_hi < slope  # moving toward the -(p-1)/p limit
        assert slope_hi > -(p - 1.0) / p  # still above it at desk scale

    def test_alpha_independent_slope(self):
        cfg_a = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        cfg_b = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.001)
        ns = np.geomspace(1e3, 1e6, 7).astype(int)
        sa = np.polyfit(np.log(ns), np.log([ds.ds_width(cfg_a, int(n)) for n in ns]), 1)[0]
        sb = np.polyfit(np.log(ns), np.log([ds.ds_width(cfg_b, int(n)) for n in ns]), 1)[0]
        assert sa == pytest.approx(sb, abs=1e-12)

    def test_display_form_drops_a_term(self):
        """run_width's DS bound column is the display form 2 b v_p sum(lam^p) / sum(lam)."""
        cfg = ds.DsConfig(p=2.0, v_p=1.0, alpha=0.05)
        lam = ds.ds_optimal_schedule(cfg).head(100)
        expect = 2.0 * float(np.sum(lam**2)) / float(np.sum(lam))
        rep = run_width("ds", gaussian(0, 1), 2.0, 0.05, 100, seed=0, checkpoints=[100])
        assert rep.checkpoints[0].bound == pytest.approx(expect, rel=1e-14)
        assert rep.checkpoints[0].bound < ds.ds_width(cfg, 100)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_alpha_decade_ratio(self, p):
        """ds_width(alpha/10)/ds_width(alpha) -> 10^(1/p) where a dominates."""
        n = 10**5
        lo = ds.ds_width(ds.DsConfig(p=p, v_p=1.0, alpha=1e-4), n)
        hi = ds.ds_width(ds.DsConfig(p=p, v_p=1.0, alpha=1e-3), n)
        assert lo / hi == pytest.approx(10.0 ** (1.0 / p), rel=0.10)

    def test_catoni_dominance_as_alpha_shrinks(self):
        """DS/Catoni width-bound ratio increases along alpha = 0.1, 0.01, 0.001
        (log(1/alpha) vs alpha^(-1/p) growth), matched p, v_p, n."""
        n = 10**5
        ratios = []
        for alpha in (0.1, 0.01, 0.001):
            w_ds = ds.ds_width(ds.DsConfig(p=2.0, v_p=1.0, alpha=alpha), n)
            ccfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=alpha, schedule=power_law(1.0, 2.0))
            w_cat = cat.width_bound(ccfg, n)
            assert w_cat is not None
            ratios.append(w_ds / w_cat)
        assert ratios[0] < ratios[1] < ratios[2]
