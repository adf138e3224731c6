"""Catoni confidence sequence: state, endpoints, width-bound machinery,
supermartingale means."""

import math
import sys
import time

import mpmath
import numpy as np
import pytest
from oracles import budget_oracle

from heavytail_cs import catoni_cs as cat
from heavytail_cs.harness import centered_pareto, gaussian, sample_stream, true_vp
from heavytail_cs.rootfind import bisect
from heavytail_cs.schedules import LambdaSchedule, custom_list, power_law

ALPHA = 0.05
LOG2A = math.log(2.0 / ALPHA)


def config_p2(**kw):
    base = dict(p=2.0, v_p=1.0, alpha=ALPHA, schedule=power_law(1.0, 2.0))
    base.update(kw)
    return cat.CatoniConfig(**base)


def state_with(config, xs):
    st = cat.new_state(config)
    for x in xs:
        cat.update(st, x)
    return st


def f_n(state, config, x):
    """f_n(x) = sum_i phi(lambda_i (X_i - x)), as the endpoint solver evaluates it."""
    lam, xs = state.arrays()
    return cat._f_and_slope(config.influence, lam, xs, x)[0]


class TestConfig:
    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            config_p2(alpha=1.5)

    def test_t_validated(self):
        for t in (1.0, 0.0, math.nan, math.inf, lambda i: 0.5):
            with pytest.raises(ValueError, match="t must"):
                config_p2(t=t)

    def test_tau_validated(self):
        for tau in (0.0, -1.0, math.nan, math.inf, lambda n: 0.1):
            with pytest.raises(ValueError, match="tau must"):
                config_p2(tau=tau)

    @pytest.mark.parametrize("v_p", [0.0, math.nan, math.inf, -math.inf])
    def test_v_p_must_be_positive_and_finite(self, v_p):
        with pytest.raises(ValueError, match="v_p must be positive and finite"):
            config_p2(v_p=v_p)

    def test_influence_order_must_match(self):
        """The influence function is set from p; it is not an argument."""
        cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.1, schedule=power_law(1.0, 2.0))
        assert cfg.influence.p == 1.5
        with pytest.raises(TypeError):
            cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.1, schedule=power_law(1.0, 1.5), influence=None)


class TestState:
    def test_update_appends(self):
        st = state_with(config_p2(), [3.0])
        assert st.n == 1 and st.observations == [3.0]
        cat.update(st, -1.0)
        assert st.n == 2

    def test_nonfinite_rejected(self):
        st = cat.new_state(config_p2())
        with pytest.raises(ValueError):
            cat.update(st, math.inf)
        with pytest.raises(ValueError):
            cat.update(st, math.nan)

    def test_1e5_updates_match_batch(self):
        """Sequential prefix sums against one-shot vectorized recomputation."""
        cfg = config_p2()
        rng = np.random.default_rng(5)
        xs = rng.normal(size=10**5)
        st = state_with(cfg, xs.tolist())
        lam = cfg.schedule.head(10**5)
        assert st.n == 10**5
        assert st.sum_lambda == pytest.approx(float(np.sum(lam)), rel=1e-13)
        assert st.sum_lambda_p == pytest.approx(float(np.sum(lam**2)), rel=1e-13)


class TestPsiSum:
    """f_n, the sum whose level crossings are the endpoints."""

    def test_zero_at_observation(self):
        cfg = config_p2(schedule=custom_list([1.0]))
        st = state_with(cfg, [2.0])
        assert f_n(st, cfg, 2.0) == 0.0

    def test_single_obs_value(self):
        cfg = config_p2(schedule=custom_list([0.5]))
        st = state_with(cfg, [2.0])
        assert f_n(st, cfg, 0.0) == pytest.approx(math.log(2.5), rel=1e-15)

    def test_strictly_decreasing(self):
        cfg = config_p2()
        rng = np.random.default_rng(7)
        st = state_with(cfg, rng.standard_t(3, size=40).tolist())
        xs = np.linspace(-5, 5, 21)
        vals = [f_n(st, cfg, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_state_rejected(self):
        cfg = config_p2()
        with pytest.raises(ValueError, match="at least one observation"):
            cat.interval(cat.new_state(cfg), cfg)


class TestInterval:
    def test_single_obs_closed_form(self):
        """Endpoints = X -+ invert(target) by odd symmetry of the classic psi."""
        cfg = config_p2(schedule=custom_list([1.0]))
        st = state_with(cfg, [5.0])
        tgt = LOG2A + 0.5 * 1.0 * 1.0
        x = -1.0 + math.sqrt(2.0 * math.exp(tgt) - 1.0)  # closed-form inverse
        iv = cat.interval(st, cfg)
        assert iv.lower == pytest.approx(5.0 - x, abs=1e-8)
        assert iv.upper == pytest.approx(5.0 + x, abs=1e-8)

    def test_endpoints_hit_targets(self):
        cfg = config_p2()
        rng = np.random.default_rng(3)
        st = state_with(cfg, rng.normal(size=200).tolist())
        tgt = cat.target(cfg, st.sum_lambda_p)
        iv = cat.interval(st, cfg)
        # mapped tolerance: |f(root) - target| <= |f'| * root_tol <= sum(lam) * tol
        slack = st.sum_lambda * 1e-8
        assert f_n(st, cfg, iv.lower) == pytest.approx(tgt, abs=slack)
        assert f_n(st, cfg, iv.upper) == pytest.approx(-tgt, abs=slack)
        assert iv.lower <= iv.upper

    def test_near_degenerate_targets(self):
        """alpha -> 1, v_p -> 0: the band drops to log 2 and the interval
        closes onto X at strictly positive width 2*invert(log 2)."""
        cfg = config_p2(alpha=0.999, v_p=1e-12, schedule=custom_list([1.0]))
        st = state_with(cfg, [1.25])
        iv = cat.interval(st, cfg)
        halfwidth = -1.0 + math.sqrt(2.0 * math.exp(math.log(2.0 / 0.999)) - 1.0)
        assert iv.upper - iv.lower == pytest.approx(2.0 * halfwidth, rel=1e-6)
        assert iv.upper - iv.lower > 0.0
        assert iv.lower <= 1.25 <= iv.upper

    def test_translation_equivariance(self):
        cfg = config_p2()
        rng = np.random.default_rng(11)
        xs = rng.normal(size=100)
        shift = 1000.0
        iv0 = cat.interval(state_with(cfg, xs.tolist()), cfg)
        iv1 = cat.interval(state_with(cfg, (xs + shift).tolist()), cfg)
        # root_tol scales with the weighted mean, ~1e-9 * 1000 per endpoint
        assert iv1.lower - iv0.lower == pytest.approx(shift, abs=1e-5)
        assert iv1.upper - iv0.upper == pytest.approx(shift, abs=1e-5)

    def test_general_p_roots_unique_and_ordered(self):
        """tight_upper_general_p is strictly increasing, so each endpoint is
        the unique sign change of f_n; spot-check p = 1.5."""
        cfg = cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.1, schedule=power_law(1.0, 1.5))
        rng = np.random.default_rng(23)
        st = state_with(cfg, rng.standard_t(1.8, size=300).tolist())
        iv = cat.interval(st, cfg)
        assert iv.lower < iv.upper
        tgt = cat.target(cfg, st.sum_lambda_p)
        slack = st.sum_lambda * 1e-7
        assert f_n(st, cfg, iv.lower) == pytest.approx(tgt, abs=slack)

    def test_endpoints_beyond_float_range_are_infinite(self):
        """The ds_optimal weights at p = 1.5 make the band exceed f_n at every
        float x, so both true endpoints lie beyond the float range."""
        from heavytail_cs.dubins_savage import DsConfig, ds_optimal_schedule

        cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.05,
                               schedule=ds_optimal_schedule(DsConfig(1.5, 1.0, 0.05)))
        iv = cat.interval(state_with(cfg, [0.1, -0.2, 0.3]), cfg)
        assert (iv.lower, iv.upper) == (-math.inf, math.inf)

    def test_band_sums_lambda_at_config_p(self):
        """A p = 2 schedule under a p = 1.5 config: the band takes
        sum lambda_i^1.5 (target 32.27), not sum lambda_i^2 (13.72), and the
        streaming interval (width 0.694, not 0.295) equals the batch solve."""
        dist = centered_pareto(1.9)
        cfg = cat.CatoniConfig(p=1.5, v_p=true_vp(dist, 1.5), alpha=0.05, schedule=power_law(1.0, 2.0))
        x = sample_stream(dist, 3, 2000)
        st = state_with(cfg, x.tolist())
        lam = cfg.schedule.head(2000)
        tgt = cat.target(cfg, float(np.sum(lam**1.5)))
        assert st.sum_lambda_p == pytest.approx(float(np.sum(lam**1.5)), rel=1e-13)
        assert tgt == pytest.approx(32.27, abs=0.01)
        iv = cat.interval(st, cfg)
        lower, upper = cat.solve_interval_arrays(cfg.influence, lam, x, tgt)
        assert (iv.lower, iv.upper) == pytest.approx((lower, upper), rel=1e-12)

    @pytest.mark.parametrize("kind", ["power_law", "ds_optimal", "custom_list"])
    def test_streaming_equals_batch_bitwise(self, kind):
        """At every n the streaming interval is the batch solve over
        schedule.head(n) and x[:n] at the state's band, bit for bit: update
        and arrays() read one lambda formula."""
        from heavytail_cs.dubins_savage import DsConfig, ds_optimal_schedule

        n_max = 300
        dist = centered_pareto(1.9)
        v_p = true_vp(dist, 1.5)
        schedule = {
            "power_law": power_law(1.0, 1.5),
            "ds_optimal": ds_optimal_schedule(DsConfig(1.5, v_p, 0.05, b=20.0)),
            "custom_list": custom_list(0.9 / np.arange(1.0, n_max + 1.0) ** 0.6),
        }[kind]
        cfg = cat.CatoniConfig(p=1.5, v_p=v_p, alpha=0.05, schedule=schedule)
        x = sample_stream(dist, 3, n_max)
        st = cat.new_state(cfg)
        for n in range(1, n_max + 1):
            cat.update(st, x[n - 1])
            iv = cat.interval(st, cfg)
            tgt = cat.target(cfg, st.sum_lambda_p)
            batch = cat.solve_interval_arrays(cfg.influence, schedule.head(n), x[:n], tgt)
            assert (iv.lower, iv.upper) == batch, n
        assert math.isfinite(iv.upper - iv.lower)

    def test_state_p_must_match_config(self):
        cfg = config_p2()
        st = state_with(cat.CatoniConfig(p=1.5, v_p=1.0, alpha=ALPHA, schedule=power_law(1.0, 2.0)), [0.1, 0.2])
        with pytest.raises(ValueError, match="p = 1.5, config has p = 2.0"):
            cat.interval(st, cfg)


class TestSolveBudget:
    """Objective evaluations per interval: one fused f_n / f_n' pass each."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        original = cat._f_and_slope

        def f_and_slope(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(cat, "_f_and_slope", f_and_slope)
        return calls

    @pytest.mark.parametrize("dist, p", [(centered_pareto(1.9), 1.5), (gaussian(), 2.0)])
    def test_at_most_12_evaluations_at_1e4(self, monkeypatch, dist, p):
        n = 10_000
        cfg = cat.CatoniConfig(p=p, v_p=true_vp(dist, p), alpha=ALPHA, schedule=power_law(1.0, p))
        lam = cfg.schedule.head(n)
        tgt = cat.target(cfg, float(np.sum(lam**p)))
        calls = self.counted(monkeypatch)
        lower, upper = cat.solve_interval_arrays(cfg.influence, lam, sample_stream(dist, 5, n), tgt)
        assert lower < upper
        assert len(calls) <= 12

    def test_width_workload_inputs_at_p15(self, monkeypatch):
        """The README width run's Catoni solves: centred Pareto(1.9), p = 1.5,
        alpha = 0.001, stream seed 11.  From n = 3e5 on, the split remainder
        proves both Newton points at their first iterate (3 passes); below,
        a split cannot close, and the Hoelder remainder takes 5."""
        dist, p = centered_pareto(1.9), 1.5
        cfg = cat.CatoniConfig(p=p, v_p=true_vp(dist, p), alpha=0.001, schedule=power_law(1.0, p))
        ns = [1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000]
        lam, x = cfg.schedule.head(ns[-1]), sample_stream(dist, 11, ns[-1])
        calls = self.counted(monkeypatch)
        counts = []
        for n in ns:
            calls.clear()
            tgt = cat.target(cfg, float(np.sum(lam[:n] ** p)))
            lower, upper = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt)
            assert lower < upper
            counts.append(len(calls))
        assert counts == [5, 5, 5, 5, 5, 3, 3]

    def test_lil_inputs_at_p2(self, monkeypatch):
        """The lil-check solves: gaussian, p = 2, alpha = 0.05, stream seed 5, at
        lil-check's checkpoints to 1e5.  3 passes from n = 476 on, 4 to 6 below."""
        from heavytail_cs.harness import default_checkpoints

        cfg = config_p2()
        lam, x = cfg.schedule.head(100_000), sample_stream(gaussian(), 5, 100_000)
        calls = self.counted(monkeypatch)
        for n in default_checkpoints(100_000):
            calls.clear()
            cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], cat.target(cfg, float(np.sum(lam[:n] ** 2))))
            assert (len(calls) == 3) if n >= 476 else (4 <= len(calls) <= 6), n

    def test_infinite_endpoints_within_budget(self, monkeypatch):
        """The case of test_endpoints_beyond_float_range_are_infinite: the proven
        bracket is [-inf, inf], and each side reaches its infinite end by splitting
        the bracket's float ordinals, at most 64 times: 128 passes in all."""
        from heavytail_cs.dubins_savage import DsConfig, ds_optimal_schedule

        cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.05,
                               schedule=ds_optimal_schedule(DsConfig(1.5, 1.0, 0.05)))
        st = state_with(cfg, [0.1, -0.2, 0.3])
        calls = self.counted(monkeypatch)
        iv = cat.interval(st, cfg)
        assert (iv.lower, iv.upper) == (-math.inf, math.inf)
        assert len(calls) <= 128


class TestEpsilonN:
    """failure_budget, the sum of eps_n."""

    def test_failure_budget_finite_power_law(self):
        """alpha * sum eps_n converges."""
        cfg = config_p2(v_p=4.0)  # eps_n ~ n^-6: fast tail
        budget = cat.failure_budget(cfg)
        assert 0.0 < budget < ALPHA
        cfg15 = cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.05, schedule=power_law(1.0, 1.5))
        budget15 = cat.failure_budget(cfg15)
        assert 0.0 < budget15 < 0.05


class TestFailureBudget:
    """failure_budget is a certified upper bound within 1e-6 of exact, and rejects what it cannot certify."""

    @pytest.mark.parametrize(
        "cfg",
        [
            config_p2(t=0.5),
            config_p2(t=0.9),
            cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.05, schedule=power_law(1.0, 1.5)),
            cat.CatoniConfig(p=1.2, v_p=3.0, alpha=0.05, schedule=power_law(1.0, 1.2), t=0.3),
            config_p2(v_p=2.0, schedule=power_law(0.7, 2.0)),
        ],
        ids=["p2-t0.5", "p2-t0.9", "p1.5", "p1.2-t0.3", "c0.7"],
    )
    def test_within_two_sided_oracle(self, cfg):
        lower, upper = budget_oracle(cfg)
        assert lower <= cat.failure_budget(cfg) <= upper * (1.0 + 1e-6)

    def test_reads_one_head_block(self, monkeypatch):
        """The bound-validity config (p = 2, Gaussian v_p): one head block of 2^16 terms, then the closed-form tail."""
        cfg = config_p2(v_p=true_vp(gaussian(), 2.0))
        span, calls = LambdaSchedule.span, []
        monkeypatch.setattr(LambdaSchedule, "span", lambda s, start, stop: calls.append((start, stop)) or span(s, start, stop))
        assert 0.0 < cat.failure_budget(cfg) < ALPHA
        assert calls == [(1, 1 << 16)]

    def test_t09_oracle_bracket(self):
        """K = (1 + 1/0.9)/2 ~ 1.056: the tail past 2^22 is about 40 % of the sum."""
        lower, upper = budget_oracle(config_p2(t=0.9))
        assert 0.0243937478087 <= lower <= upper <= 0.0243937478165

    @pytest.mark.parametrize("v_p", [100.0, 300.0, 490.0, 1000.0, 1.7e308])
    def test_never_below_exact_where_terms_underflow(self, v_p):
        """p = 2, c = 1, t = 1/2: E_n = 3 C_2 v_p H_n, so e^-E_1 is 1.9e-66, 3.7e-196, 5e-320 (K = 735,
        summed) and 9e-655 (K = 1500, not summed); at v_p = 1.7e308, E_1 is past the float range.

        The exact sum, in mpmath, is at most the budget.  Where it is a normal
        float the budget is within 1e-7 of it (lowering E_n by its rounding
        bound costs about E_1 (2^16 + 64) eps, 7e-9 at v_p = 300); below, the
        budget is the smallest normal float.  Terms past n = 2000 add less
        than 2000^(1-K) relative to the first.
        """
        cfg = config_p2(v_p=v_p)
        k = mpmath.mpf(cfg.c_p) * v_p * 3
        exact = mpmath.mpf(cfg.alpha) ** 2 * mpmath.fsum(mpmath.exp(-k * mpmath.harmonic(n)) for n in range(1, 2001))
        budget = cat.failure_budget(cfg)
        assert exact <= budget
        if exact >= sys.float_info.min:
            assert budget <= exact * (1 + mpmath.mpf(1e-7))
        else:
            assert budget == sys.float_info.min

    @pytest.mark.parametrize(
        "cfg, match",
        [
            (config_p2(v_p=0.5), r"K = 0\.75\b"),
            (cat.CatoniConfig(p=1.5, v_p=0.5, alpha=0.05, schedule=power_law(1.0, 1.5)), r"K = 0\.529547\b"),
            (config_p2(schedule=custom_list([1.0] * 1000)), "every n >= 1"),
            (config_p2(schedule=power_law(1.0, 1.5)), "converges"),
            (cat.CatoniConfig(p=1.5, v_p=0.5, alpha=0.05, schedule=power_law(1, 2)), r"p = 2\b.*p = 1\.5\b"),
            (cat.CatoniConfig(p=1.5, v_p=0.1, alpha=0.05, schedule=power_law(1, 1.6)), r"p = 1\.6\b.*p = 1\.5\b"),
        ],
        ids=["K<1", "K<1-p1.5", "custom_list", "schedule-p-below-p", "schedule-p2-above-p1.5", "schedule-p1.6-above-p1.5"],
    )
    def test_rejects_at_once(self, cfg, match):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            cat.failure_budget(cfg)
        assert time.perf_counter() - start < 1.0

    def test_bound_validity_config_memory(self):
        """gaussian, p = 2, alpha = 0.05: a head of 2^16 terms and a closed-form tail.
        Summing about 8.4e6 terms in 2^20-term chunks peaked near 64 MB."""
        import tracemalloc

        cfg = config_p2(v_p=true_vp(gaussian(), 2.0))
        tracemalloc.start()
        try:
            cat.failure_budget(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestWidthBoundAt:
    """width_bound(cfg, n) is width_bound_curve(cfg, n_max) read at n, bit for bit."""

    @pytest.mark.parametrize(
        "cfg",
        [
            config_p2(),
            cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.05, schedule=power_law(1.0, 1.5), t=0.3, tau=0.7),
        ],
        ids=["p2", "p1.5"],
    )
    def test_equals_full_curve(self, cfg):
        full_b, full_c = cat.width_bound_curve(cfg, 5000)
        for n in (1, 2, 643, 644, 1000, 4999, 5000):
            bound = cat.width_bound(cfg, n)
            if full_c[n - 1]:
                assert bound == full_b[n - 1]
            else:
                assert bound is None and math.isnan(full_b[n - 1])


class TestCondition:
    def test_tiny_lambda_fails(self):
        cfg = config_p2(schedule=custom_list([1e-3]))
        assert not cat.width_bound_curve(cfg, 1)[1][0]
        assert cat.width_bound(cfg, 1) is None

    def test_crossover_at_644_and_permanent(self):
        """Scan oracle for the default p=2 config: first true at n0 = 644,
        true ever after (checked to 1e5 by the vectorized curve and
        cross-checked pointwise around the crossover)."""
        cfg = config_p2()
        _, cond = cat.width_bound_curve(cfg, 10**5)
        n0 = int(np.argmax(cond)) + 1
        assert n0 == 644
        assert bool(cond[n0 - 1 :].all())
        assert cat.width_bound(cfg, n0 - 1) is None
        assert cat.width_bound(cfg, n0) is not None
        assert cat.width_bound(cfg, 10**4) is not None

    @pytest.mark.parametrize("p", [2.0, 1.1])
    def test_huge_tau_false_without_overflow_warning(self, p):
        """(1 + tau)^(p/(p-1)) overflows at tau = 1e300: the condition is false everywhere, quietly
        (pytest turns warnings into errors)."""
        cfg = cat.CatoniConfig(p=p, v_p=1.0, alpha=ALPHA, schedule=power_law(1.0, p), tau=1e300)
        bounds, condition = cat.width_bound_curve(cfg, 10**4)
        assert not condition.any()
        assert np.isnan(bounds).all()


class TestWidthBound:
    def test_not_applicable_below_crossover(self):
        cfg = config_p2()
        assert cat.width_bound(cfg, 10) is None

    def test_value_against_independent_recomputation(self):
        """Plain-python fsum recomputation of the closed form at n = 1e4."""
        cfg = config_p2()
        n = 10**4
        lams = [1.0 / math.sqrt(i) for i in range(1, n + 1)]
        s1 = math.fsum(lams)
        s_plus = math.fsum(l * l * (1.0 + 2.0) for l in lams)  # t = 1/2
        expected = 4.0 * 1.1 * (0.5 * 1.0 * s_plus + LOG2A) / s1
        assert cat.width_bound(cfg, n) == pytest.approx(expected, rel=1e-12)

    def test_rate_shape(self):
        """bound / (log n * n^(-1/2)) stays inside a fixed band on [1e3, 1e6];
        scan oracle gave values in [4.0, 4.9]."""
        cfg = config_p2()
        bounds, cond = cat.width_bound_curve(cfg, 10**6)
        for n in np.geomspace(1e3, 1e6, 10).astype(int):
            assert cond[n - 1]
            ratio = bounds[n - 1] / (math.log(n) * n**-0.5)
            assert 3.0 < ratio < 6.0

    def test_curve_matches_scalar(self):
        cfg = config_p2()
        bounds, cond = cat.width_bound_curve(cfg, 2000)
        for n in (1, 100, 643, 644, 1500):
            scalar = cat.width_bound(cfg, n)
            if scalar is None:
                assert not cond[n - 1] and math.isnan(bounds[n - 1])
            else:
                assert cond[n - 1]
                assert scalar == pytest.approx(bounds[n - 1], rel=1e-12)


class TestSupermartingale:
    def test_mc_mean_at_most_one(self):
        """Sample means of M_n^+ and M_n^- stay within 1 + 3 se (small run;
        the acceptance suite runs the full 1e4-replication version)."""
        cfg = config_p2()
        lam = cfg.schedule.head(100)
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2000, 100))
        drift = 0.5 * np.cumsum(lam**2)
        for sign in (+1, -1):
            logm = sign * np.cumsum(cfg.influence(lam * x), axis=1) - drift
            m = np.exp(logm[:, -1])
            se = m.std() / math.sqrt(m.size)
            assert m.mean() <= 1.0 + 3.0 * se


class TestWidthBoundInternals:
    """Supporting quantities behind the width bound."""

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.0])
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0])
    def test_reduced_root_bound(self, p, tau):
        """The lemma behind width_bound_curve's condition: the smallest positive
        root y(D) of y^p - y + D = 0 (in (0, y*], y* = p^(-1/(p-1)) the
        minimizer) obeys y(D) <= (1 + tau) D whenever
        D <= tau^(1/(p-1)) / (1+tau)^(p/(p-1))."""
        d_max = tau ** (1.0 / (p - 1.0)) / (1.0 + tau) ** (p / (p - 1.0))
        y_star = (1.0 / p) ** (1.0 / (p - 1.0))
        for frac in (0.1, 0.5, 0.9, 1.0):
            d = frac * d_max
            y = bisect(lambda v: v**p - v + d, 0.0, y_star, 1e-14)
            assert y ** p - y + d == pytest.approx(0.0, abs=1e-12)
            assert y <= (1.0 + tau) * d * (1.0 + 1e-9)

    def test_endpoint_inside_b_plus_root_bound(self):
        """On the conservative event, the upper endpoint stays below
        mu + (1+tau) M_n, the quantity the factor-4 bound doubles."""
        cfg = config_p2()
        n = 2000
        lam = cfg.schedule.head(n)
        rng = np.random.default_rng(37)
        x = rng.normal(size=n)
        tgt = cat.target(cfg, float(np.sum(lam**2)))
        _, upper = cat.solve_interval_arrays(cfg.influence, lam, x, tgt)
        bound = cat.width_bound(cfg, n)
        assert bound is not None
        assert upper <= 0.0 + 0.5 * bound  # mu = 0 here
