"""Catoni confidence sequence: state, endpoints, width-bound machinery,
supermartingales."""

import math

import numpy as np
import pytest

from heavytail_cs import catoni_cs as cat
from heavytail_cs.influence import CATONI_CLASSIC_P2, make_influence
from heavytail_cs.schedules import custom_list, power_law

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


class TestConfig:
    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            config_p2(alpha=1.5)

    def test_t_validated(self):
        with pytest.raises(ValueError, match="t must"):
            config_p2(t=1.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError, match="tau"):
            config_p2(tau=0.0)

    def test_influence_order_must_match(self):
        with pytest.raises(ValueError, match="influence order"):
            cat.CatoniConfig(
                p=1.5, v_p=1.0, alpha=0.1, schedule=power_law(1.0, 1.5),
                influence=make_influence(2.0, CATONI_CLASSIC_P2),
            )

    def test_callable_t_and_tau(self):
        cfg = config_p2(t=lambda i: 0.5 / (1 + 0.01 * i), tau=lambda n: 0.1 + 1.0 / n)
        assert cfg.t_at(1) == pytest.approx(0.5 / 1.01)
        assert cfg.tau_at(2) == pytest.approx(0.6)


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
        assert st.prefix.n == 10**5
        assert st.prefix.sum_lambda == pytest.approx(float(np.sum(lam)), rel=1e-13)
        assert st.prefix.sum_lambda_p == pytest.approx(float(np.sum(lam**2)), rel=1e-13)


class TestPsiSum:
    def test_zero_at_observation(self):
        cfg = config_p2(schedule=custom_list([1.0]))
        st = state_with(cfg, [2.0])
        assert cat.psi_sum(st, cfg, 2.0) == 0.0

    def test_single_obs_value(self):
        cfg = config_p2(schedule=custom_list([0.5]))
        st = state_with(cfg, [2.0])
        assert cat.psi_sum(st, cfg, 0.0) == pytest.approx(math.log(2.5), rel=1e-15)

    def test_strictly_decreasing(self):
        cfg = config_p2()
        rng = np.random.default_rng(7)
        st = state_with(cfg, rng.standard_t(3, size=40).tolist())
        xs = np.linspace(-5, 5, 21)
        vals = [cat.psi_sum(st, cfg, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_state_rejected(self):
        cfg = config_p2()
        with pytest.raises(ValueError):
            cat.psi_sum(cat.new_state(cfg), cfg, 0.0)


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
        tgt = cat.target(cfg, st.prefix.sum_lambda_p)
        iv = cat.interval(st, cfg)
        # mapped tolerance: |f(root) - target| <= |f'| * root_tol <= sum(lam) * tol
        slack = st.prefix.sum_lambda * 1e-8
        assert cat.psi_sum(st, cfg, iv.lower) == pytest.approx(tgt, abs=slack)
        assert cat.psi_sum(st, cfg, iv.upper) == pytest.approx(-tgt, abs=slack)
        assert iv.lower <= iv.upper

    def test_near_degenerate_targets(self):
        """alpha -> 1, v_p -> 0: the band drops to log 2 and the interval
        closes onto X at strictly positive width 2*invert(log 2)."""
        cfg = config_p2(alpha=0.999, v_p=1e-12, schedule=custom_list([1.0]))
        st = state_with(cfg, [1.25])
        iv = cat.interval(st, cfg)
        halfwidth = -1.0 + math.sqrt(2.0 * math.exp(math.log(2.0 / 0.999)) - 1.0)
        assert iv.width == pytest.approx(2.0 * halfwidth, rel=1e-6)
        assert iv.width > 0.0
        assert iv.contains(1.25)

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
        """tight_upper_general_p is strictly increasing, so bisection always
        terminates on a sign-change bracket; spot-check p = 1.5."""
        cfg = cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.1, schedule=power_law(1.0, 1.5))
        rng = np.random.default_rng(23)
        st = state_with(cfg, rng.standard_t(1.8, size=300).tolist())
        iv = cat.interval(st, cfg)
        assert iv.lower < iv.upper
        tgt = cat.target(cfg, st.prefix.sum_lambda_p)
        slack = st.prefix.sum_lambda * 1e-7
        assert cat.psi_sum(st, cfg, iv.lower) == pytest.approx(tgt, abs=slack)

    def test_running_intersection(self):
        cfg = config_p2()
        st = cat.new_state(cfg)
        ivs = []
        for x in (0.3, -0.2, 0.9, 0.1):
            cat.update(st, x)
            ivs.append(cat.interval(st, cfg))
        inter = cat.running_intersection(ivs)
        los, his = zip(*inter)
        assert all(a <= b for a, b in zip(los, los[1:]))  # lowers nondecreasing
        assert all(a >= b for a, b in zip(his, his[1:]))  # uppers nonincreasing
        assert all(lo >= iv.lower and hi <= iv.upper for (lo, hi), iv in zip(inter, ivs))

    def test_endpoints_beyond_float_range_are_infinite(self):
        """The ds_optimal weights at p = 1.5 make the band exceed f_n at every
        float x, so both true endpoints lie beyond the float range."""
        from heavytail_cs.dubins_savage import DsConfig, ds_optimal_schedule

        cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.05,
                               schedule=ds_optimal_schedule(DsConfig(1.5, 1.0, 0.05)))
        iv = cat.interval(state_with(cfg, [0.1, -0.2, 0.3]), cfg)
        assert (iv.lower, iv.upper) == (-math.inf, math.inf)


class TestEpsilonN:
    def test_single_step_value(self):
        cfg = config_p2(schedule=custom_list([1.0]), t=0.5)
        assert cat.epsilon_n(cfg, 1) == pytest.approx(ALPHA * math.exp(-1.5), rel=1e-14)

    def test_vacuous_exponent_gives_alpha(self):
        cfg = config_p2(schedule=power_law(1e-200, 2.0))
        assert cat.epsilon_n(cfg, 3) == pytest.approx(ALPHA, rel=1e-15)

    def test_in_range_and_decreasing(self):
        cfg = config_p2()
        vals = [cat.epsilon_n(cfg, n) for n in (1, 2, 5, 10, 100)]
        assert all(0.0 < v <= ALPHA for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_failure_budget_finite_power_law(self):
        """alpha * sum eps_n converges; summed to term < 1e-16."""
        cfg = config_p2(v_p=4.0)  # eps_n ~ n^-6: fast tail
        budget = cat.failure_budget(cfg, term_floor=1e-16)
        assert 0.0 < budget < ALPHA
        cfg15 = cat.CatoniConfig(p=1.5, v_p=2.0, alpha=0.05, schedule=power_law(1.0, 1.5))
        budget15 = cat.failure_budget(cfg15, term_floor=1e-16)
        assert 0.0 < budget15 < 0.05


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
    def test_empty_product(self):
        cfg = config_p2()
        st = cat.new_state(cfg)
        assert cat.supermartingale(st, cfg, +1, 0.0) == 1.0

    def test_single_obs_basic_form(self):
        cfg = config_p2(schedule=custom_list([1.0]))
        st = state_with(cfg, [2.0])
        out = cat.supermartingale(st, cfg, +1, 2.0, use_t=False)
        assert out == pytest.approx(math.exp(0.0 - 0.5 * 1.0 * 1.0), rel=1e-14)

    def test_general_x_terms(self):
        """Hand-built single-observation evaluation of the general process."""
        cfg = config_p2(schedule=custom_list([0.5]), t=0.25)
        st = state_with(cfg, [1.0])
        mu, x = 0.2, -0.3
        lam = 0.5
        phi = cfg.influence(lam * (1.0 - x))
        expect = math.exp(
            -phi
            + (mu - x) * lam
            - 0.5 * 1.0 * lam**2 * (1.0 / 0.25)
            - 0.5 * abs(mu - x) ** 2 * lam**2 * (1.0 / 0.75)
        )
        assert cat.supermartingale(st, cfg, -1, x, mu=mu) == pytest.approx(expect, rel=1e-12)

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

    def test_state_path_matches_vectorized(self):
        cfg = config_p2()
        rng = np.random.default_rng(31)
        xs = rng.normal(size=50)
        st = state_with(cfg, xs.tolist())
        lam = cfg.schedule.head(50)
        expect = float(np.exp(np.sum(cfg.influence(lam * xs)) - 0.5 * np.sum(lam**2)))
        assert cat.supermartingale(st, cfg, +1, 0.0, use_t=False) == pytest.approx(expect, rel=1e-12)


class TestWidthBoundInternals:
    """Supporting quantities behind the width bound."""

    def test_b_plus_convex_with_closed_form_minimizer(self):
        cfg = cat.CatoniConfig(p=1.5, v_p=1.3, alpha=0.1, schedule=power_law(1.0, 1.5))
        n, mu = 50, 0.7
        z = cat.b_plus_minimizer(cfg, n, mu)
        assert z > mu
        grid = np.linspace(z - 0.5, z + 0.5, 101)
        vals = [cat.b_plus(cfg, n, float(g), mu) for g in grid]
        assert min(vals) >= cat.b_plus(cfg, n, z, mu) - 1e-9
        d2 = np.diff(vals, 2)
        assert np.all(d2 > -1e-9)  # convex along the grid

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.0])
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0])
    def test_reduced_root_bound(self, p, tau):
        """y(D) <= (1 + tau) D whenever D <= tau^(1/(p-1))/(1+tau)^(p/(p-1))."""
        d_max = tau ** (1.0 / (p - 1.0)) / (1.0 + tau) ** (p / (p - 1.0))
        for frac in (0.1, 0.5, 0.9, 1.0):
            d = frac * d_max
            y = cat.reduced_root(d, p)
            assert y ** p - y + d == pytest.approx(0.0, abs=1e-12)
            assert y <= (1.0 + tau) * d * (1.0 + 1e-9)

    def test_reduced_root_rejects_large_d(self):
        with pytest.raises(ValueError):
            cat.reduced_root(1.0, 2.0)  # min of y^2 - y + 1 is 3/4 > 0

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
