"""Iterated-logarithm width floor and the Y-moment asymptotics."""

import math
from collections import namedtuple

import numpy as np
import pytest

from heavytail_cs import catoni_cs as cat
from heavytail_cs.harness import gaussian, sample_stream, true_std, two_point
from heavytail_cs.influence import default_influence
from heavytail_cs.lower_bound import LilConfig, lil_floor_curve, lil_trace
from heavytail_cs.schedules import custom_list, power_law


def lil_config(**kw):
    base = dict(sigma=1.0, schedule=power_law(1.0, 2.0))
    base.update(kw)
    return LilConfig(**base)


def floor_at(cfg, n):
    """The floor at n, read off the curve; NaN while it does not apply."""
    return float(lil_floor_curve(cfg, n)[n - 1])


class TestConfig:
    def test_default_a_is_half_supremum(self):
        assert lil_config().a == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_a_range_strict(self):
        with pytest.raises(ValueError):
            lil_config(a=2.0 * math.sqrt(2.0))  # the supremum itself is out
        with pytest.raises(ValueError):
            lil_config(a=0.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be positive and finite"):
            lil_config(sigma=sigma)


class TestFloor:
    def test_not_applicable_while_sum_below_e(self):
        # harmonic sums: H_8 = 2.71786 < e < H_9 = 2.82897
        curve = lil_floor_curve(lil_config(), 9)
        assert math.isnan(curve[7])
        assert not math.isnan(curve[8])

    def test_harmonic_sum_oracle_at_1e4(self):
        """Frozen 40-digit evaluation: H_1e4 = 9.78761, sum(1/sqrt<i>) =
        198.54465, floor(a = sqrt(2)) = 0.0202364."""
        cfg = lil_config()
        assert floor_at(cfg, 10**4) == pytest.approx(0.020236429581193454, rel=1e-12)

    def test_linear_in_a(self):
        lo = floor_at(lil_config(a=0.5), 1000)
        hi = floor_at(lil_config(a=1.5), 1000)
        assert hi == pytest.approx(3.0 * lo, rel=1e-12)

    def test_curve_matches_scalar(self):
        """The floor at n does not depend on how far the curve runs."""
        cfg = lil_config()
        curve = lil_floor_curve(cfg, 200)
        for n in (1, 8, 9, 50, 200):
            np.testing.assert_array_equal(lil_floor_curve(cfg, n), curve[:n])


class TestTheta:
    """theta_n = s_n (2 log log s_n^2)^(1/2) as lil_trace divides by it: one
    +-1 draw (sigma = 1) with lambda_1 = s_1."""

    @staticmethod
    def one_step_trace(lam):
        dist = two_point([-1, 1], [0.5, 0.5])
        y = default_influence(2.0)(lam * sample_stream(dist, 113, 1)[0])
        return y, lil_trace(dist, custom_list([lam]), 1, seed=113)[0]

    def test_e_squared_value(self):
        # s_n^2 = e^2: theta = e sqrt(2 log 2) = 3.20053226884937
        y, ratio = self.one_step_trace(math.e)
        assert y / ratio == pytest.approx(3.2005322688493702, rel=1e-13)

    def test_not_applicable(self):
        assert math.isnan(self.one_step_trace(1.6)[1])  # 1.6^2 = 2.56 < e
        assert math.isnan(self.one_step_trace(1.0)[1])


YRow = namedtuple("YRow", "lam var_ratio mean_abs mean_bound mean_std_err")


def y_moments(dist, i_max, reps, seed):
    """Monte Carlo moments of Y = psi(lambda_i (X - mu)), psi the p = 2 influence
    function and lambda_i = i^(-1/2), at i on a 6-point log grid up to i_max:
    `reps` draws (replication k for the k-th grid point) per row."""
    psi = default_influence(2.0)
    sigma2 = true_std(dist) ** 2
    grid = sorted(set(np.geomspace(1, i_max, 6).astype(int).tolist()))
    rows = []
    for k, i in enumerate(grid):
        lam = power_law(1.0, 2.0).at(i)
        y = psi(lam * (sample_stream(dist, seed, reps, rep=k) - dist.true_mean))
        rows.append(YRow(lam, float(np.var(y)) / (lam * lam * sigma2), abs(float(np.mean(y))),
                         lam * lam * sigma2 / 2.0, float(np.std(y)) / math.sqrt(reps)))
    return rows


class TestYMoments:
    """Var(Y_i) ~ lambda_i^2 sigma^2 as lambda_i -> 0, the premise of theta_n."""

    def test_small_lambda_ratio_near_one(self):
        """Var(psi(lambda X)) / (lambda^2 sigma^2) in [0.99, 1.01] at
        lambda = 1e-3 with 1e6 Gaussian samples (Taylor regime)."""
        tail = y_moments(gaussian(0, 1), i_max=10**6, reps=10**6, seed=101)[-1]
        assert tail.lam == pytest.approx(1e-3, rel=1e-12)
        assert 0.99 <= tail.var_ratio <= 1.01

    def test_large_lambda_damps_variance(self):
        head = y_moments(gaussian(0, 1), i_max=10**6, reps=10**5, seed=103)[0]
        assert head.lam == 1.0
        assert head.var_ratio < 0.9  # psi clips the tails

    def test_ratio_climbs_toward_one(self):
        rows = y_moments(gaussian(0, 1), i_max=10**6, reps=10**5, seed=105)
        assert rows[0].var_ratio < rows[-1].var_ratio

    def test_mean_bound(self):
        """|E Y| <= lambda^2 sigma^2 / 2 up to 3 MC standard errors."""
        for r in y_moments(two_point([-1, 1], [0.5, 0.5]), i_max=10**4, reps=2 * 10**5, seed=107):
            assert r.mean_abs <= r.mean_bound + 3.0 * r.mean_std_err


class TestFloorVsWidth:
    def test_floor_below_deterministic_width_bound_everywhere(self):
        """For the 1-Lipschitz classic psi, every realized width obeys
        width_n >= 2 band_n / sum(lambda_i); the floor stays below that
        deterministic envelope for all applicable n <= 1e5 (max ratio
        0.2414 at the scan), so the sandwich holds in every replication."""
        n_max = 10**5
        cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
        lam = cfg.schedule.head(n_max)
        band = math.log(2.0 / cfg.alpha) + 0.5 * np.cumsum(lam**2)
        det_lower = 2.0 * band / np.cumsum(lam)
        floor = lil_floor_curve(lil_config(), n_max)
        ok = ~np.isnan(floor)
        assert int(np.argmax(ok)) + 1 == 9  # first applicable n
        ratio = floor[ok] / det_lower[ok]
        assert float(ratio.max()) == pytest.approx(0.24138, abs=5e-4)
        assert np.all(floor[ok] <= det_lower[ok])

    def test_floor_stays_below_width_bound(self):
        """floor / analytic width bound lies in (0, 1] once both apply, and
        the two scale as sqrt(S2 loglog S2)/S1 vs (S2 + const)/S1."""
        cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
        lil = lil_config()
        floor = lil_floor_curve(lil, 10**5)
        for n in (1000, 10**4, 10**5):
            bound = cat.width_bound(cfg, n)
            assert bound is not None
            assert 0.0 < floor[n - 1] / bound <= 1.0
        # shape: the bound/floor ratio grows like sqrt(S2)/sqrt(loglog S2)
        r1 = cat.width_bound(cfg, 10**3) / floor[10**3 - 1]
        r2 = cat.width_bound(cfg, 10**5) / floor[10**5 - 1]
        assert r2 > r1 > 1.0

    def test_empirical_widths_beat_floor_at_checkpoints(self):
        """Direct endpoint solves on 5 Gaussian replications; the acceptance
        suite runs the 100-replication version."""
        n_max = 3000
        cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
        lam = cfg.schedule.head(n_max)
        cum_band = math.log(2.0 / cfg.alpha) + 0.5 * np.cumsum(lam**2)
        floor = lil_floor_curve(lil_config(), n_max)
        rng = np.random.default_rng(109)
        for _ in range(5):
            x = rng.normal(size=n_max)
            for n in (9, 20, 100, 500, 3000):
                lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], float(cum_band[n - 1]))
                assert hi - lo >= floor[n - 1]


class TestTrace:
    def test_shape_and_nan_head(self):
        ratio = lil_trace(gaussian(0, 1), power_law(1.0, 2.0), 500, seed=111)
        assert ratio.shape == (500,)
        assert np.all(np.isnan(ratio[:8]))  # theta undefined until n = 9
        assert np.all(np.isfinite(ratio[8:]))
