"""Distributions, moments, and the Monte Carlo experiment layer."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from heavytail_cs.harness import (
    centered_pareto,
    gaussian,
    run_bound_validity,
    run_coverage,
    run_width,
    sample_stream,
    student_t,
    substream,
    true_std,
    true_vp,
    two_point,
)
from heavytail_cs.schedules import power_law

RADEMACHER = two_point([-1.0, 1.0], [0.5, 0.5])


class TestSampling:
    def test_two_point_support(self):
        x = sample_stream(RADEMACHER, 42, 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_gaussian_clt_band(self):
        x = sample_stream(gaussian(0, 1), 7, 10**6)
        assert abs(x.mean()) <= 4.0 / math.sqrt(10**6)

    def test_seed_determinism(self):
        a = sample_stream(gaussian(0, 1), 3, 100)
        b = sample_stream(gaussian(0, 1), 3, 100)
        np.testing.assert_array_equal(a, b)

    def test_rep_substreams_differ(self):
        a = sample_stream(gaussian(0, 1), 3, 100, rep=0)
        b = sample_stream(gaussian(0, 1), 3, 100, rep=1)
        assert not np.array_equal(a, b)

    def test_substream_is_seed_split(self):
        x = substream(3, 5).normal(size=4)
        y = substream(3, 5).normal(size=4)
        np.testing.assert_array_equal(x, y)

    def test_centered_pareto_support_and_mean(self):
        d = centered_pareto(1.9, 1.0)
        x = sample_stream(d, 11, 10**5)
        assert d.true_mean == 0.0
        assert x.min() >= 1.0 - 1.9 / 0.9 - 1e-12  # support starts at scale - raw mean

    def test_student_t_location(self):
        d = student_t(1.8, location=3.0)
        x = sample_stream(d, 13, 10**5)
        assert abs(np.median(x) - 3.0) < 0.05  # median = location for symmetric t


class TestTrueVp:
    def test_gaussian_p2_is_variance(self):
        assert true_vp(gaussian(0.0, 1.7), 2.0) == pytest.approx(1.7**2, rel=1e-14)

    def test_gaussian_p15_closed_form(self):
        # 2^(3/4) Gamma(1.25)/sqrt(pi)
        expect = 2.0**0.75 * math.gamma(1.25) / math.sqrt(math.pi)
        assert true_vp(gaussian(0, 1), 1.5) == pytest.approx(expect, rel=1e-14)

    def test_two_point_unit(self):
        for p in (1.1, 1.5, 2.0):
            assert true_vp(RADEMACHER, p) == 1.0

    def test_student_t_closed_form_vs_quadrature(self):
        """nu^(p/2) G((p+1)/2) G((nu-p)/2) / (sqrt(pi) G(nu/2)) against direct
        scipy quadrature of |x|^p t-density (independent route)."""
        val = true_vp(student_t(1.8), 1.5)
        quad, _ = integrate.quad(lambda x: abs(x) ** 1.5 * stats.t.pdf(x, 1.8), -np.inf, np.inf)
        assert val == pytest.approx(quad, rel=1e-8)
        assert val == pytest.approx(4.6257603424044, rel=1e-10)  # frozen 40-digit value

    def test_pareto_quadrature_vs_mpmath_oracle(self):
        """scipy quadrature against an arbitrary-precision mpmath evaluation."""
        assert true_vp(centered_pareto(1.9, 1.0), 1.5) == pytest.approx(
            2.7953099223432554, rel=1e-9
        )

    def test_pareto_quadrature_vs_large_mc(self):
        """1e8-sample Monte Carlo cross-check of the quadrature route.

        |X - mu|^1.5 has tail index 1.9/1.5 < 2: the raw summand has
        infinite variance, so a plain 3-standard-error band around the raw
        MC mean is not a valid test (the sample mean sits below the truth
        for most seeds, with the deficit carried by rare huge draws).  The
        sound cross-check splits at a truncation point T: the truncated
        summand is bounded (CLT applies; MC vs quadrature within 3 se) and
        the tail integral above T is evaluated exactly by quadrature and
        must close the gap to true_vp.
        """
        d = centered_pareto(1.9, 1.0)
        v = true_vp(d, 1.5)
        beta, raw_mean, T = 1.9, 1.9 / 0.9, 100.0
        f = lambda x: abs(x - raw_mean) ** 1.5 * beta * x ** (-beta - 1.0)
        head_quad = integrate.quad(f, 1.0, raw_mean, epsrel=1e-11)[0] + integrate.quad(
            f, raw_mean, T, epsrel=1e-11
        )[0]
        tail_quad = integrate.quad(f, T, np.inf, epsrel=1e-11)[0]
        assert head_quad + tail_quad == pytest.approx(v, rel=1e-8)

        total = total_sq = 0.0
        n_total = 10**8
        chunk = 5 * 10**6
        rng = substream(20250810, 0)
        for _ in range(n_total // chunk):
            u = rng.random(chunk)
            x = (1.0 - u) ** (-1.0 / beta)
            y = np.where(x <= T, np.abs(x - raw_mean) ** 1.5, 0.0)
            total += float(y.sum())
            total_sq += float((y * y).sum())
        mean = total / n_total
        se = math.sqrt(max(total_sq / n_total - mean * mean, 0.0) / n_total)
        assert abs(mean - head_quad) <= 3.0 * se

    def test_infinite_moment_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            true_vp(centered_pareto(1.9, 1.0), 1.9)
        with pytest.raises(ValueError, match="infinite"):
            true_vp(centered_pareto(1.9, 1.0), 1.86)  # inside the 0.05 margin
        assert true_vp(centered_pareto(1.9, 1.0), 1.85) > 0  # at the margin: allowed
        with pytest.raises(ValueError, match="infinite"):
            true_vp(student_t(1.8), 2.0)

    def test_true_std(self):
        assert true_std(gaussian(0, 2.5)) == 2.5
        assert true_std(RADEMACHER) == 1.0
        with pytest.raises(ValueError):
            true_std(centered_pareto(1.9, 1.0))


class TestCoverage:
    def test_single_rep_rate_is_zero_or_one(self):
        rep = run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 100, 1, seed=1)
        assert rep.miscoverage_rate in (0.0, 1.0)

    def test_alpha_half(self):
        rep = run_coverage("catoni", gaussian(0, 1), 2.0, 0.5, 2000, 200, seed=2)
        assert rep.miscoverage_rate <= 0.5 + 3.0 * math.sqrt(0.25 / 200)

    @pytest.mark.parametrize("method", ["catoni", "ds"])
    def test_gaussian_quick_coverage(self, method):
        rep = run_coverage(method, gaussian(0, 1), 2.0, 0.05, 2000, 200, seed=3)
        assert rep.miscoverage_rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 200)

    def test_parallel_serial_equivalence(self):
        serial = run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 500, 60, seed=4, threads=1)
        parallel = run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 500, 60, seed=4, threads=4)
        assert serial == parallel

    def test_understated_vp_rejected(self):
        with pytest.raises(ValueError, match="understates"):
            run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 100, 2, seed=5, v_p=0.5)

    def test_stride_recorded_and_coarsens(self):
        rep = run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 1000, 50, seed=6, stride=10)
        assert rep.stride == 10

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_coverage("median", gaussian(0, 1), 2.0, 0.05, 10, 1, seed=0)


class TestWidthRuns:
    def test_checkpoints_sorted_and_positive(self):
        rep = run_width("catoni", gaussian(0, 1), 2.0, 0.05, 2000, seed=8, reps=2)
        ns = [c.n for c in rep.checkpoints]
        assert ns == sorted(ns)
        assert all(c.mean_width > 0 for c in rep.checkpoints)

    def test_bound_na_iff_condition_false(self):
        rep = run_width("catoni", gaussian(0, 1), 2.0, 0.05, 2000, seed=8)
        for c in rep.checkpoints:
            assert (c.bound is None) == (c.condition is False)

    def test_catoni_narrower_than_ds_small_alpha(self):
        """Identical streams, alpha = 0.001, default schedules."""
        kw = dict(checkpoints=[10**4], seed=9)
        cat_w = run_width("catoni", gaussian(0, 1), 2.0, 0.001, 10**4, **kw)
        ds_w = run_width("ds", gaussian(0, 1), 2.0, 0.001, 10**4, **kw)
        assert cat_w.checkpoints[-1].mean_width < ds_w.checkpoints[-1].mean_width

    def test_ds_width_deterministic_across_reps(self):
        """Data-free widths: the mean over 3 reps is the single-rep width."""
        many = run_width("ds", gaussian(0, 1), 2.0, 0.05, 500, seed=10, reps=3)
        one = run_width("ds", gaussian(0, 1), 2.0, 0.05, 500, seed=10, reps=1)
        for c, c1 in zip(many.checkpoints, one.checkpoints, strict=True):
            assert c.mean_width == pytest.approx(c1.mean_width, rel=1e-15)

    def test_bad_checkpoints(self):
        with pytest.raises(ValueError):
            run_width("ds", gaussian(0, 1), 2.0, 0.05, 100, seed=0, checkpoints=[0, 50])
        with pytest.raises(ValueError):
            run_width("ds", gaussian(0, 1), 2.0, 0.05, 100, seed=0, checkpoints=[50, 200])


class TestCompare:
    def test_ds_alpha_sweep_ratios(self):
        """Adjacent-decade DS width ratios track 10^(1/p) within 10%."""
        for p in (1.5, 2.0):
            widths = [
                run_width("ds", RADEMACHER, p, alpha, 10**5, seed=13, checkpoints=[10**5]).checkpoints[0].mean_width
                for alpha in (0.1, 0.01, 0.001)
            ]
            for big, small in zip(widths, widths[1:]):
                assert small / big == pytest.approx(10.0 ** (1.0 / p), rel=0.10)


class TestBoundValidity:
    def test_small_run_no_violations(self):
        rep = run_bound_validity(gaussian(0, 1), 2.0, 0.05, 5000, 10, seed=14)
        assert rep.n0 == 644
        assert rep.condition_permanent
        assert rep.violating_reps == 0
        assert 0.0 < rep.failure_budget < 0.05

    def test_direct_solve_agreement(self):
        """Cross-check the conservative verdict by exact endpoint solves on a
        grid of applicable n."""
        from heavytail_cs import catoni_cs as cat

        cfg = cat.CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))
        n_max = 3000
        lam = cfg.schedule.head(n_max)
        band = math.log(2.0 / 0.05) + 0.5 * np.cumsum(lam**2)
        bounds, cond = cat.width_bound_curve(cfg, n_max)
        for r in range(10):
            x = sample_stream(gaussian(0, 1), 14, n_max, rep=r)
            for n in (700, 1000, 1800, 3000):
                assert cond[n - 1]
                lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], float(band[n - 1]))
                assert hi - lo <= bounds[n - 1]
