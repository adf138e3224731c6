"""Distributions, moments, and the Monte Carlo experiment layer."""

import dataclasses
import math
import os
import re
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mp_pareto_vp, mp_phi
from scipy import integrate, stats

from heavytail_cs import catoni_cs as cat
from heavytail_cs import dubins_savage as ds
from heavytail_cs import harness
from heavytail_cs.harness import (
    _run_reps,
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
from heavytail_cs.schedules import SUM_CHUNK, LambdaSchedule, cumulative_powers, power_law

RADEMACHER = two_point([-1.0, 1.0], [0.5, 0.5])
#: (shape, p) pairs for the centred-Pareto moment; 1.5/1.45, 1.95/1.9 and
#: 2.0/1.95 put p at the TAIL_MARGIN edge.
PARETO_GRID = [(1.06, 1.01), (1.5, 1.1), (1.5, 1.45), (1.9, 1.5), (1.95, 1.9), (2.0, 1.95)]


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
        assert len({gaussian(0, 1), gaussian(0.0, 1.0), student_t(1.8), student_t(1.8), RADEMACHER}) == 3

    def test_rep_substreams_differ(self):
        a = sample_stream(gaussian(0, 1), 3, 100, rep=0)
        b = sample_stream(gaussian(0, 1), 3, 100, rep=1)
        assert not np.array_equal(a, b)

    def test_substream_is_seed_split(self):
        x = substream(3, 5).normal(size=4)
        y = substream(3, 5).normal(size=4)
        np.testing.assert_array_equal(x, y)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32) | st.integers(0, 2**300),
           rep=st.integers(0, 300) | st.integers(0, 2**32 - 1) | st.integers(2**32, 2**70))
    def test_sample_stream_draws_from_substream(self, seed, rep):
        """Bit for bit the numpy-seeded substream, for seeds of any word count and reps across blocks."""
        for dist in (gaussian(0.5, 2.0), centered_pareto(1.9), student_t(1.8), RADEMACHER):
            np.testing.assert_array_equal(sample_stream(dist, seed, 9, rep=rep), dist.draw(substream(seed, rep), 9))

    @pytest.mark.parametrize("seed, rep", [(-1, 0), (0, -1)])
    def test_negative_seed_or_rep_rejected(self, seed, rep):
        with pytest.raises(ValueError, match="non-negative"):
            sample_stream(gaussian(0, 1), seed, 3, rep=rep)

    def test_centered_pareto_support_and_mean(self):
        d = centered_pareto(1.9, 1.0)
        x = sample_stream(d, 11, 10**5)
        assert d.true_mean == 0.0
        assert x.min() >= 1.0 - 1.9 / 0.9 - 1e-12  # support starts at scale - raw mean

    def test_student_t_location(self):
        d = student_t(1.8, location=3.0)
        x = sample_stream(d, 13, 10**5)
        assert abs(np.median(x) - 3.0) < 0.05  # median = location for symmetric t


class TestDistributionValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, name", [
        (lambda v: gaussian(mean=v), "mean"),
        (lambda v: gaussian(sigma=v), "sigma"),
        (lambda v: centered_pareto(1.9, scale=v), "scale"),
        (lambda v: student_t(1.8, location=v), "location"),
        (lambda v: two_point([v, 1.0], [0.5, 0.5]), "values"),
        (lambda v: two_point([0.0, 1.0], [v, 0.5]), "probs"),
    ], ids=["gaussian_mean", "gaussian_sigma", "pareto_scale", "student_t_location", "two_point_values",
            "two_point_probs"])
    def test_non_finite_parameter_rejected(self, make, name, bad):
        with pytest.raises(ValueError, match=name):
            make(bad)


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

    def test_pareto_closed_form_vs_mpmath_oracle(self):
        """The closed form against a frozen 40-digit mpmath evaluation."""
        assert true_vp(centered_pareto(1.9, 1.0), 1.5) == pytest.approx(
            2.7953099223432554, rel=1e-14
        )

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("beta, p", PARETO_GRID)
    def test_pareto_closed_form_vs_quadrature(self, beta, p, scale):
        """Independent route: scipy quadrature of |x - mu|^p times the Pareto
        density, split at the mean.  The grid reaches p at the TAIL_MARGIN
        edge and shapes down to 1.06, where the series is longest.

        Above the mean the integral runs over u = mu_raw/x in (0, 1]: QUADPACK's
        own map of [mu_raw, inf) does not converge at shape 1.06 off unit
        scale.  epsabs = 0, as the moments at scale 1e-3 are near 1e-4.
        """
        raw_mean = beta * scale / (beta - 1.0)
        f = lambda x: abs(x - raw_mean) ** p * beta * scale**beta * x ** (-beta - 1.0)
        below = integrate.quad(f, scale, raw_mean, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        above = integrate.quad(lambda u: f(raw_mean / u) * raw_mean / u**2, 0.0, 1.0,
                               epsabs=0.0, epsrel=1e-11, limit=200)[0]
        assert true_vp(centered_pareto(beta, scale), p) == pytest.approx(below + above, rel=1e-9)

    @pytest.mark.parametrize("beta, p", PARETO_GRID)
    def test_pareto_closed_form_vs_hypergeometric(self, beta, p):
        """The same closed form at 40 digits (oracles.mp_pareto_vp), the part
        below the mean as a hypergeometric function: checks the truncated
        series and the float evaluation, at shapes where mpmath quadrature
        does not converge."""
        assert true_vp(centered_pareto(beta, 1.0), p) == pytest.approx(mp_pareto_vp(beta, p), rel=1e-14)

    @pytest.mark.parametrize("beta, p", PARETO_GRID)
    def test_pareto_scale_law(self, beta, p):
        unit = true_vp(centered_pareto(beta, 1.0), p)
        for scale in (1e-3, 0.37, 1e3):
            assert true_vp(centered_pareto(beta, scale), p) == pytest.approx(scale**p * unit, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.5, math.nan])
    def test_p_outside_domain_rejected(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            true_vp(gaussian(0, 1), p)

    def test_pareto_closed_form_vs_large_mc(self):
        """1e8-sample Monte Carlo cross-check of the closed form.

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

    @pytest.mark.parametrize("dist, p", [(gaussian(0.0, 1e200), 2.0), (centered_pareto(1.9, 1e250), 1.5)])
    def test_overflowing_moment_rejected(self, dist, p):
        """sigma^p or scale^p overflows: a ValueError naming the distribution and p, not an OverflowError."""
        with pytest.raises(ValueError, match=re.escape(f"E|X - mu|^{p} of {dist.label()} is not a finite float")):
            true_vp(dist, p)

    @pytest.mark.parametrize("dist, p", [(two_point([5.0], [1.0]), 1.5), (two_point([5.0], [1.0]), 2.0),
                                         (gaussian(0.0, 1e-300), 1.5)],
                             ids=["point_mass_1.5", "point_mass_2", "underflow"])
    def test_zero_moment_rejected(self, dist, p):
        """A point mass has moment 0, and sigma^p underflows to 0: a ValueError naming the distribution and p."""
        with pytest.raises(ValueError, match=re.escape(f"E|X - mu|^{p} of {dist.label()} is not positive: 0.0")):
            true_vp(dist, p)

    def test_two_point_wide_values(self):
        """Deviations of 1e200, whose squares overflow, still give std 1e200 and a finite p = 1.5 moment."""
        wide = two_point([-1e200, 1e200], [0.5, 0.5])
        assert true_std(wide) == 1e200
        assert true_vp(wide, 1.5) == pytest.approx(1e300, rel=1e-14)
        with pytest.raises(ValueError, match="is not a finite float: inf"):
            true_vp(wide, 2.0)

    def test_true_std(self):
        assert true_std(gaussian(0, 2.5)) == 2.5
        assert true_std(RADEMACHER) == 1.0
        with pytest.raises(ValueError):
            true_std(centered_pareto(1.9, 1.0))


class TestBandMembership:
    """The cumulative band check behind run_coverage against solved endpoints.

    At every n, |sum phi(lambda_i (X_i - mu))| <= band_n must hold exactly
    when solve_interval_arrays at band_n gives lower <= mu <= upper; an n
    with mu within root_tol of an endpoint is skipped, since an endpoint is
    only known to that accuracy.  alpha = 0.99 makes misses common.
    """

    @pytest.mark.parametrize("dist, p", [
        (gaussian(), 2.0), (gaussian(), 1.5), (gaussian(), 1.2), (RADEMACHER, 1.5),
    ], ids=["gaussian-2", "gaussian-1.5", "gaussian-1.2", "two_point-1.5"])
    def test_band_iff_solved_interval_holds_mu(self, dist, p):
        from heavytail_cs import catoni_cs as cat

        n_max, reps, seed, alpha, mu = 300, 10, 11, 0.99, dist.true_mean
        cfg = cat.CatoniConfig(p=p, v_p=true_vp(dist, p), alpha=alpha, schedule=power_law(1.0, p))
        lam = cfg.schedule.head(n_max)
        band = cat.target(cfg, np.cumsum(lam**p))
        missed_reps = out_of_band = 0
        for r in range(reps):
            x = sample_stream(dist, seed, n_max, rep=r)
            in_band = np.abs(np.cumsum(cfg.influence(lam * (x - mu)))) <= band
            missed = False
            for n in range(1, n_max + 1):
                lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], float(band[n - 1]))
                missed |= not lo <= mu <= hi
                root_tol = 1e-9 * max(1.0, abs(float(np.dot(lam[:n], x[:n])) / float(np.sum(lam[:n]))))
                if min(abs(mu - lo), abs(mu - hi)) <= root_tol:
                    continue
                assert bool(in_band[n - 1]) == (lo <= mu <= hi), (r, n)
                out_of_band += not in_band[n - 1]
            missed_reps += missed
        assert out_of_band > 0
        assert run_coverage("catoni", dist, p, alpha, n_max, reps, seed).miscoverage_count == missed_reps


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

    @pytest.mark.parametrize("method", ["catoni", "ds"])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_parallel_serial_equivalence(self, method, stride):
        serial = run_coverage(method, gaussian(0, 1), 2.0, 0.05, 500, 60, seed=4, stride=stride, threads=1)
        parallel = run_coverage(method, gaussian(0, 1), 2.0, 0.05, 500, 60, seed=4, stride=stride, threads=4)
        assert serial == parallel

    @pytest.mark.parametrize("method", ["catoni", "ds"])
    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e12, 1e14, 1e17])
    def test_verdicts_match_exact_arithmetic_at_any_location(self, method, shift):
        """Each replication's float verdict equals the verdict of the same statistic,
        |sum lambda_i (X_i - mu)| for Dubins-Savage or |sum phi(lambda_i (X_i - mu))| for
        Catoni, summed exactly (Fraction; phi in 50-digit mpmath) on the same stream and
        against the same float thresholds.  A wide alpha makes some replications miss."""
        n, alpha, p = 200, 0.9, 2.0
        dist = gaussian(shift, 1.0)
        vp, cfg, schedule = harness._method_setup(method, dist, p, alpha, n, 1, None, 1.0)
        lam = schedule.head(n)
        sum_lam_p = cumulative_powers(lam, p)
        if method == "catoni":
            thresholds = cat.target(cfg, sum_lam_p)
        else:
            thresholds = sum_lam_p * (cfg.b * vp) + ds.ds_a(cfg)
        verdicts = []
        for seed in range(8):
            x = sample_stream(dist, seed, n)
            stat = Fraction(0)
            exact_miss = False
            with mpmath.workdps(50):
                for lam_i, x_i, thr in zip(lam.tolist(), x.tolist(), thresholds.tolist()):
                    z = Fraction(lam_i) * (Fraction(x_i) - Fraction(shift))
                    if method == "catoni":
                        z = mp_phi(p, cfg.c_p, mpmath.mpf(z.numerator) / z.denominator)[0]
                    stat += z
                    exact_miss = exact_miss or abs(stat) > thr
            miss = run_coverage(method, dist, p, alpha, n, 1, seed=seed).miscoverage_count == 1
            assert miss == exact_miss, seed
            verdicts.append(miss)
        if shift == 0.0:
            assert verdicts.count(True) == (2 if method == "catoni" else 0)

    @pytest.mark.parametrize("method", ["catoni", "ds"])
    def test_statistic_accumulates_into_another_buffer(self, monkeypatch, method):
        """numpy holds the GIL for a cumulative sum written over its own input, which
        would serialize the replications; reports are unchanged by the buffer used."""

        class NumpyWithCheckedCumsum:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def cumsum(a, *args, out=None, **kwargs):
                assert out is None or not np.shares_memory(a, out), "cumsum over its own input"
                return np.cumsum(a, *args, out=out, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any host
        args = (method, centered_pareto(1.9), 1.5, 0.05, 2000, 8)
        unpatched = run_coverage(*args, seed=5, threads=2)
        monkeypatch.setattr(harness, "np", NumpyWithCheckedCumsum())
        assert run_coverage(*args, seed=5, threads=2) == unpatched

    @pytest.mark.parametrize("method", ["catoni", "ds"])
    @pytest.mark.parametrize("v_p", [math.nan, math.inf, -math.inf])
    def test_nonfinite_vp_rejected(self, method, v_p):
        """A NaN band makes every |f_n(mu)| > band comparison false: 0 misses, not an error."""
        dist = dataclasses.replace(gaussian(0, 1), moment=lambda p: v_p)
        with pytest.raises(ValueError, match="v_p"):
            run_coverage(method, dist, 2.0, 0.5, 200, 20, seed=1)

    def test_stride_recorded_and_coarsens(self):
        rep = run_coverage("catoni", gaussian(0, 1), 2.0, 0.05, 1000, 50, seed=6, stride=10)
        assert rep.stride == 10

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_coverage("median", gaussian(0, 1), 2.0, 0.05, 10, 1, seed=0)


class _RepFailed(Exception):
    pass


class TestRunReps:
    """The replication runner: the serial list comprehension, at any thread count."""

    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 40), threads=st.integers(1, 8), failing=st.sets(st.integers(0, 39), max_size=3))
    def test_matches_serial_run(self, reps, threads, failing):
        calls = []  # list.append is atomic, so workers may record into one list

        def fn(r):
            calls.append(r)
            time.sleep(0.0005 * (r % 3))  # uneven replications interleave the workers
            if r in failing:
                raise _RepFailed(r)
            return (r, r * r)

        failed = sorted(f for f in failing if f < reps)
        with mock.patch.object(os, "cpu_count", return_value=8):  # run `threads` workers on any host
            if not failed:
                assert _run_reps(fn, reps, threads) == [(r, r * r) for r in range(reps)]
                assert sorted(calls) == list(range(reps))
                return
            with pytest.raises(_RepFailed) as info:
                _run_reps(fn, reps, threads)
        # The first failing replication in index order, as a serial run raises it.
        assert info.value.args == (failed[0],)
        assert len(calls) == len(set(calls))
        assert set(range(failed[0] + 1)) <= set(calls)

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (1, 0), (None, 0)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, workers):
        """--threads 100000 starts no more workers than CPUs; one CPU (or an unknown count) runs serially.

        A fake Thread counts constructions and runs its target at start(), so no thread starts."""
        made = []

        class FakeThread:
            def __init__(self, target):
                made.append(self)
                self.target = target

            def start(self):
                self.target()

            def join(self):
                pass

        monkeypatch.setattr(threading, "Thread", FakeThread)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _run_reps(lambda r: r, 1000, 100000) == list(range(1000))
        assert len(made) == workers

    def test_width_threads_equivalence(self):
        kw = dict(seed=8, checkpoints=[10, 300, 2000], reps=5)
        serial = run_width("catoni", centered_pareto(1.9), 1.5, 0.05, 2000, threads=1, **kw)
        assert run_width("catoni", centered_pareto(1.9), 1.5, 0.05, 2000, threads=3, **kw) == serial

    def test_bound_validity_threads_equivalence(self):
        serial = run_bound_validity(gaussian(0, 1), 2.0, 0.05, 5000, 6, seed=14, threads=1)
        assert run_bound_validity(gaussian(0, 1), 2.0, 0.05, 5000, 6, seed=14, threads=3) == serial


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
        """Data-free widths: at 3 reps each is the single-rep width, exactly 2 ds_radius."""
        many = run_width("ds", gaussian(0, 1), 2.0, 0.05, 500, seed=10, reps=3)
        one = run_width("ds", gaussian(0, 1), 2.0, 0.05, 500, seed=10, reps=1)
        for c, c1 in zip(many.checkpoints, one.checkpoints, strict=True):
            assert c.mean_width == c1.mean_width

    def test_zero_width_gives_nan_slope_without_warning(self, monkeypatch):
        """Both ends at one float (a zero width) make log width -inf: the slope is NaN, with no warning."""
        monkeypatch.setattr(cat, "solve_interval_arrays", lambda influence, lam, xs, tgt: (1.0, 1.0))
        rep = run_width("catoni", gaussian(0, 1), 2.0, 0.05, 2000, seed=8, checkpoints=[100, 1000, 2000])
        assert [c.mean_width for c in rep.checkpoints] == [0.0, 0.0, 0.0]
        assert math.isnan(rep.slope)

    def test_bad_checkpoints(self):
        with pytest.raises(ValueError):
            run_width("ds", gaussian(0, 1), 2.0, 0.05, 100, seed=0, checkpoints=[0, 50])
        with pytest.raises(ValueError):
            run_width("ds", gaussian(0, 1), 2.0, 0.05, 100, seed=0, checkpoints=[50, 200])


class TestRunsReadOneCurve:
    """A value at one n is an index into the run's cumulative sums, which a run forms once."""

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_ds_width_is_the_reported_width(self, p):
        rep = run_width("ds", gaussian(0, 1), p, 0.05, 3000, seed=3)
        cfg = ds.DsConfig(p=p, v_p=rep.v_p, alpha=0.05)
        for ck in rep.checkpoints:
            assert ds.ds_width(cfg, ck.n) == ck.mean_width

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_width_bound_is_the_reported_bound(self, p):
        rep = run_width("catoni", gaussian(0, 1), p, 0.05, 3000, seed=3, t=0.3, tau=0.2)
        cfg = cat.CatoniConfig(p=p, v_p=rep.v_p, alpha=0.05, schedule=power_law(1.0, p), t=0.3, tau=0.2)
        assert any(ck.bound is not None for ck in rep.checkpoints)
        for ck in rep.checkpoints:
            assert cat.width_bound(cfg, ck.n) == ck.bound

    def test_schedule_evaluated_once(self, monkeypatch):
        """A Catoni width run evaluates its weights once; a DS width run each weight up to its last
        checkpoint once, a chunk at a time; a bound-validity run once, besides the failure
        budget's own first block of 2^16 terms."""
        span, calls = LambdaSchedule.span, []
        monkeypatch.setattr(LambdaSchedule, "span",
                            lambda s, start, stop: calls.append((start, stop)) or span(s, start, stop))
        run_width("catoni", gaussian(0, 1), 2.0, 0.05, 3000, seed=3, reps=2)
        assert calls == [(1, 3000)]
        calls.clear()
        run_width("ds", gaussian(0, 1), 2.0, 0.05, 3 * SUM_CHUNK, seed=3, checkpoints=[10, 2 * SUM_CHUNK + 1])
        assert calls == [(1, SUM_CHUNK), (SUM_CHUNK + 1, 2 * SUM_CHUNK), (2 * SUM_CHUNK + 1, 2 * SUM_CHUNK + 1)]
        calls.clear()
        run_bound_validity(gaussian(0, 1), 2.0, 0.05, 5000, 2, seed=3)
        assert calls == [(1, 5000), (1, 1 << 16)]

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    #: One chunk's working set: three arrays of SUM_CHUNK floats (the weights, their copy and
    #: their p-th powers), and 64 kB for everything else.
    CHUNK_SET = 3 * 8 * SUM_CHUNK + 65536
    #: A Catoni solve's 2^15-element blocks take 3.5 such arrays; four bound them.
    SOLVE_SET = 4 * 8 * SUM_CHUNK + 65536

    @pytest.mark.parametrize("method, n", [("catoni", 2 * 10**5), ("ds", 2 * 10**5), ("ds", 10**6)])
    def test_width_run_memory(self, method, n):
        """tracemalloc peak of a width run: a Catoni run holds two arrays of n floats, the weights
        and the stream, plus a solve's blocks; a DS run one chunk's working set, whatever n.
        Full Sigma-lambda and Sigma-lambda^p curves peaked at 4.5 and 3 arrays of n floats."""
        peak = self.traced_peak(lambda: run_width(method, gaussian(0, 1), 1.5, 0.05, n, seed=1))
        assert peak < (2 * 8 * n + self.SOLVE_SET if method == "catoni" else self.CHUNK_SET)

    def test_width_bound_and_ds_width_memory(self):
        """One value at n = 10^6 reads its sums in chunks: the full curves peaked at 22.9 MB."""
        n = 10**6
        cfg = cat.CatoniConfig(p=1.5, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 1.5))
        assert self.traced_peak(lambda: cat.width_bound(cfg, n)) < self.CHUNK_SET
        assert self.traced_peak(lambda: ds.ds_width(ds.DsConfig(1.5, 1.0, 0.05), n)) < self.CHUNK_SET


class TestRunSizes:
    """Every runner rejects n_max or reps below 1 before any other work, the failure budget included."""

    RUNNERS = {
        "coverage": lambda n_max, reps: run_coverage("ds", gaussian(), 2.0, 0.05, n_max, reps, seed=1),
        "width": lambda n_max, reps: run_width("catoni", gaussian(), 2.0, 0.05, n_max, seed=1, reps=reps),
        "bound_validity": lambda n_max, reps: run_bound_validity(gaussian(), 2.0, 0.05, n_max, reps, seed=1),
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("n_max, reps", [(5000, 0), (0, 4), (-1, -1)])
    def test_sizes_checked_first(self, runner, n_max, reps):
        with mock.patch("heavytail_cs.catoni_cs.failure_budget", side_effect=AssertionError("budget ran")):
            with pytest.raises(ValueError, match=rf"^n_max and reps must be >= 1, got {n_max}, {reps}$"):
                self.RUNNERS[runner](n_max, reps)


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

    def test_uncertifiable_budget_raises_before_replications(self):
        """K = C_2 v_p c^2 (1 + 1/t) = 0.375 at v_p = 1/4, c = 1: raised before 1000 replications at n = 10^6."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"K = 0\.375\b"):
            run_bound_validity(gaussian(0, 0.5), 2.0, 0.05, 10**6, 1000, seed=1)
        assert time.perf_counter() - start < 1.0

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
