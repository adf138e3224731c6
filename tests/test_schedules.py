"""Schedules and their exact prefix sums."""

import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mp_sums

from heavytail_cs.catoni_cs import CatoniConfig, CatoniState, interval, new_state, update, width_bound
from heavytail_cs.dubins_savage import DsConfig, DsState, ds_interval, ds_optimal_schedule, ds_update, ds_width
from heavytail_cs.schedules import SUM_CHUNK, PrefixSums, _ExactSum, checkpoint_sums, cumulative_sums, custom_list, power_law


class TestLambdaAt:
    def test_power_law(self):
        assert power_law(1.0, 2.0).at(4) == 0.5

    def test_ds_optimal_reference_value(self):
        # a = 39 is the p=2, b=1, alpha=0.05 constant; lambda_1 = sqrt(39)
        s = ds_optimal_schedule(DsConfig(p=2.0, v_p=1.0, alpha=0.05))
        assert s.at(1) == pytest.approx(math.sqrt(39.0), rel=1e-15)
        assert s == power_law(math.sqrt(39.0), 2.0)

    def test_custom_list(self):
        assert custom_list([0.3, 0.2]).at(2) == 0.2

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            power_law().at(0)

    def test_custom_overrun_rejected(self):
        with pytest.raises(ValueError):
            custom_list([0.3]).at(2)

    def test_head_matches_at(self):
        """Streaming weights (at) and batch weights (head) agree bit for bit."""
        n = 2000
        for s in (power_law(0.7, 1.5), power_law(1.0, 1.5), ds_optimal_schedule(DsConfig(1.5, 2.0, 0.05)),
                  custom_list(0.5 / np.arange(1.0, n + 1.0) ** 0.6)):
            streamed = np.array([s.at(t) for t in range(1, n + 1)])
            assert streamed.tobytes() == s.head(n).tobytes()

    def test_positive_and_nonincreasing(self):
        for s in (power_law(2.0, 1.1), ds_optimal_schedule(DsConfig(2.0, 1.5, 0.01, b=0.5))):
            lam = s.head(1000)
            assert np.all(lam > 0)
            assert np.all(np.diff(lam) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law(c=-1.0)
        with pytest.raises(ValueError):
            power_law(p=2.5)
        with pytest.raises(ValueError):
            custom_list([])
        with pytest.raises(ValueError):
            custom_list([0.5, -0.1])
        # A non-integer n is refused where it used to answer for a neighbouring integer.
        with pytest.raises(TypeError):
            width_bound(CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1, 2)), 1000.7)
        with pytest.raises(TypeError):
            ds_width(DsConfig(2.0, 1.0, 0.05), 10.5)
        with pytest.raises(TypeError):
            power_law(1, 2).head(2.5)
        assert power_law(1, 2).head(np.int64(3)).size == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="scale c"):
            power_law(c=bad)
        with pytest.raises(ValueError, match="custom_list"):
            custom_list([bad, 1.0])


SPAN_SCHEDULES = {
    "power_law": power_law(0.7, 1.5),
    "ds_optimal": ds_optimal_schedule(DsConfig(1.5, 2.0, 0.05)),
    "custom_list": custom_list([0.5 / t for t in range(1, 41)]),
}


class TestSpan:
    @pytest.mark.parametrize("kind", SPAN_SCHEDULES)
    @pytest.mark.parametrize("start, stop", [(1, 40), (1, 1), (7, 23), (40, 40), (12, 11), (1, 0)])
    def test_equals_head_slice_bitwise(self, kind, start, stop):
        s = SPAN_SCHEDULES[kind]
        assert s.span(start, stop).tobytes() == s.head(stop)[start - 1 :].tobytes()

    @pytest.mark.parametrize("kind", ["power_law", "ds_optimal"])
    def test_late_window_bitwise(self, kind):
        s = SPAN_SCHEDULES[kind]
        start, stop = 3 * (1 << 18) + 1, 1 << 20
        assert s.span(start, stop).tobytes() == s.head(stop)[start - 1 :].tobytes()

    def test_custom_overrun_rejected(self):
        s = SPAN_SCHEDULES["custom_list"]
        with pytest.raises(ValueError):
            s.span(30, 41)
        with pytest.raises(ValueError):
            s.span(0, 3)

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("c", [1.0, 0.37, 3.3])
    def test_power_law_in_one_buffer(self, p, c):
        """The power law formed in place has the bits of c * t^(-1/p) over 10^6 terms, and one n-array's memory."""
        n = 10**6
        tracemalloc.start()
        try:
            lam = power_law(c, p).span(1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lam.tobytes() == (c * np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / p)).tobytes()
        assert peak < 8 * n + 65536


#: Schedules long enough for three chunks of checkpoint_sums and one term more.
CHUNKED_SCHEDULES = {
    "power_law": power_law(0.37, 1.5),
    "ds_optimal": ds_optimal_schedule(DsConfig(1.1, 2.0, 0.05)),
    "custom_list": custom_list(0.9 / np.arange(1.0, 3 * SUM_CHUNK + 2.0) ** 0.6),
}


class TestCheckpointSums:
    """Chunked sums at checkpoints are the full curves' entries, bit for bit, on and beside every chunk edge."""

    @pytest.mark.parametrize("kind", sorted(CHUNKED_SCHEDULES))
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 3), offset=st.sampled_from([-1, 0, 1]), p=st.sampled_from([1.1, 1.5, 2.0]),
           data=st.data())
    def test_entries_are_the_full_curves(self, kind, k, offset, p, data):
        schedule, n = CHUNKED_SCHEDULES[kind], k * SUM_CHUNK + offset
        ns = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=6)) + [n]))
        at = np.asarray(ns) - 1
        lam = schedule.head(n)
        full = cumulative_sums(lam, p)
        before = lam.copy()
        for span in (schedule.span, lambda start, stop: lam[start - 1 : stop]):
            for got, want in zip(checkpoint_sums(span, p, ns), full):
                assert got.tobytes() == want[at].tobytes()
        assert lam.tobytes() == before.tobytes()  # slices of weights in memory are read, not written

    def test_non_integer_n_rejected(self):
        with pytest.raises(TypeError):
            checkpoint_sums(power_law(1, 2).span, 2.0, [10.5])


def pushed(schedule, n, p=2.0):
    """PrefixSums after pushing lambda_1 .. lambda_n of schedule."""
    ps = PrefixSums(p=p)
    for t in range(1, n + 1):
        ps.push(schedule.at(t))
    return ps


class TestPrefixSums:
    def test_single_step(self):
        ps = pushed(power_law(1.0, 2.0), 1)
        assert (ps.n, ps.sum_lambda, ps.sum_lambda_p) == (1, 1.0, 1.0)

    def test_two_steps_power_law(self):
        ps = pushed(power_law(1.0, 2.0), 2)
        assert ps.sum_lambda == pytest.approx(1.0 + 2.0**-0.5, rel=1e-15)
        assert ps.sum_lambda_p == pytest.approx(1.5, rel=1e-15)

    def test_custom_two_halves(self):
        ps = pushed(custom_list([0.5, 0.5]), 2)
        assert ps.sum_lambda == 1.0
        assert ps.sum_lambda_p == 0.5

    def test_strictly_increasing(self):
        ps = PrefixSums(p=1.5)
        s = power_law(1.0, 1.5)
        prev = (0.0, 0.0)
        for t in range(1, 51):
            ps.push(s.at(t))
            cur = (ps.sum_lambda, ps.sum_lambda_p)
            assert all(c > q for c, q in zip(cur, prev))
            prev = cur

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_holder_style_bound(self, p):
        # sum(lam^p) <= sum(lam) * max(lam)^(p-1); max is lam_1 here
        s = power_law(1.3, p)
        lam = s.head(500)
        cs1, csp = np.cumsum(lam), np.cumsum(lam**p)
        assert csp[-1] <= cs1[-1] * lam.max() ** (p - 1.0) + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("make", [lambda: PrefixSums(p=2.0), lambda: DsState(p=1.5)],
                             ids=["PrefixSums", "DsState"])
    def test_non_finite_or_non_positive_rejected(self, make, bad):
        ps = make()
        ps.push(0.5)
        with pytest.raises(ValueError, match="positive and finite"):
            ps.push(bad)
        # 0.5^2 is exact; the float 0.5**1.5 is rounded up to bound the irrational 2^-1.5
        lam_p = 0.25 if ps.p == 2.0 else math.nextafter(0.5**1.5, math.inf)
        assert (ps.n, ps.sum_lambda, ps.sum_lambda_p) == (1, 0.5, lam_p)

    def test_overflowing_sums_rejected_state_unchanged(self):
        """1e200^2 is past the float range; a second 1e154 takes the sum of
        lambda^2 past it.  The exact 1e154^2 lies just above the float 1e308,
        so the sum of lambda^2 reads the float above that."""
        ps = PrefixSums(p=2.0)
        ps.push(1e154)
        for lam in (1e200, 1e154):
            with pytest.raises(ValueError, match="overflow"):
                ps.push(lam)
        assert (ps.n, ps.sum_lambda, ps.sum_lambda_p) == (1, 1e154, math.nextafter(1e308, math.inf))

    def test_sum_may_reach_the_largest_float(self):
        """Weights whose squares sum to exactly the largest float, 2^1024 - 2^971,
        are kept; any further weight is rejected, however small."""
        ps = PrefixSums(p=2.0)
        for e in range(971, 1024):  # 2^e is (2^(e/2))^2, or twice (2^((e-1)/2))^2
            for _ in range(1 + e % 2):
                ps.push(2.0 ** (e // 2))
        assert ps.sum_lambda_p == sys.float_info.max
        with pytest.raises(ValueError, match="overflow"):
            ps.push(2.0**-537)
        assert ps.sum_lambda_p == sys.float_info.max

    def test_power_past_float_range_rejected(self):
        """1e300^1.5 overflows the float pow."""
        ps = PrefixSums(p=1.5)
        with pytest.raises(ValueError, match="overflow"):
            ps.push(1e300)
        assert (ps.n, ps.sum_lambda, ps.sum_lambda_p) == (0, 0.0, 0.0)

    def test_incremental_matches_batch_at_1e6(self):
        """Exact running sums vs pairwise batch, 1e-12 relative."""
        n = 10**6
        s = power_law(1.0, 2.0)
        ps = PrefixSums(p=2.0)
        lam = s.head(n)
        for v in lam.tolist():
            ps.push(v)
        batch1 = float(np.sum(lam))
        batchp = float(np.sum(lam**2))
        assert abs(ps.sum_lambda - batch1) <= 1e-12 * batch1
        assert abs(ps.sum_lambda_p - batchp) <= 1e-12 * batchp
        assert ps.n == n

    def test_harmonic_growth_toward_c_power_p(self):
        """sum(lambda^p)/log n -> c^p; frozen finite-n oracle values.

        The direct-sum oracle gives H_1e6 / ln(1e6) = 1.04178..., i.e. the
        limit is approached only at the Euler-constant rate gamma/log n
        (4.2% high at n = 1e6, 6.3% at 1e4 -- slower than a 2% band).
        """
        s = power_law(1.0, 2.0)
        for n, frozen in ((10**4, 9.7876060360443822642), (10**6, 14.392726722865723631)):
            csp = np.cumsum(s.head(n) ** 2.0)
            assert csp[-1] == pytest.approx(frozen, rel=1e-12)
        ratio_1e4 = 9.7876060360443822642 / math.log(10**4)
        ratio_1e6 = 14.392726722865723631 / math.log(10**6)
        assert abs(ratio_1e6 - 1.0) < abs(ratio_1e4 - 1.0)  # converging
        assert abs(ratio_1e6 - 1.0) < 0.05


class TestExactSums:
    """The running sums against the mpmath oracle's, which are exact here: the terms span under 2^30, so each sum fits its 60 digits."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_against_mpmath_at_1e4(self, p):
        """At every n <= 10^4, sum_lambda is the exact sum correctly rounded and
        sum_lambda_p is at least the exact sum of lambda^p: the least such
        float at p = 2, and within 2^-50 of it otherwise (each term is
        rounded up from a pow that errs by under an ulp)."""
        n = 10**4
        lam = power_law(1.0, p).head(n).tolist()
        ps = PrefixSums(p=p)
        with mp.workdps(60):
            for v, (s1, _, sp) in zip(lam, mp_sums(p, lam, [0.0] * n), strict=True):
                ps.push(v)
                got1, gotp = ps.sum_lambda, ps.sum_lambda_p
                assert abs(got1 - s1) <= mp.mpf(math.ulp(got1)) / 2
                assert sp <= gotp <= sp * (1 + mp.mpf(2) ** -50)
                if p == 2.0:
                    assert math.nextafter(gotp, 0.0) < sp


class TestStateConstructors:
    """The running sums start at zero and only push/update/ds_update change them: no constructor argument sets them."""

    @pytest.mark.parametrize("make", [
        lambda: PrefixSums(p=2.0, n=5),
        lambda: PrefixSums(p=2.0, _s1=_ExactSum()),
        lambda: PrefixSums(p=2.0, _sp=_ExactSum()),
        lambda: DsState(p=2.0, _sx=_ExactSum()),
        lambda: CatoniState(p=2.0, schedule=power_law(1.0, 2.0), observations=[1.0]),
        lambda: CatoniState(p=2.0, schedule=power_law(1.0, 2.0), n=5),
    ], ids=["PrefixSums.n", "PrefixSums._s1", "PrefixSums._sp", "DsState._sx",
            "CatoniState.observations", "CatoniState.n"])
    def test_running_sums_are_not_arguments(self, make):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            make()

    def test_fresh_states_are_empty(self):
        cat_state = new_state(CatoniConfig(p=1.5, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 1.5)))
        assert cat_state.observations == []
        for ps in (PrefixSums(p=1.5), DsState(p=1.5), cat_state):
            assert (ps.p, ps.n, ps.sum_lambda, ps.sum_lambda_p) == (1.5, 0, 0.0, 0.0)
        assert DsState(p=1.5).sum_lambda_x == 0.0


class TestQueryChecks:
    """interval and ds_interval reject an empty state and a p mismatch with the same messages (PrefixSums.check_query)."""

    QUERIES = {
        "interval": (lambda: new_state(CatoniConfig(p=2.0, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0))),
                     lambda st: update(st, 0.1),
                     lambda st, p: interval(st, CatoniConfig(p=p, v_p=1.0, alpha=0.05, schedule=power_law(1.0, 2.0)))),
        "ds_interval": (lambda: DsState(p=2.0),
                        lambda st: ds_update(st, power_law(1.0, 2.0), 0.1),
                        lambda st, p: ds_interval(st, DsConfig(p=p, v_p=1.0, alpha=0.05))),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_empty_state(self, name):
        make, _, query = self.QUERIES[name]
        with pytest.raises(ValueError, match=rf"^{name} requires at least one observation$"):
            query(make(), 2.0)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_p_mismatch(self, name):
        make, push, query = self.QUERIES[name]
        state = make()
        push(state)
        with pytest.raises(ValueError, match=r"^state sums lambda\^p at p = 2\.0, config has p = 1\.5$"):
            query(state, 1.5)
        assert query(state, 2.0).lower < 0.1 < query(state, 2.0).upper
