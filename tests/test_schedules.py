"""Schedules, prefix sums, compensated summation accuracy."""

import math

import numpy as np
import pytest

from heavytail_cs.schedules import PrefixSums, custom_list, ds_optimal, power_law


class TestLambdaAt:
    def test_power_law(self):
        assert power_law(1.0, 2.0).at(4) == 0.5

    def test_ds_optimal_reference_value(self):
        # a = 39 is the p=2, b=1, alpha=0.05 constant; lambda_1 = sqrt(39)
        s = ds_optimal(a=39.0, b=1.0, v_p=1.0, p=2.0)
        assert s.at(1) == pytest.approx(math.sqrt(39.0), rel=1e-15)

    def test_custom_list(self):
        assert custom_list([0.3, 0.2]).at(2) == 0.2

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            power_law().at(0)

    def test_custom_overrun_rejected(self):
        with pytest.raises(ValueError):
            custom_list([0.3]).at(2)

    def test_head_matches_at(self):
        for s in (power_law(0.7, 1.5), ds_optimal(5.0, 1.0, 2.0, 1.5), custom_list([0.5, 0.25, 0.1])):
            head = s.head(3)
            np.testing.assert_allclose(head, [s.at(t) for t in (1, 2, 3)], rtol=0)

    def test_positive_and_nonincreasing(self):
        for s in (power_law(2.0, 1.1), ds_optimal(3.0, 0.5, 1.5, 2.0)):
            lam = s.head(1000)
            assert np.all(lam > 0)
            assert np.all(np.diff(lam) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law(c=-1.0)
        with pytest.raises(ValueError):
            power_law(p=2.5)
        with pytest.raises(ValueError):
            ds_optimal(a=0.0, b=1.0, v_p=1.0, p=2.0)
        with pytest.raises(ValueError):
            custom_list([])
        with pytest.raises(ValueError):
            custom_list([0.5, -0.1])


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

    def test_incremental_matches_batch_at_1e6(self):
        """Kahan-compensated running sums vs pairwise batch, 1e-12 relative."""
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

