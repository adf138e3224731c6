"""Influence function construction, sandwich envelopes, and phi inverted by the package's root solver."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from oracles import mp_phi, mp_phi_errors

from heavytail_cs.influence import catoni_constant, default_influence, make_influence
from heavytail_cs.rootfind import solve_monotone

P_GRID = [1.1, 1.5, 1.9, 2.0]

# ((p-1)/p)^(p/2) ((2-p)/(p-1))^((2-p)/2), evaluated at 40 decimal digits
C_P_ORACLE = {
    1.1: 0.71885806976606386403,
    1.5: 0.43869133765083082027,
    1.9: 0.44055723479964614752,
    2.0: 0.5,
}


def sign_grid(lo=1e-12, hi=50.0, m=400):
    """x in [-50, 50], log-spaced toward 0, plus 0 itself."""
    pos = np.logspace(math.log10(lo), math.log10(hi), m)
    return np.concatenate([-pos[::-1], [0.0], pos])


class TestConstant:
    def test_p2_is_half(self):
        assert catoni_constant(2.0) == 0.5

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_high_precision_oracle(self, p):
        assert catoni_constant(p) == pytest.approx(C_P_ORACLE[p], rel=1e-14)

    def test_p_1_5_closed_form(self):
        # (1/3)^(3/4) since the second factor is 1 at p = 3/2
        assert catoni_constant(1.5) == pytest.approx((1.0 / 3.0) ** 0.75, rel=1e-14)

    def test_continuity_at_two(self):
        assert abs(catoni_constant(2.0 - 1e-8) - 0.5) < 1e-6

    @pytest.mark.parametrize("p", [1.0, 0.5, 2.0001, 3.0, -1.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            catoni_constant(p)


class TestConstruction:
    def test_classic_requires_p2(self):
        with pytest.raises(ValueError):
            make_influence(1.5, "catoni_classic_p2")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_influence(2.0, "huber")

    def test_variants_coincide_at_p2(self):
        classic = make_influence(2.0, "catoni_classic_p2")
        tight = make_influence(2.0, "tight_upper_general_p")
        x = sign_grid()
        np.testing.assert_allclose(classic(x), tight(x), rtol=0, atol=0)

    def test_default_variant_selection(self):
        assert default_influence(2.0) == make_influence(2.0, "catoni_classic_p2")
        assert default_influence(1.5) == make_influence(1.5, "tight_upper_general_p")
        assert default_influence(1.5).c_p == catoni_constant(1.5)


class TestEvaluation:
    def test_classic_at_one(self):
        f = make_influence(2.0, "catoni_classic_p2")
        assert f(1.0) == pytest.approx(math.log(2.5), rel=1e-15)

    def test_zero(self):
        for p in P_GRID:
            assert default_influence(p)(0.0) == 0.0

    @pytest.mark.parametrize("p", P_GRID)
    def test_odd_symmetry(self, p):
        f = default_influence(p)
        x = sign_grid()
        np.testing.assert_allclose(f(-x), -f(x), rtol=0, atol=0)

    @pytest.mark.parametrize("p", P_GRID)
    def test_finite_everywhere(self, p):
        f = default_influence(p)
        x = np.array([-1e15, -1e8, -50.0, 50.0, 1e8, 1e15])
        assert np.all(np.isfinite(f(x)))

    @pytest.mark.parametrize("p", P_GRID)
    def test_sandwich(self, p):
        """-log(1 - x + C|x|^p) <= phi(x) <= log(1 + x + C|x|^p) within 1e-12.

        C_p is the tangency constant, so the lower-envelope argument is
        positive everywhere and the lower envelope is finite on the grid.
        """
        f = default_influence(p)
        x = sign_grid()
        val = f(x)
        upper = f.upper_envelope(x)
        lower = f.lower_envelope(x)
        assert np.all(val <= upper + 1e-12)
        assert np.all(lower - 1e-12 <= val)

    @pytest.mark.parametrize("p", P_GRID)
    def test_monotone_on_grid(self, p):
        f = default_influence(p)
        v = f(sign_grid())
        assert np.all(np.diff(v) >= 0.0)

    def test_classic_is_one_lipschitz(self):
        f = make_influence(2.0, "catoni_classic_p2")
        x = sign_grid()
        v = f(x)
        # all grid pairs x1 < x2, not only neighbours
        dv = np.abs(v[:, None] - v[None, :])
        dx = np.abs(x[:, None] - x[None, :])
        assert np.all(dv <= dx + 1e-12)


    @pytest.mark.parametrize("p", P_GRID)
    def test_value_and_slope(self, p):
        """The fused pass gives phi bit for bit and the closed-form phi'."""
        f = default_influence(p)
        x = sign_grid(hi=1e6)
        phi, slope = f.value_and_slope(x)
        ax = np.abs(x)
        closed_form = (1.0 + p * f.c_p * ax ** (p - 1.0)) / (1.0 + ax + f.c_p * ax**p)
        assert np.array_equal(phi, f(x))
        np.testing.assert_allclose(slope, closed_form, rtol=1e-12, atol=0.0)
        assert slope[x.size // 2] == 1.0  # phi'(0)

    @pytest.mark.parametrize("p", [1.01] + P_GRID)
    def test_matches_reference_formula(self, p):
        """phi and phi' equal sign(z) log1p(t) and (1 + p C u) / (1 + t), with
        u = |z|^(p-1) and t = |z| + C (u |z|), bit for bit, arrays and 0-d
        alike (phi(-0.0) may differ in the sign of its zero only)."""
        f = default_influence(p)
        rng = np.random.default_rng(17)
        z = np.clip(rng.standard_cauchy(4000) * 10.0 ** rng.uniform(-300.0, 150.0, 4000), -1e150, 1e150)
        z[:8] = [0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150, 1.0, -2.5]

        def reference(z):
            az = np.abs(z)
            u = az ** (p - 1.0)
            t = az + f.c_p * (u * az)
            return np.sign(z) * np.log1p(t), (1.0 + p * f.c_p * u) / (1.0 + t)

        ref_phi, ref_slope = reference(z)
        # One element past the overflow point sends the array down the guarded path.
        for arr in (z, np.append(z, -1e300)):
            phi, slope = f.value_and_slope(arr)
            assert np.array_equal(f(arr)[: z.size], ref_phi)
            assert np.array_equal(phi[: z.size], ref_phi) and np.array_equal(slope[: z.size], ref_slope)
        for zi in z[:40]:
            ref_phi, ref_slope = reference(np.asarray(zi))
            phi, slope = f.value_and_slope(zi)
            assert f(zi) == float(ref_phi)
            assert (float(phi), float(slope)) == (float(ref_phi), float(ref_slope))

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 2.0])
    def test_kernel_error_against_mpmath(self, p):
        """|phi - exact| <= 4 eps L_p |z| and |phi' - exact| <= 4 eps phi' for z of
        both signs, log-uniform over [1e-300, 1e150], and +-0: a quarter of the
        per-term margin catoni_cs._TERM_ULPS allows."""
        f = default_influence(p)
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(29)
        z = 10.0 ** rng.uniform(-300.0, 150.0, 1500) * rng.choice([-1.0, 1.0], 1500)
        z = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150], z])
        phi, slope = f.value_and_slope(z)
        for zi, phi_i, slope_i in zip(z.tolist(), phi.tolist(), slope.tolist()):
            err_phi, err_slope = mp_phi_errors(p, f.c_p, zi, phi_i, slope_i)
            assert err_phi <= 4.0 * eps * f.slope_bound * abs(zi), (zi, err_phi)
            assert err_slope <= 4.0 * eps, (zi, err_slope)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_leaves_its_input_alone(self, p):
        """phi and (phi, phi') leave z unchanged and share no memory with it,
        also on the guarded path past the overflow point."""
        f = default_influence(p)
        z = np.random.default_rng(3).standard_normal(1000) * 10.0
        for arr in (z, np.append(z, -1e300)):
            before = arr.copy()
            for out in (f(arr), *f.value_and_slope(arr)):
                assert not np.shares_memory(out, arr)
            assert np.array_equal(arr, before)

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0])
    def test_finite_where_power_overflows(self, p):
        """Against 50-digit mpmath at |z| = 1e200, 1e300, where C|z|^p overflows
        for p = 1.5 and 2; no warning is raised."""
        f = default_influence(p)
        z = np.array([1e200, -1e200, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, slope = f.value_and_slope(z)
            values = f(z)
            scalar = [f(float(zi)) for zi in z]
        for i, zi in enumerate(z):
            exact_phi, exact_slope = mp_phi(p, f.c_p, float(zi))
            for got in (phi[i], values[i], scalar[i]):
                assert abs(got - exact_phi) <= 1e-15 * abs(exact_phi)
            assert abs(slope[i] - exact_slope) <= 1e-13 * exact_slope


class TestSlopeBound:
    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 1.99, 2.0])
    def test_bounds_the_slope_closely(self, p):
        """slope_bound >= max phi' over a dense grid around u* and at most 10% above it.

        The computed phi' carries a few ulps of rounding (it reads
        1 + 2^-52 at tiny |x| for p = 2, where the true slope is <= 1).
        """
        f = default_influence(p)
        u_star = (p * (p - 1.0) * f.c_p) ** (1.0 / (2.0 - p)) if p < 2.0 else 1.0
        x = np.concatenate([sign_grid(hi=1e6, m=20_000), np.linspace(0.0, 10.0 * u_star, 100_001)])
        top = float(np.max(f.value_and_slope(x)[1]))
        assert top <= f.slope_bound * (1.0 + 4.0 * np.finfo(np.float64).eps)
        assert f.slope_bound <= 1.1 * top

    def test_one_at_p2(self):
        assert default_influence(2.0).slope_bound == 1.0


class TestHolderBound:
    @staticmethod
    def points(f):
        """|x| log-spaced to 1e6, dense around 0 and u* (the slope's peak), both signs and 0."""
        p = f.p
        u_star = (p * (p - 1.0) * f.c_p) ** (1.0 / (2.0 - p)) if p < 2.0 else 1.0
        pos = np.concatenate([
            np.geomspace(1e-12, 1e6, 600),
            np.linspace(0.0, 5.0 * max(u_star, 1.0), 600),
            u_star * np.linspace(0.5, 1.5, 201),
        ])
        return np.unique(np.concatenate([-pos, [0.0], pos]))

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 1.99, 2.0])
    def test_bounds_the_hoelder_quotient_closely(self, p):
        """|phi'(u) - phi'(v)| <= H_p |u - v|^(p-1) on all pairs of a grid, pairs across 0 included.

        Each computed phi' carries a few ulps, allowed for as 8 eps L.  H_p is
        within 10% of the grid's largest quotient, except at p = 1.99: there
        p C_p is reached only at |u - v| far below what float64 resolves.
        """
        f = default_influence(p)
        x = self.points(f)
        slope = f.value_and_slope(x)[1]
        diff = np.abs(slope[:, None] - slope[None, :])
        h = np.abs(x[:, None] - x[None, :])
        allowance = 8.0 * np.finfo(np.float64).eps * f.slope_bound
        assert np.all(diff <= f.holder_bound * h ** (p - 1.0) + allowance)
        with np.errstate(divide="ignore", invalid="ignore"):
            top = float(np.max(np.where(h > 0.0, diff / h ** (p - 1.0), 0.0)))
        if p != 1.99:
            assert f.holder_bound <= 1.1 * top

    def test_quarter_at_p2(self):
        """sup |phi''| = 1/4, reached where 1 + x + x^2/2 = 2, x = sqrt(3) - 1."""
        f = default_influence(2.0)
        assert f.holder_bound == 0.25
        x = math.sqrt(3.0) - 1.0
        h = 1e-6
        curvature = (f.value_and_slope(x + h)[1] - f.value_and_slope(x - h)[1]) / (2.0 * h)
        assert curvature == pytest.approx(-0.25, rel=1e-6)


class TestCurvatureBound:
    @staticmethod
    def mp_scaled_curvature(p, c_p, v):
        """|phi''(v)| v^(2-p) at the exact float v > 0, in 50-digit mpmath.

        With D = 1 + v + C v^p, phi' = D'/D and phi'' = D''/D - (D'/D)^2.
        """
        with mpmath.workdps(50):
            p, c_p, v = mpmath.mpf(p), mpmath.mpf(c_p), mpmath.mpf(v)
            d = 1 + v + c_p * v**p
            d1 = 1 + p * c_p * v ** (p - 1)
            d2 = p * (p - 1) * c_p * v ** (p - 2)
            return float(abs(d2 / d - (d1 / d) ** 2) * v ** (2 - p))

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 1.99, 2.0])
    def test_bounds_the_scaled_curvature_closely(self, p):
        """|phi''(v)| <= kappa_p |v|^(p-2) at |v| log-spaced over [1e-300, 1e6] and dense around
        the fall's peak, against 50-digit mpmath; phi'' is odd, so v > 0 covers both signs.

        kappa_p is within 10% of the grid's largest |phi''(v)| |v|^(2-p), except
        at p = 1.99: there the rise's p (p-1) C_p is reached only at v below 1e-300.
        """
        f = default_influence(p)
        v = np.concatenate([np.geomspace(1e-300, 1e6, 160), np.linspace(0.3, 1.2, 40)])
        scaled = [self.mp_scaled_curvature(p, f.c_p, vi) for vi in v.tolist()]
        kappa = f.curvature_bound
        assert max(scaled) <= kappa * (1.0 + 1e-12)
        if p != 1.99:
            assert kappa <= 1.1 * max(scaled)

    def test_values(self):
        """kappa_2 = 1/4 = H_2; at p = 1.5 a grid gives sup |phi''(v)| v^(1/2) of about 0.360."""
        assert default_influence(2.0).curvature_bound == 0.25 == default_influence(2.0).holder_bound
        assert default_influence(1.5).curvature_bound == pytest.approx(0.3602, abs=1e-4)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_power_over(self, p):
        """value_and_slope(z, power_over=w) keeps phi and phi' bit for bit and writes |z|^(p-1) / w into w."""
        f = default_influence(p)
        z = np.random.default_rng(5).standard_normal(1000) * 10.0
        z[0] = 0.0
        w = np.abs(np.random.default_rng(6).standard_normal(1000)) + 0.5
        expected = np.abs(z) ** (p - 1.0) / w
        phi, slope = f.value_and_slope(z, w)
        assert np.array_equal(phi, f.value_and_slope(z)[0]) and np.array_equal(slope, f.value_and_slope(z)[1])
        assert np.array_equal(w, expected)


def invert(f, y):
    """The x with phi(x) = y, to 1e-12: the midpoint of solve_monotone's final bracket
    in [-r, r], r = reach(|y|) (phi is odd), from x = 0."""

    def g(x):
        phi, slope = f.value_and_slope(x)
        return y - float(phi), -float(slope), None

    r = f.reach(abs(y))
    lo, hi = solve_monotone(g, -r, r, 0.0, 1e-12)
    return 0.5 * lo + 0.5 * hi


class TestInvert:
    """phi^-1 through solve_monotone, against the p = 2 closed form -1 + sqrt(2 e^y - 1) and phi itself."""

    def test_zero(self):
        assert invert(make_influence(2.0, "catoni_classic_p2"), 0.0) == 0.0

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_p2_closed_form_oracle(self, y):
        f = make_influence(2.0, "catoni_classic_p2")
        assert invert(f, y) == pytest.approx(-1.0 + math.sqrt(2.0 * math.exp(y) - 1.0), abs=1e-11)
        # odd symmetry carries the oracle to negative targets
        assert invert(f, -y) == pytest.approx(1.0 - math.sqrt(2.0 * math.exp(y) - 1.0), abs=1e-11)

    def test_closed_form_value(self):
        # frozen: -1 + sqrt(2 e^2 - 1) at 40 digits
        f = make_influence(2.0, "catoni_classic_p2")
        assert invert(f, 2.0) == pytest.approx(2.7118879559950756216, abs=1e-11)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("x", [-3.7, -0.7, 0.7, 12.0])
    def test_round_trip(self, p, x):
        f = default_influence(p)
        assert invert(f, f(x)) == pytest.approx(x, abs=1e-9)
