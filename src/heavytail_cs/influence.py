"""Influence functions with bounded-log growth for robust mean estimation.

The central object is a nondecreasing phi: R -> R squeezed between two
logarithmic envelopes,

    -log(1 - x + C_p |x|^p)  <=  phi(x)  <=  log(1 + x + C_p |x|^p),

with

    C_p = ((p-1)/p)^(p/2) * ((2-p)/(p-1))^((2-p)/2),      p in (1, 2],

and C_2 = 1/2 (the (2-p)-power factor is 0^0 := 1 at p = 2, by
continuity).  This C_p is the smallest constant for which the two
envelopes never cross, i.e. (1 + C_p u^p)^2 - u^2 >= 1 for all u >= 0,
with tangency at u* = sqrt(p(2-p))/(p-1).  In particular both envelope
arguments stay strictly positive on the whole real line, so every
function here is finite everywhere.

phi equals the upper envelope for x >= 0 and, by odd symmetry, the
lower envelope for x < 0: the tightest admissible choice.  It makes
confidence intervals as narrow as the sandwich allows, and it is strictly
increasing, so interval endpoints are unique roots at every sample size.
At p = 2 it is Catoni's classical log(1 + x + x^2/2) form, which is odd,
strictly increasing and 1-Lipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rootfind import solve_monotone

#: Absolute tolerance of invert()'s root solve.
INVERT_TOL = 1e-12


def catoni_constant(p: float) -> float:
    """C_p = ((p-1)/p)^(p/2) * ((2-p)/(p-1))^((2-p)/2), with C_2 = 1/2."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    if p == 2.0:
        return 0.5
    return ((p - 1.0) / p) ** (p / 2.0) * ((2.0 - p) / (p - 1.0)) ** ((2.0 - p) / 2.0)


@dataclass(frozen=True)
class InfluenceFunction:
    """The influence function phi of order p, with its constant C_p = catoni_constant(p).

    Besides phi and phi' it carries three closed-form constants that the
    solvers' certificates rest on: slope_bound (L_p >= sup phi'),
    holder_bound (H_p, the (p-1)-Hoelder constant of phi') and
    curvature_bound (kappa_p, bounding |phi''(v)| |v|^(2-p)), each computed
    once per instance.

    Immutable; evaluation and inversion are pure, so instances are safe to
    share across threads.
    """

    p: float
    c_p: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_p", catoni_constant(self.p))

    def __call__(self, x):
        """Evaluate phi at x (scalar or ndarray); finite for all finite x."""
        out = _phi_parts(np.asarray(x, dtype=np.float64), self.p, self.c_p, want_slope=False)[0]
        return float(out) if np.ndim(x) == 0 else out

    def value_and_slope(self, x, power_over: np.ndarray | None = None):
        """(phi(x), phi'(x)) as numpy values of x's shape, sharing one power u = |x|^(p-1).

        phi's log argument is t = |x| + C_p u |x| and phi'(x) = (1 + p C_p u) / (1 + t),
        so phi'(0) = 1 exactly.  Both are finite for every finite x; at x = +-inf
        phi is +-inf and the slope NaN, without a warning.  Given an array
        `power_over` of x's shape, u / power_over is written into it, from the
        same u, before u's buffer is reused.  x is left unchanged.
        """
        return _phi_parts(np.asarray(x, dtype=np.float64), self.p, self.c_p, True, power_over)

    @cached_property
    def slope_bound(self) -> float:
        """L_p >= sup phi', so |phi(a) - phi(b)| <= L_p |a - b| for all a, b.

        1 at p = 2, else 1 + (2-p)/(p-1) u* with u* = (p (p-1) C_p)^(1/(2-p)).
        phi is odd, and for u >= 0
        phi'(u) = 1 + (p C u^(p-1) - u - C u^p) / (1 + u + C u^p)
        <= 1 + max_u (p C u^(p-1) - u), which is reached at u*.
        """
        p = self.p
        if p == 2.0:
            return 1.0
        u_star = (p * (p - 1.0) * self.c_p) ** (1.0 / (2.0 - p))
        return 1.0 + (2.0 - p) / (p - 1.0) * u_star

    @cached_property
    def holder_bound(self) -> float:
        """H_p with |phi'(u) - phi'(v)| <= H_p |u - v|^(p-1) for all u, v.

        p = 2: H_2 = 1/4 = sup |phi''|.  With D = 1 + |x| + x^2/2 >= 1,
        |phi''| = (D - 1)/D^2, and (D - 1)/D^2 <= 1/4 is (D - 2)^2 >= 0.

        p < 2: H_p = max(p C_p, (p-1)^(p-1) (2-p)^(2-p) L_p^p), with
        L_p = slope_bound.  phi' is even and |u - |v|| <= |u - v|, so it
        suffices to take 0 <= v < u, h = u - v.  With D = 1 + u + C u^p,
        phi' = D'/D and phi'' = p (p-1) C u^(p-2) / D - phi'^2.
        Rise: the first term integrates to at most
        p C (u^(p-1) - v^(p-1)) <= p C h^(p-1).
        Fall: phi'' >= -phi'^2 means (1/phi')' <= 1, so
        phi'(v) - phi'(u) <= phi'(v)^2 h / (1 + phi'(v) h) <= L^2 h / (1 + L h),
        whose ratio to h^(p-1) peaks at h = (2-p) / ((p-1) L).
        """
        p = self.p
        if p == 2.0:
            return 0.25
        fall = (p - 1.0) ** (p - 1.0) * (2.0 - p) ** (2.0 - p) * self.slope_bound**p
        return max(p * self.c_p, fall)

    @cached_property
    def curvature_bound(self) -> float:
        """kappa_p with |phi''(v)| <= kappa_p |v|^(p-2) for all v != 0, so
        sup_{|v| >= u} |phi''(v)| <= kappa_p u^(p-2) for every u > 0.

        p = 2: kappa_2 = 1/4 = holder_bound.

        p < 2: kappa_p = max(p (p-1) C, A^2 / (4 (A - B))), with A and B below.
        phi'' is odd, so take v > 0, D = 1 + v + C v^p, t = D - 1 and
        phi'' = p (p-1) C v^(p-2) / D - (D'/D)^2.
        Rise: phi'' <= p (p-1) C v^(p-2) / D <= p (p-1) C v^(p-2).
        Fall: expanding D'^2 and v^p = (t - v) / C gives
        -phi'' v^(2-p) D^2 = p C t + h(v) - p (p-1) C,  h(v) = v^(2-p) + p C (2-p) v.
        h is concave and increasing, and so is v as a function of t (the
        inverse of the convex t(v) = v + C v^p), so the right-hand side is
        concave in t and lies below its tangent A t + B at v0 = 3/5:
        A = p C + h'(v0) / t'(v0),  B = h(v0) - t0 h'(v0) / t'(v0) - p (p-1) C,
        with t0 = t(v0).  Then -phi'' v^(2-p) <= (A t + B) / (1 + t)^2
        <= A^2 / (4 (A - B)), the maximum over all 1 + t > 0 (A > B on all of
        (1, 2)).  v0 lies near the fall's maximiser (0.50 to 0.73 over
        (1, 2)), so this is within 0.1% of sup -phi''(v) v^(2-p).
        """
        p, c = self.p, self.c_p
        if p == 2.0:
            return 0.25
        v0 = 0.6
        s0 = v0 ** (p - 1.0)
        dh = (2.0 - p) / s0 + p * c * (2.0 - p)  # h'(v0)
        dt = 1.0 + p * c * s0  # t'(v0)
        t0 = v0 + c * v0 * s0
        a = p * c + dh / dt
        b = v0 ** (2.0 - p) + p * c * (2.0 - p) * v0 - t0 * dh / dt - p * (p - 1.0) * c
        return max(p * (p - 1.0) * c, a * a / (4.0 * (a - b)))

    def upper_envelope(self, x):
        """log(1 + x + C_p |x|^p); defined for every real x."""
        arr = np.asarray(x, dtype=np.float64)
        out = np.log1p(arr + self.c_p * np.abs(arr) ** self.p)
        return float(out) if np.ndim(x) == 0 else out

    def lower_envelope(self, x):
        """-log(1 - x + C_p |x|^p); with the tangency C_p the argument is positive for every real x."""
        arr = np.asarray(x, dtype=np.float64)
        out = -np.log(1.0 - arr + self.c_p * np.abs(arr) ** self.p)
        return float(out) if np.ndim(x) == 0 else out

    @staticmethod
    def reach(y: float) -> float:
        """An r >= 0 with phi(r) >= y >= 0 at every p, as phi(z) >= log1p(z) for z >= 0: math.expm1(y),
        within an ulp, raised by two; +inf where expm1 overflows."""
        try:
            e = math.expm1(y)
        except OverflowError:
            return math.inf
        return math.nextafter(e + math.ulp(e), math.inf)

    def invert(self, y: float) -> float:
        """The unique x with phi(x) = y, to absolute tolerance INVERT_TOL.

        Exists for every finite y because phi is strictly increasing and
        unbounded in both directions, and lies in [-r, r], r = reach(|y|), as
        phi is odd.  The midpoint of solve_monotone's final bracket from x = 0;
        the p = 2 closed form -1 + sqrt(2 e^y - 1) is only a test oracle.
        """
        y = float(y)
        if y == 0.0:
            return 0.0

        def g(x: float) -> tuple[float, float]:
            phi, slope = self.value_and_slope(x)
            return y - float(phi), -float(slope)

        r = self.reach(abs(y))
        lo, hi = solve_monotone(g, -r, r, 0.0, INVERT_TOL)
        return 0.5 * lo + 0.5 * hi


#: Up to this |x| (p <= 2, C_p <= 1) no product in the kernel overflows.
_X_SAFE = 1e150


def _phi_parts(x: np.ndarray, p: float, c_p: float, want_slope: bool, power_over: np.ndarray | None = None):
    """(phi(x), phi'(x) or None), finite for every finite x; see value_and_slope for power_over.

    Where some |x| exceeds _X_SAFE (or x is not finite), the log1p form is
    evaluated without warnings, and the finite x at which t overflowed
    take phi and phi' from _log_form; every other element keeps its bits.
    """
    ax = np.abs(x)
    if not ax.size or ax.max() <= _X_SAFE:
        return _log1p_form(x, ax, p, c_p, want_slope, power_over)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi, slope = _log1p_form(x, ax, p, c_p, want_slope, power_over)
        over = np.isinf(phi) & np.isfinite(x)
        mag, big_slope = _log_form(ax, p, c_p)
        phi = np.where(over, np.copysign(mag, x), phi)
        if want_slope:
            slope = np.where(over, big_slope, slope)
    return phi, slope


def _log1p_form(x: np.ndarray, ax: np.ndarray, p: float, c_p: float, want_slope: bool,
                power_over: np.ndarray | None = None):
    """phi = copysign(log1p(t), x) and phi' = (1 + p C u) / (1 + t), from one power u = |x|^(p-1).

    t = |x| + C (u |x|) is formed in u's buffer once the slope (and
    power_over's quotient) have read u, and the log overwrites it.  u is a
    fresh array (numpy takes a sqrt at p = 1.5, a copy at p = 2), so x and ax
    keep their values.  phi is log(1 + x + C|x|^p) for x >= 0 and
    -log(1 - x + C|x|^p) for x < 0.  A 0-d x stays on numpy scalars.
    """
    t = ax ** (p - 1.0)
    slope = t * (p * c_p) + 1.0 if want_slope else None
    if power_over is not None:
        np.divide(t, power_over, out=power_over)
    t *= ax
    t *= c_p
    t += ax
    if want_slope:
        slope /= t + 1.0
    if np.ndim(t) == 0:
        return np.copysign(np.log1p(t), x), slope
    np.log1p(t, out=t)
    return np.copysign(t, x, out=t), slope


def _log_form(ax: np.ndarray, p: float, c_p: float) -> tuple[np.ndarray, np.ndarray]:
    """|phi| and phi' at |x| = ax, with 1 + ax + C ax^p divided through by ax^p.

    log1p(ax + C ax^p) = p log(ax) + log(C + ax^(1-p) + ax^-p) and
    phi' = (ax^-p + p C / ax) / (ax^-p + ax^(1-p) + C): finite wherever
    ax is, for the large ax at which C ax^p overflows.
    """
    inv_p = ax**-p
    inv_q = ax ** (1.0 - p)
    return p * np.log(ax) + np.log(c_p + inv_q + inv_p), (inv_p + p * c_p / ax) / (inv_p + inv_q + c_p)


def make_influence(p: float, variant: str = "tight_upper_general_p") -> InfluenceFunction:
    """The influence function of order p, under either of its two names.

    `catoni_classic_p2` names its p = 2 form and `tight_upper_general_p`
    the form at any p in (1, 2].  Raises ValueError on a p outside (1, 2],
    an unknown name, or `catoni_classic_p2` with p != 2.
    """
    if variant not in ("catoni_classic_p2", "tight_upper_general_p"):
        raise ValueError(f"unknown influence variant {variant!r}")
    if variant == "catoni_classic_p2" and p != 2.0:
        raise ValueError(f"variant catoni_classic_p2 requires p = 2, got p = {p}")
    return InfluenceFunction(p)


def default_influence(p: float) -> InfluenceFunction:
    """The influence function of order p; raises ValueError on a p outside (1, 2]."""
    return InfluenceFunction(p)
