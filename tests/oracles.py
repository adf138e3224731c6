"""Exact oracles for phi, f_n and the Catoni endpoints, the Dubins-Savage constants, the running
sums, the failure budget and the centred-Pareto moment, shared by the test modules.

Each mpmath function sets its own precision with `mpmath.workdps`, so it
leaves the global `mpmath.mp.dps` as it found it.
"""

import math

import mpmath as mp
import numpy as np
from scipy.special import digamma

from heavytail_cs.catoni_cs import solve_interval_arrays


def mp_m_p(p):
    """m_p = ((p-1) / 2^(2-p))^(1/(p-1)) for an mpf p, in 60-digit mpmath."""
    with mp.workdps(60):
        return ((p - 1) / 2 ** (2 - p)) ** (1 / (p - 1))


def mp_tail_bound(a, b, p):
    """The one-sided bound 1 / (1 + m_p a b^(1/(p-1)))^(p-1) in 60-digit mpmath, as a float."""
    with mp.workdps(60):
        a_, b_, p_ = mp.mpf(a), mp.mpf(b), mp.mpf(p)
        return float(1 / (1 + mp_m_p(p_) * a_ * b_ ** (1 / (p_ - 1))) ** (p_ - 1))


def mp_a(p, alpha, b):
    """The Dubins-Savage a = ((2/alpha)^q - 1) / (m_p b^q), q = 1/(p-1), of floats p, alpha, b, in 60-digit mpmath."""
    with mp.workdps(60):
        p, alpha, b = mp.mpf(p), mp.mpf(alpha), mp.mpf(b)
        q = 1 / (p - 1)
        return ((2 / alpha) ** q - 1) / (mp_m_p(p) * b**q)


def mp_sums(p, lam, xs):
    """(sum lambda_i, sum lambda_i x_i, sum lambda_i^p) after each observation, in 60-digit mpmath.

    The first two, and the third at p = 2, are exact while each sum's bits
    fit in 60 digits (about 199 bits).
    """
    out = []
    with mp.workdps(60):
        p = mp.mpf(p)
        s1 = sx = sp = mp.mpf(0)
        for lam_i, x_i in zip(lam, xs):
            s1, sx, sp = s1 + lam_i, sx + mp.mpf(lam_i) * x_i, sp + mp.mpf(lam_i) ** p
            out.append((s1, sx, sp))
    return out


def mp_intervals(cfg, lam, xs):
    """The exact [c - r, c + r] after each observation, in 60-digit mpmath.

    c = sum lambda_i x_i / sum lambda_i and r = (a + b v_p sum lambda_i^p) / sum lambda_i
    of the float lambda_i and x_i, with the exact a of cfg's floats.
    """
    out = []
    with mp.workdps(60):
        a, b, v_p = mp_a(cfg.p, cfg.alpha, cfg.b), mp.mpf(cfg.b), mp.mpf(cfg.v_p)
        for s1, sx, sp in mp_sums(cfg.p, lam, xs):
            c, r = sx / s1, (a + b * v_p * sp) / s1
            out.append((c - r, c + r, c, r))
    return out


def mp_phi(p, c_p, z):
    """(phi(z), phi'(z)) of order p with constant c_p, at the exact value of z, in 50-digit mpmath.

    phi(z) = sign(z) log(1 + |z| + c_p |z|^p) and
    phi'(z) = (1 + p c_p |z|^(p-1)) / (1 + |z| + c_p |z|^p), with |z|^(p-1) read as |z|^p / |z|.
    """
    with mp.workdps(50):
        p, c_p, z = mp.mpf(p), mp.mpf(c_p), mp.mpf(z)
        az = abs(z)
        az_p = az**p
        t = az + c_p * az_p
        return mp.sign(z) * mp.log1p(t), (1 + p * c_p * (az_p / az if az else 0)) / (1 + t)


def mp_phi_errors(p, c_p, z, phi, slope):
    """(|phi - phi(z)|, |slope - phi'(z)| / phi'(z)) of computed floats at the float z, from mp_phi, in 50-digit mpmath."""
    with mp.workdps(50):
        exact_phi, exact_slope = mp_phi(p, c_p, z)
        return float(abs(phi - exact_phi)), float(abs(slope - exact_slope) / exact_slope)


def exact_f(influence, lam, xs, y, dps=50):
    """f_n(y) = sum phi(lambda_i (X_i - y)) on the exact values of the float inputs, in dps-digit mpmath.

    Each phi is mp_phi's, within 50 digits of its own size; dps sets the
    precision of the z_i and of the sum.
    """
    with mp.workdps(dps):
        total = mp.mpf(0)
        for li, xi in zip(lam.tolist(), xs.tolist()):
            total += mp_phi(influence.p, influence.c_p, mp.mpf(li) * (mp.mpf(xi) - mp.mpf(y)))[0]
        return total


def exact_endpoints(influence, lam, xs, tgt):
    """The exact roots (lower, upper) of f_n = +tgt and f_n = -tgt on the float inputs, as mpf.

    Centred on m, the median observation, each root is m + u with u Newton's
    iterate in mpmath on d_i = X_i - m from u0, the end that
    solve_interval_arrays gives on the float X_i - m at the finest root_tol
    (adjacent floats).  The digits, 30 + log10(max |X_i - m - u0| / width),
    hold each d_i - u, and so f_n, to within about width 1e-30 of exact;
    Newton stops below a step of width 1e-30.  The exact f_n - level is then
    checked to be > 0 at u - width 1e-20 and < 0 at u + width 1e-20, a margin
    of 1e10 over those errors.  Raises AssertionError if Newton does not
    converge or a sign is wrong, and ValueError where X_i - m or a float end
    is not finite.
    """
    m = float(np.sort(xs)[xs.size // 2])
    with np.errstate(over="ignore"):
        centred = xs - m
    if not np.isfinite(centred).all():
        raise ValueError(f"X_i - m overflows at m = {m}")
    starts = solve_interval_arrays(influence, lam, centred, tgt, 5e-324)
    if not all(map(math.isfinite, starts)):
        raise ValueError(f"the float solve has an infinite end: {starts}")
    width = max(starts[1] - starts[0], math.ulp(starts[1]))
    roots = []
    for u0, level in zip(starts, (tgt, -tgt)):
        spread = max(abs(mp.mpf(float(xs.max())) - m), abs(mp.mpf(float(xs.min())) - m)) + abs(u0) + width
        dps = 30 + int(mp.ceil(mp.log10(spread / width)))
        with mp.workdps(dps):
            d = [mp.mpf(x) - m for x in xs.tolist()]

            def excess(u):
                """(f_n(m + u) - level, f_n'(m + u))."""
                f = df = mp.mpf(0)
                for li, di in zip(lam.tolist(), d):
                    phi, dphi = mp_phi(influence.p, influence.c_p, mp.mpf(li) * (di - u))
                    f, df = f + phi, df - li * dphi
                return f - level, df

            u, step = mp.mpf(u0), mp.inf
            for _ in range(60):
                if abs(step) <= width * mp.mpf(10) ** -30:
                    break
                g, dg = excess(u)
                step = g / dg
                u -= step
            else:
                raise AssertionError(f"Newton did not converge from {m} + {u0}")
            delta = width * mp.mpf(10) ** -20
            assert excess(u - delta)[0] > 0 > excess(u + delta)[0], (m, u0, level)
        with mp.workdps(dps + 20 + int(mp.log10(1 + abs(m) / spread))):
            roots.append(m + u)
    return roots[0], roots[1]


def budget_oracle(cfg, m=1 << 22):
    """[L, U] around the exact alpha * sum eps_n for a power_law(c, p) schedule at the config's p.

    The first m terms are summed with numpy.
    E_n = K H_n with K = C_p v_p c^p (1 + t^-(p-1)) and H_n = digamma(n + 1)
    + gamma to float accuracy.  DeTemple's bracket
    1/(24 (n+1)^2) < H_n - ln(n + 1/2) - gamma < 1/(24 n^2) bounds each
    later term, and sum_{n>m} (n + 1/2)^-K lies between the integral of
    x^-K from m + 1, less the midpoint rule's error (f'' is decreasing),
    and that integral.
    """
    a2 = cfg.alpha**2
    q = cfg.p - 1.0
    cvp = cfg.c_p * cfg.v_p * cfg.schedule.c**cfg.p
    n = np.arange(1.0, m + 1.0)
    k = cvp * (1.0 + cfg.t**-q)
    head = float(np.sum(np.exp(-k * (digamma(n + 1.0) + np.euler_gamma))))
    m1 = m + 1.0
    upper = m1 ** (1.0 - k) / (k - 1.0)
    lower = upper - k * (m1 ** (-k - 1.0) + (k + 1.0) * m1 ** (-k - 2.0)) / 24.0
    g = math.exp(-k * np.euler_gamma)
    return (a2 * (head + g * math.exp(-k / (24.0 * m1**2)) * lower) * (1.0 - 1e-12),
            a2 * (head + g * upper) * (1.0 + 1e-12))


def mp_pareto_vp(beta, p):
    """E|Y - m|^p for Y ~ Pareto(beta, 1) with mean m, at 40 digits, as a float.

    The part below the mean is mpmath's 2F1(beta+1, p+1; p+2; 1/beta)/(p+1),
    which converges at shapes where mpmath quadrature does not.
    """
    with mp.workdps(40):
        b, q = mp.mpf(beta), mp.mpf(p)
        above = b ** (q - b) * mp.gamma(b - q) * mp.gamma(q + 1) / mp.gamma(b)
        below = b**-b * mp.hyp2f1(b + 1, q + 1, q + 2, 1 / b) / (q + 1)
        return float((b - 1) ** (b - q) * (above + below))
