"""Exact mpmath oracles for phi and f_n, the Dubins-Savage constants and the running sums, shared by the test modules.

Each function sets its own precision with `mpmath.workdps`, so it leaves
the global `mpmath.mp.dps` as it found it.
"""

import mpmath as mp


def mp_m_p(p):
    """m_p = ((p-1) / 2^(2-p))^(1/(p-1)) for an mpf p, in 60-digit mpmath."""
    with mp.workdps(60):
        return ((p - 1) / 2 ** (2 - p)) ** (1 / (p - 1))


def mp_tail_bound(a, b, p):
    """The one-sided bound 1 / (1 + m_p a b^(1/(p-1)))^(p-1) in 60-digit mpmath, as a float."""
    with mp.workdps(60):
        a_, b_, p_ = mp.mpf(a), mp.mpf(b), mp.mpf(p)
        return float(1 / (1 + mp_m_p(p_) * a_ * b_ ** (1 / (p_ - 1))) ** (p_ - 1))


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
        p, alpha, b, v_p = map(mp.mpf, (cfg.p, cfg.alpha, cfg.b, cfg.v_p))
        q = 1 / (p - 1)
        a = ((2 / alpha) ** q - 1) / (mp_m_p(p) * b**q)
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


def exact_f(influence, lam, xs, y):
    """f_n(y) = sum phi(lambda_i (X_i - y)) on the exact values of the float inputs, in 50-digit mpmath."""
    with mp.workdps(50):
        total = mp.mpf(0)
        for li, xi in zip(lam.tolist(), xs.tolist()):
            total += mp_phi(influence.p, influence.c_p, mp.mpf(li) * (mp.mpf(xi) - mp.mpf(y)))[0]
        return total
