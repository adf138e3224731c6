"""Reference formulas for the output checks, written from the paper.

Deliberately independent of the package: the influence function, its
constant C_p, the power-law and Dubins-Savage weights and the band
half-height are re-derived here, so a change to any of them in src/ shows
up as a failed check rather than as a faster benchmark.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative agreement required between package phi and reference phi.
PHI_RTOL = 1e-12


def c_p(p: float) -> float:
    """C_p = ((p-1)/p)^(p/2) ((2-p)/(p-1))^((2-p)/2); the p -> 2 limit is 1/2."""
    if p == 2.0:
        return 0.5
    return math.exp(0.5 * p * math.log((p - 1.0) / p) + 0.5 * (2.0 - p) * math.log((2.0 - p) / (p - 1.0)))


def phi(x: np.ndarray, p: float) -> np.ndarray:
    """log(1 + x + C_p|x|^p) for x >= 0 and -log(1 - x + C_p|x|^p) for x < 0."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    return np.where(x >= 0.0, 1.0, -1.0) * np.log1p(ax + c_p(p) * ax**p)


def power_law(n: int, c: float, p: float) -> np.ndarray:
    """lambda_t = c t^(-1/p), t = 1..n."""
    return c * np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / p)


def ds_a(p: float, alpha: float, b: float) -> float:
    """Dubins-Savage offset a with one-sided tail alpha/2: ((2/alpha)^(1/(p-1)) - 1) / (m_p b^(1/(p-1)))."""
    q = 1.0 / (p - 1.0)
    m_p = ((p - 1.0) / 2.0 ** (2.0 - p)) ** q
    return ((2.0 / alpha) ** q - 1.0) / (m_p * b**q)


def ds_lambda(n: int, p: float, v_p: float, alpha: float, b: float) -> np.ndarray:
    """Width-optimal Dubins-Savage weights (a / (t b v_p (p-1)))^(1/p)."""
    t = np.arange(1, n + 1, dtype=np.float64)
    return (ds_a(p, alpha, b) / (t * b * v_p * (p - 1.0))) ** (1.0 / p)


def band(lam: np.ndarray, p: float, v_p: float, alpha: float) -> np.ndarray:
    """Catoni band half-height log(2/alpha) + C_p v_p sum_{i<=n} lambda_i^p for every n."""
    return math.log(2.0 / alpha) + c_p(p) * v_p * np.cumsum(lam**p)


def ds_radius(lam: np.ndarray, p: float, v_p: float, alpha: float, b: float) -> np.ndarray:
    """(a + b v_p sum lambda^p) / sum lambda for every n."""
    return (ds_a(p, alpha, b) + b * v_p * np.cumsum(lam**p)) / np.cumsum(lam)


def solver_tol(lam: np.ndarray, xs: np.ndarray, root_tol: float | None) -> float:
    """The endpoint accuracy the package promises: root_tol, else 1e-9 max(1, |weighted mean|)."""
    if root_tol is not None:
        return root_tol
    return 1e-9 * max(1.0, abs(float(np.dot(lam, xs)) / float(np.sum(lam))))


def endpoints_ok(package_phi, p: float, lam, xs, tgt: float, lo: float, hi: float, tol: float) -> bool:
    """Check one Catoni interval [lo, hi] against f_n(x) = sum phi(lambda_i (X_i - x)).

    f_n is decreasing, lo solves f_n = +tgt and hi solves f_n = -tgt, each
    within tol: so f_n(lo - tol) >= tgt >= f_n(lo + tol) and likewise at
    hi.  f_n uses the reference phi; the package phi must agree with it on
    the arguments at lo - tol.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        return False
    args = lam * (xs - (lo - tol))
    ref = phi(args, p)
    if not np.allclose(np.asarray(package_phi(args)), ref, rtol=PHI_RTOL, atol=0.0):
        return False

    def f(x):
        return float(np.sum(phi(lam * (xs - x), p)))

    return float(np.sum(ref)) >= tgt >= f(lo + tol) and f(hi - tol) >= -tgt >= f(hi + tol)


def coverage_miss(x: np.ndarray, mu: float, method: str, p: float, v_p: float, alpha: float, b: float = 1.0) -> bool:
    """Whether mu leaves the sequence at some n <= len(x) (default schedules, stride 1)."""
    n = x.size
    if method == "catoni":
        lam = power_law(n, 1.0, p)
        return bool(np.any(np.abs(np.cumsum(phi(lam * (x - mu), p))) > band(lam, p, v_p, alpha)))
    lam = ds_lambda(n, p, v_p, alpha, b)
    dev = np.abs(np.cumsum(lam * x) - mu * np.cumsum(lam))
    return bool(np.any(dev > ds_a(p, alpha, b) + b * v_p * np.cumsum(lam**p)))


def width_within(p: float, lam, xs, tgt: float, mu: float, bound: float) -> bool:
    """Whether the Catoni interval at this n has width <= bound.

    First the sufficient test f(mu + w) <= -tgt and f(mu - w) >= tgt with
    w = bound / 2 (then both endpoints lie in [mu - w, mu + w]); when it
    fails, both endpoints are bisected on the reference f.
    """
    def f(x):
        return float(np.sum(phi(lam * (xs - x), p)))

    w = 0.5 * bound
    if f(mu + w) <= -tgt and f(mu - w) >= tgt:
        return True
    span = 1.0 + 4.0 * bound

    def root(level):
        lo, hi = mu - span, mu + span
        while f(lo) < level:
            lo -= hi - lo
        while f(hi) > level:
            hi += hi - lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if f(mid) > level else (lo, mid)
        return 0.5 * (lo + hi)

    return root(-tgt) - root(tgt) <= bound
