"""Catoni-style confidence sequence for streams with a bounded p-th moment.

For observations X_1, X_2, ... with mean mu and E|X - mu|^p <= v_p, the
decreasing function

    f_n(x) = sum_{i<=n} phi(lambda_i (X_i - x))

stays inside the band |f_n(mu)| <= log(2/alpha) + C_p v_p sum(lambda_i^p)
for all n simultaneously with probability at least 1 - alpha (maximal
inequality for the two nonnegative supermartingales exp(+-f_n(mu) -
C_p v_p sum lambda_i^p)).  The confidence interval at time n is the pair
of roots

    f_n(x) = +- (log(2/alpha) + C_p v_p sum(lambda_i^p)),

unique for every n >= 1 because the influence functions used here are
strictly increasing and unbounded.

The width analysis introduces free parameters 0 < t_i < 1 and tau_n > 0.
With

    eps_n = alpha * exp(-C_p v_p sum_i lambda_i^p (1 + t_i^-(p-1)))

the width bound

    |I_n| <= 4 (1 + tau_n) (C_p v_p sum lambda_i^p (1 + t_i^-(p-1))
             + log(2/alpha)) / sum(lambda_i)

holds simultaneously for all n at which its applicability condition
(see `width_bound_curve`) is true, outside an event of probability at
most sum_n eps_n.  The eps_n exponent uses the factor (1 + t_i^-(p-1));
substituting it into the two-sided endpoint bound reproduces the
factor-4 display above exactly, which the variant reading
(1 + t_i)^-(p-1) does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .influence import InfluenceFunction, default_influence
from .interval import ConfidenceInterval
from .rootfind import bisect, solve_monotone
from .schedules import LambdaSchedule, PrefixSums

TSpec = float | Callable[[int], float]


@dataclass(frozen=True)
class CatoniConfig:
    """Parameters of the Catoni confidence sequence.

    t and tau may be constants or callables i -> t_i / n -> tau_n; the
    defaults t = 1/2, tau = 0.1 keep (t_n) bounded away from 0 and tau_n a
    small positive constant, which makes the width-bound condition (see
    `width_bound_curve`) true for all large n.  v_p is a trusted upper
    bound on E|X - mu|^p; no estimation is attempted.  root_tol = None
    means 1e-9 * max(1, |weighted mean|), resolved per interval query.
    """

    p: float
    v_p: float
    alpha: float
    schedule: LambdaSchedule
    influence: InfluenceFunction | None = None
    t: TSpec = 0.5
    tau: TSpec = 0.1
    root_tol: float | None = None

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        if self.v_p <= 0.0:
            raise ValueError(f"v_p must be positive, got {self.v_p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.influence is None:
            object.__setattr__(self, "influence", default_influence(self.p))
        if self.influence.p != self.p:
            raise ValueError(
                f"influence order {self.influence.p} does not match config p {self.p}"
            )
        if isinstance(self.t, (int, float)) and not 0.0 < float(self.t) < 1.0:
            raise ValueError(f"t must lie in (0, 1), got {self.t}")
        if isinstance(self.tau, (int, float)) and not float(self.tau) > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.root_tol is not None and self.root_tol <= 0.0:
            raise ValueError(f"root_tol must be positive, got {self.root_tol}")

    @property
    def c_p(self) -> float:
        return self.influence.c_p

    def t_at(self, i: int) -> float:
        ti = self.t(i) if callable(self.t) else float(self.t)
        if not 0.0 < ti < 1.0:
            raise ValueError(f"t_{i} = {ti} outside (0, 1)")
        return ti

    def t_array(self, n: int) -> np.ndarray:
        if callable(self.t):
            return np.array([self.t_at(i) for i in range(1, n + 1)])
        return np.full(n, float(self.t))

    def tau_at(self, n: int) -> float:
        tau = self.tau(n) if callable(self.tau) else float(self.tau)
        if tau <= 0.0:
            raise ValueError(f"tau_{n} = {tau} must be positive")
        return tau


@dataclass
class CatoniState:
    """Retained observations plus running schedule sums.

    All observations are kept: f_n(x) has no finite sufficient statistic
    across x, so memory is O(n) and an interval query costs O(n) per
    root-finder iteration.  Single-owner mutable; the read-only queries
    (psi_sum, interval) may run concurrently against a frozen snapshot.
    """

    schedule: LambdaSchedule
    observations: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    prefix: PrefixSums | None = None

    def __post_init__(self):
        if self.prefix is None:
            self.prefix = PrefixSums(p=self.schedule.p)

    @property
    def n(self) -> int:
        return len(self.observations)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.lambdas, dtype=np.float64),
            np.asarray(self.observations, dtype=np.float64),
        )


def new_state(config: CatoniConfig) -> CatoniState:
    return CatoniState(schedule=config.schedule)


def update(state: CatoniState, x: float) -> CatoniState:
    """Append one observation; O(1). Rejects non-finite input."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite, got {x}")
    lam = state.schedule.at(state.n + 1)
    state.observations.append(x)
    state.lambdas.append(lam)
    state.prefix.push(lam)
    return state


def psi_sum(state: CatoniState, config: CatoniConfig, x: float) -> float:
    """f_n(x) = sum_i phi(lambda_i (X_i - x)); strictly decreasing in x."""
    if state.n == 0:
        raise ValueError("psi_sum requires at least one observation")
    lam, xs = state.arrays()
    return float(np.sum(config.influence(lam * (xs - x))))


def target(config: CatoniConfig, sum_lambda_p: float) -> float:
    """Band half-height log(2/alpha) + C_p v_p sum(lambda_i^p)."""
    return math.log(2.0 / config.alpha) + config.c_p * config.v_p * sum_lambda_p


#: Elements per block of the fused f_n / f_n' pass: a block's temporaries
#: stay in cache, and at most this many elements are summed by one np.sum.
_BLOCK = 1 << 15


def _f_and_slope(influence: InfluenceFunction, lam: np.ndarray, xs: np.ndarray, x: float) -> tuple[float, float]:
    """(f_n(x), f_n'(x)) = (sum phi(z_i), -sum lambda_i phi'(z_i)), z_i = lambda_i (X_i - x).

    One pass over the arrays in blocks of _BLOCK elements.  Up to _BLOCK
    elements the value equals np.sum(influence(lam * (xs - x))) exactly.
    A z_i beyond the float range is +-inf without a warning; f_n is then
    infinite, which solve_monotone reads as an overflow.
    """
    f = slope = 0.0
    for start in range(0, xs.size, _BLOCK):
        lam_b = lam[start : start + _BLOCK]
        with np.errstate(over="ignore"):
            z = lam_b * (xs[start : start + _BLOCK] - x)
        phi, dphi = influence.value_and_slope(z)
        f += float(np.sum(phi))
        slope -= float(np.dot(lam_b, dphi))
    return f, slope


def solve_interval_arrays(
    influence: InfluenceFunction,
    lam: np.ndarray,
    xs: np.ndarray,
    tgt: float,
    root_tol: float | None = None,
) -> tuple[float, float]:
    """Both endpoint roots of sum phi(lambda_i (X_i - x)) = +-tgt, each to within root_tol.

    Both endpoints start safeguarded Newton (solve_monotone) from one shared
    evaluation of f_n and f_n' at the weighted mean
    xhat = sum(lambda_i X_i)/sum(lambda_i); each evaluation is one fused
    pass (_f_and_slope).  Returns (lower, upper); lower <= upper since f_n
    is decreasing and the +tgt root is the smaller one.
    """
    xhat = float(np.dot(lam, xs)) / float(np.sum(lam))
    if root_tol is None:
        root_tol = 1e-9 * max(1.0, abs(xhat))

    def shifted(level: float):
        def g(x: float) -> tuple[float, float]:
            f, slope = _f_and_slope(influence, lam, xs, x)
            return f - level, slope
        return g

    f0, slope0 = _f_and_slope(influence, lam, xs, xhat)
    lower = solve_monotone(shifted(tgt), xhat, root_tol, (f0 - tgt, slope0))
    upper = solve_monotone(shifted(-tgt), xhat, root_tol, (f0 + tgt, slope0))
    return lower, upper


def interval(state: CatoniState, config: CatoniConfig) -> ConfidenceInterval:
    """Confidence interval at the current n (n >= 1).

    lower solves f_n(x) = +target, upper solves f_n(x) = -target, each to
    endpoint accuracy root_tol.  Intervals are reported raw (not
    intersected over n); see running_intersection for the optional mode.
    """
    if state.n == 0:
        raise ValueError("interval requires at least one observation")
    lam, xs = state.arrays()
    tgt = target(config, state.prefix.sum_lambda_p)
    lower, upper = solve_interval_arrays(config.influence, lam, xs, tgt, config.root_tol)
    return ConfidenceInterval(lower, upper)


def running_intersection(
    intervals: Sequence[ConfidenceInterval],
) -> list[tuple[float, float]]:
    """Intersect intervals over n; preserves the coverage guarantee.

    Returns raw (lower, upper) tuples because the intersection can become
    empty (lower > upper) on the miscoverage event of probability <= alpha.
    """
    out: list[tuple[float, float]] = []
    lo, hi = -math.inf, math.inf
    for iv in intervals:
        lo = max(lo, iv.lower)
        hi = min(hi, iv.upper)
        out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Width-bound machinery (eps_n, applicability condition, analytic bound)
# ---------------------------------------------------------------------------


def _schedule_sums(config: CatoniConfig, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative sum lam, sum lam^p (1 + t^-(p-1)), sum lam^p (1-t)^-(p-1) over 1..n."""
    lam = config.schedule.head(n)
    lam_p = lam**config.p
    tv = config.t_array(n)
    q = config.p - 1.0
    s1 = np.cumsum(lam)
    s_plus = np.cumsum(lam_p * (1.0 + tv**-q))
    s_minus = np.cumsum(lam_p * (1.0 - tv) ** -q)
    return s1, s_plus, s_minus


def epsilon_n(config: CatoniConfig, n: int) -> float:
    """eps_n = alpha * exp(-C_p v_p sum_i lambda_i^p (1 + t_i^-(p-1))).

    Lies in (0, alpha], decreasing in n; eps_n = alpha exactly when the
    exponent sum vanishes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _, s_plus, _ = _schedule_sums(config, n)
    return config.alpha * math.exp(-config.c_p * config.v_p * float(s_plus[-1]))


def failure_budget(
    config: CatoniConfig,
    term_floor: float = 1e-16,
    chunk: int = 1 << 20,
    max_terms: int = 1 << 34,
) -> float:
    """alpha * sum_{n>=1} eps_n, summed in chunks until eps_n < term_floor.

    The terms are nonincreasing, so the truncation error after stopping at
    term size term_floor is bounded by term_floor times the (finite)
    number of further effectively-nonzero terms; for the power-law
    schedules used here eps_n decays polynomially and a floor of 1e-16
    (or 1e-12 for slowly decaying configs) makes the truncation
    negligible at the tolerances this quantity is consumed at.

    Each chunk evaluates only its own window of lambda (schedule.span), so
    the cost is O(terms) time and O(chunk) memory.
    """
    cv = config.c_p * config.v_p
    q = config.p - 1.0
    total = 0.0
    expo = 0.0
    start = 1
    while start <= max_terms:
        stop = min(start + chunk - 1, max_terms)
        if callable(config.t):
            t_factor = 1.0 + np.array([config.t_at(i) for i in range(start, stop + 1)]) ** -q
        else:
            t_factor = 1.0 + float(config.t) ** -q
        expos = config.schedule.span(start, stop) ** config.p
        expos *= cv
        expos *= t_factor
        np.cumsum(expos, out=expos)
        expos += expo
        terms = np.exp(-expos)
        terms *= config.alpha
        total += float(np.sum(terms))
        expo = float(expos[-1])
        if terms[-1] < term_floor:
            return config.alpha * total
        start = stop + 1
    raise RuntimeError(f"failure budget did not reach term_floor within {max_terms} terms")


def width_bound(config: CatoniConfig, n: int) -> float | None:
    """width_bound_curve at n; None (not applicable) where its condition fails."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bound = width_bound_curve(config, n)[0][n - 1]
    return None if math.isnan(bound) else float(bound)


def width_bound_curve(config: CatoniConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, condition) for every n = 1..n_max in one vectorized pass.

    bounds[n-1] = 4 (1+tau_n) (C_p v_p sum lam^p (1+t^-(p-1)) + log 2/alpha) / sum lam,
    and the bound applies at n (condition[n-1]) iff

        C_p v_p sum lam^p (1 + t^-(p-1)) + log(2/alpha) + log(2/eps_n)
        <= tau_n^(1/(p-1)) / (1+tau_n)^(p/(p-1))
           * (sum lam)^(p/(p-1)) / (C_p sum lam^p (1-t)^-(p-1))^(1/(p-1)),

    where log(2/eps_n) = log(2/alpha) + C_p v_p sum lam^p (1 + t^-(p-1)).
    bounds[n-1] is NaN where the condition fails.  A callable tau costs
    one scalar evaluation per n; everything else is vectorized.
    """
    q = config.p - 1.0
    s1, s_plus, s_minus = _schedule_sums(config, n_max)
    if callable(config.tau):
        tau = np.array([config.tau_at(i) for i in range(1, n_max + 1)])
    else:
        tau = np.full(n_max, float(config.tau))
    log2a = math.log(2.0 / config.alpha)
    cv_splus = config.c_p * config.v_p * s_plus
    lhs = 2.0 * cv_splus + 2.0 * log2a
    rhs = (
        tau ** (1.0 / q)
        / (1.0 + tau) ** (config.p / q)
        * s1 ** (config.p / q)
        / (config.c_p * s_minus) ** (1.0 / q)
    )
    condition = lhs <= rhs
    bounds = 4.0 * (1.0 + tau) * (cv_splus + log2a) / s1
    bounds[~condition] = np.nan
    return bounds, condition


# ---------------------------------------------------------------------------
# Supporting processes behind the width bound, exposed for the test harness
# ---------------------------------------------------------------------------


def log_supermartingale(
    state: CatoniState,
    config: CatoniConfig,
    sign: int,
    x: float,
    mu: float | None = None,
    use_t: bool = True,
) -> float:
    """log M_n^+(x) (sign=+1) or log M_n^-(x) (sign=-1).

    mu is the true mean; it defaults to x, the case in which M_n^+- reduce
    (together with t_i = 1, i.e. use_t=False) to the basic processes
    exp(+-f_n(mu) - C_p v_p sum lambda_i^p).  Finite for every finite
    input except the degenerate combination use_t=False with x != mu,
    where the (1-t)^-(p-1) weight is infinite and the process is 0.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if state.n == 0:
        return 0.0
    mu = x if mu is None else float(mu)
    lam, xs = state.arrays()
    lam_p = lam**config.p
    q = config.p - 1.0
    if use_t:
        tv = config.t_array(state.n)
        s_t = float(np.sum(lam_p * tv**-q))
        s_omt = float(np.sum(lam_p * (1.0 - tv) ** -q))
    else:
        s_t = float(np.sum(lam_p))
        s_omt = math.inf
    phi_sum = float(np.sum(config.influence(lam * (xs - x))))
    sum_lam = float(np.sum(lam))
    out = sign * phi_sum - sign * (mu - x) * sum_lam - config.c_p * config.v_p * s_t
    gap = abs(mu - x) ** config.p
    if gap > 0.0:
        out -= config.c_p * gap * s_omt
    return out


def supermartingale(
    state: CatoniState,
    config: CatoniConfig,
    sign: int,
    x: float,
    mu: float | None = None,
    use_t: bool = True,
) -> float:
    """M_n^+-(x); nonnegative, mean at most 1 under the truth.

    Computed in log space and exponentiated; +inf signals an overflow of
    the final exp (the log value from log_supermartingale stays finite).
    n = 0 gives the empty product 1.
    """
    logm = log_supermartingale(state, config, sign, x, mu, use_t)
    with np.errstate(over="ignore"):
        return float(np.exp(logm))


def b_plus(config: CatoniConfig, n: int, x: float, mu: float) -> float:
    """Deterministic bounding curve B_n^+(x); no data enters.

    B_n^+(x) = (mu - x) sum lam + C_p v_p sum lam^p t^-(p-1)
               + C_p |mu - x|^p sum lam^p (1-t)^-(p-1) + log(2/eps_n);
    strictly convex in x with a unique minimum right of mu.
    """
    lam = config.schedule.head(n)
    lam_p = lam**config.p
    tv = config.t_array(n)
    q = config.p - 1.0
    s1 = float(np.sum(lam))
    s_t = float(np.sum(lam_p * tv**-q))
    s_omt = float(np.sum(lam_p * (1.0 - tv) ** -q))
    log2eps = math.log(2.0 / epsilon_n(config, n))
    return (
        (mu - x) * s1
        + config.c_p * config.v_p * s_t
        + config.c_p * abs(mu - x) ** config.p * s_omt
        + log2eps
    )


def b_plus_minimizer(config: CatoniConfig, n: int, mu: float) -> float:
    """argmin of B_n^+: mu + (sum lam / (p C_p sum lam^p (1-t)^-(p-1)))^(1/(p-1))."""
    s1, _, s_omt = _schedule_sums(config, n)
    q = config.p - 1.0
    return mu + (float(s1[-1]) / (config.p * config.c_p * float(s_omt[-1]))) ** (1.0 / q)


def reduced_root(d: float, p: float, tol: float = 1e-14) -> float:
    """Smallest positive root of y^p - y + D = 0, for D in (0, (p-1)/p * p^(-1/(p-1))].

    The left-hand side decreases from D at y = 0 to its minimum at
    y* = (1/p)^(1/(p-1)) and increases afterwards; the smallest root lies
    in (0, y*].  Satisfies y(D) <= (1+tau) D whenever
    D <= tau^(1/(p-1)) / (1+tau)^(p/(p-1)).
    """
    if d <= 0.0:
        raise ValueError(f"D must be positive, got {d}")
    y_star = (1.0 / p) ** (1.0 / (p - 1.0))
    g = lambda y: y**p - y + d
    if g(y_star) > 0.0:
        raise ValueError(f"no real root: min of y^p - y + D is {g(y_star)} > 0")
    return bisect(g, 0.0, y_star, tol)
