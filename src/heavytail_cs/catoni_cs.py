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

The width analysis introduces free constants 0 < t < 1 and tau > 0 (the
paper allows sequences t_i, tau_n).  With

    eps_n = alpha * exp(-C_p v_p sum_i lambda_i^p (1 + t^-(p-1)))

the width bound

    |I_n| <= 4 (1 + tau) (C_p v_p sum lambda_i^p (1 + t^-(p-1))
             + log(2/alpha)) / sum(lambda_i)

holds simultaneously for all n at which its applicability condition
(see `width_bound_curve`) is true, outside an event of probability at
most sum_n eps_n.  The eps_n exponent uses the factor (1 + t^-(p-1));
substituting it into the two-sided endpoint bound reproduces the
factor-4 display above exactly, which the variant reading
(1 + t)^-(p-1) does not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .influence import InfluenceFunction, default_influence
from .interval import ConfidenceInterval
from .rootfind import Reading, solve_monotone
from .schedules import LambdaSchedule, PrefixSums, checkpoint_sums, cumulative_powers, cumulative_sums


@dataclass(frozen=True)
class CatoniConfig:
    """Parameters of the Catoni confidence sequence.

    t in (0, 1) and tau > 0 are the constants of the width analysis; only
    the width bound and the failure budget read them, never the interval.
    The defaults t = 1/2, tau = 0.1 make the width-bound condition (see
    `width_bound_curve`) true for all large n.  v_p is a trusted upper
    bound on E|X - mu|^p; no estimation is attempted.
    """

    p: float
    v_p: float
    alpha: float
    schedule: LambdaSchedule
    t: float = 0.5
    tau: float = 0.1
    influence: InfluenceFunction = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        if not 0.0 < self.v_p < math.inf:
            raise ValueError(f"v_p must be positive and finite, got {self.v_p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (isinstance(self.t, (int, float)) and 0.0 < self.t < 1.0):
            raise ValueError(f"t must lie in (0, 1), got {self.t!r}")
        if not (isinstance(self.tau, (int, float)) and 0.0 < self.tau < math.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        object.__setattr__(self, "influence", default_influence(self.p))

    @property
    def c_p(self) -> float:
        return self.influence.c_p


@dataclass
class CatoniState(PrefixSums):
    """PrefixSums of the schedule's weights plus the retained observations.

    All observations are kept: f_n(x) has no finite sufficient statistic
    across x, so memory is O(n) and an interval query costs O(n) per
    root-finder iteration.  The weights are schedule.head(n), bit for bit the
    values update pushed.  Single-owner mutable; interval may run
    concurrently against a frozen snapshot.
    """

    schedule: LambdaSchedule
    observations: list[float] = field(default_factory=list, init=False)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.schedule.head(self.n), np.asarray(self.observations, dtype=np.float64)


def new_state(config: CatoniConfig) -> CatoniState:
    return CatoniState(p=config.p, schedule=config.schedule)


def update(state: CatoniState, x: float) -> CatoniState:
    """Append one observation; O(1). Rejects non-finite input."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite, got {x}")
    state.push(state.schedule.at(state.n + 1))
    state.observations.append(x)
    return state


def target(config: CatoniConfig, sum_lambda_p):
    """Band half-height log(2/alpha) + C_p v_p sum(lambda_i^p); elementwise over an array of sums."""
    return math.log(2.0 / config.alpha) + config.c_p * config.v_p * sum_lambda_p


#: Elements per block of the fused f_n / f_n' pass: a block's temporaries
#: stay in cache, and at most this many elements are summed by one np.sum.
_BLOCK = 1 << 15

#: 2^-52, twice float64's unit roundoff: the rounding bounds below count in it.
_EPS = float(np.finfo(np.float64).eps)
#: Relative rounding of one phi or phi' term, with room to spare: z_i (a subtraction and a product),
#: u = |z|^(p-1), two products and a sum for t, then log1p (7 roundings), or p C_p, a product,
#: two sums and one quotient for phi' (11), each within an ulp; the kernel alone errs by < 2 eps.
_TERM_ULPS = 16
#: Roundings a term sees in numpy's pairwise np.sum of at most _BLOCK
#: elements: 15 in an 8-way unrolled leaf of <= 128, 3 joining the 8
#: partials, 7 for the leftovers and 8 halvings from 2^15 down to 128.
_SUM_DEPTH = 40
#: The certificate gives up on Newton steps this long (|d|^p must not overflow).
_MAX_REACH = 1e150
#: How much larger than its estimate curvature r^2 the split remainder is taken to be when
#: _TaylorCertificate.split_radius decides whether a pass's split sums can pay.
_SPLIT_GAIN = 8.0
#: Terms of failure_budget summed one by one; DeTemple's closed form bounds the rest.
_BUDGET_HEAD = 1 << 16


def _f_and_slope(influence: InfluenceFunction, lam: np.ndarray, xs: np.ndarray, x: float, sums: bool = False,
                 far: float = 0.0):
    """(f_n(x), f_n'(x)) = (sum phi(z_i), -sum lambda_i phi'(z_i)), z_i = lambda_i (X_i - x).

    One pass over the arrays in blocks of _BLOCK elements.  Up to _BLOCK
    elements the value equals np.sum(influence(lam * (xs - x))) exactly.
    A z_i beyond the float range is +-inf without a warning; f_n is then
    infinite, which _Endpoint reads as an overflow of unknown sign.  With `sums` the
    same pass also returns sum |z_i| and sum lambda_i^2, the inputs of
    _TaylorCertificate.build.  With `far` > 0 it returns instead the sums of
    a _Split at x: sum lambda_i u_i / |X_i - x| (u_i = |z_i|^(p-1), so each
    term is lambda_i^2 |z_i|^(p-2)) over the terms whose computed |X_i - x|
    is at least `far`, and sum lambda_i^2 and sum lambda_i over the rest.
    """
    f = slope = abs_z = lam_sq = curv = 0.0
    lam_near = []
    # A split pass may meet inf / inf (a near z_i beyond the float range): its NaN far sum just
    # leaves the Hoelder remainder in force.  None keeps the caller's setting.
    with np.errstate(over="ignore", invalid="ignore" if far else None):
        for start in range(0, xs.size, _BLOCK):
            lam_b = lam[start : start + _BLOCK]
            z = xs[start : start + _BLOCK] - x
            if far:
                gap = np.abs(z)
                near = np.flatnonzero(gap < far)
                gap[near] = np.inf  # u / inf = 0 drops a near term from the far sum
                lam_near.append(lam_b[near])
            z *= lam_b
            phi, dphi = influence.value_and_slope(z, gap) if far else influence.value_and_slope(z)
            f += float(np.add.reduce(phi))  # np.sum's reduction, without its dispatch
            slope -= float(np.dot(lam_b, dphi))
            if far:
                curv += float(np.dot(lam_b, gap))
            if sums:
                abs_z += float(np.add.reduce(np.abs(z, out=z)))
                lam_sq += float(np.dot(lam_b, lam_b))
    if far:
        lam_n = np.concatenate(lam_near)
        return f, slope, curv, float(np.dot(lam_n, lam_n)), float(np.sum(lam_n))
    return (f, slope, abs_z, lam_sq) if sums else (f, slope)


def _rounding_rates(influence: InfluenceFunction, size: int) -> tuple[float, float]:
    """(a, b): _f_and_slope's f_n is within a sum |z_i| and its f_n' within b |f_n'| of exact, at `size` terms.

    f_n: a term is off by at most _TERM_ULPS eps L |z_i|, since
    |phi(z)| <= L |z| (L = slope_bound), and summing adds at most
    (_SUM_DEPTH + blocks) eps sum |phi_i|: pairwise within a block, then one
    addition per block (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2).  f_n': every term lambda_i phi'(z_i)
    is positive and off by at most _TERM_ULPS eps of itself, and np.dot may
    add in any order, so a block counts its length:
    b = (_TERM_ULPS + min(size, _BLOCK) + blocks) eps.  The same b bounds
    any such dot of positive terms, each within _TERM_ULPS eps.
    """
    blocks = -(-size // _BLOCK)
    rate_f = (_TERM_ULPS + _SUM_DEPTH + blocks) * _EPS * influence.slope_bound
    return rate_f, (_TERM_ULPS + min(size, _BLOCK) + blocks) * _EPS


@dataclass(frozen=True)
class _Split:
    """The split remainder at one point x: for every |d| <= rho,
    |f_n(x + d) - f_n(x) - f_n'(x) d| <= far d^2 + near |d|^p.

    A term is far when |X_i - x| >= 2 rho.  Then |lambda_i d| <= |z_i| / 2,
    so phi'' is read only at |v| >= |z_i| / 2, where
    |phi''(v)| <= kappa_p 2^(2-p) |z_i|^(p-2) (kappa_p =
    InfluenceFunction.curvature_bound), and the term's remainder is at most
    kappa_p 2^(1-p) lambda_i^2 |z_i|^(p-2) d^2.  Every other term keeps the
    Hoelder remainder (H_p / p) lambda_i^p |d|^p, its sum of lambda_i^p
    bounded as in _TaylorCertificate.  The pass that takes the sums calls a
    term far when its computed |X_i - x|, one rounding off the exact one,
    is at least threshold(rho) = 2 rho (1 + 4 eps), so every term it calls
    far is far; a doubtful term counts as near.  It holds at its own pass's x only.
    """

    rho: float
    far: float
    near: float

    @staticmethod
    def threshold(rho: float) -> float:
        return 2.0 * rho * (1.0 + 4.0 * _EPS)

    @classmethod
    def build(cls, influence: InfluenceFunction, size: int, rho: float, curv: float, near_sq: float,
              near_lam: float) -> _Split:
        """From _f_and_slope's split sums at x, taken with far = threshold(rho), each raised by its rounding."""
        p = influence.p
        curv *= 1.0 + _rounding_rates(influence, size)[1]  # positive terms, each within _TERM_ULPS eps
        near_lam_p = near_sq ** (p - 1.0) * near_lam ** (2.0 - p) * (1.0 + (_TERM_ULPS + size) * _EPS)
        far = influence.curvature_bound * 2.0 ** (1.0 - p) * curv
        return cls(rho, far, influence.holder_bound / p * near_lam_p)


@dataclass(frozen=True)
class _TaylorCertificate:
    """Proves from one computed (f_n(x), f_n'(x)) that a root of f_n = level lies near the Newton point.

    Remainder: for every x and d,
    |f_n(x + d) - f_n(x) - f_n'(x) d| <= R(d) = (H_p / p) |d|^p sum lambda_i^p,
    where H_p is InfluenceFunction.holder_bound: apply
    |int_0^delta (phi'(z - s) - phi'(z)) ds| <= H_p |delta|^p / p to each
    term, delta = lambda_i d.  Hoelder's inequality with exponents
    1/(p-1) and 1/(2-p) gives
    sum lambda_i^p <= (sum lambda_i^2)^(p-1) (sum lambda_i)^(2-p),
    equal at p = 2 and for one term, so R needs no pow per element.  At
    p < 2 a _Split at x bounds the remainder for |d| <= its rho too, and
    the smaller bound is used.  Rounding: sum |z_i(x)| <= abs_z0 +
    |x - xhat| sum lambda_i by the triangle inequality, with abs_z0 the sum
    at xhat, so _rounding_rates bound the float error at any x at no cost
    per pass.  _Endpoint calls an instance on each pass's reading, with that
    pass's split if it took one, and returns the proof to solve_monotone.
    """

    influence: InfluenceFunction
    xhat: float
    abs_z0: float
    sum_lam: float
    rates: tuple[float, float]  # _rounding_rates at the data's size
    remainder: float  # H_p / p times an upper bound on sum lambda_i^p
    curvature: float  # kappa_p 2^(1-p) sum lambda_i^2, a _Split's far at |z_i| = 1; 0 at p = 2 (no split)

    @classmethod
    def build(cls, influence: InfluenceFunction, size: int, xhat: float, abs_z0: float, sum_lam: float,
              sum_lam_sq: float) -> _TaylorCertificate:
        p = influence.p
        q = p - 1.0
        sum_lam_p = sum_lam_sq**q * sum_lam ** (1.0 - q)
        sum_lam_p *= 1.0 + (_TERM_ULPS + size) * _EPS  # rounding of the sums of positive terms and the pows
        curvature = influence.curvature_bound * 2.0 ** (1.0 - p) * sum_lam_sq if p < 2.0 else 0.0
        return cls(influence, xhat, abs_z0, sum_lam, _rounding_rates(influence, size),
                   influence.holder_bound / p * sum_lam_p, curvature)

    def split_radius(self, step: float, slope: float, radius: float) -> float:
        """The rho of a _Split at x = x' + step, where a pass at x' gave f_n'(x') = slope; 0 for no split.

        Newton converges quadratically, so the step from x is predicted as
        K step^2, K = curvature / |slope|, and its reach as r = K step^2 +
        radius.  The split's sums pay only when the Hoelder remainder at r
        would not fit in half the slack -slope radius while curvature r^2,
        taken as a _SPLIT_GAIN-th of the split's remainder, would: then
        rho = 4 r, so the step may run 4 times past its prediction.  The
        prediction only picks rho, since a longer step falls back to R.
        Also 0 where slope is not negative or r is not below _MAX_REACH.
        """
        if not slope < 0.0:
            return 0.0
        slack = -slope * radius
        reach = self.curvature / -slope * step * step + radius
        if not reach < _MAX_REACH:
            return 0.0
        holder = self.remainder * reach**self.influence.p
        if holder <= 0.5 * slack or _SPLIT_GAIN * self.curvature * reach * reach > slack:
            return 0.0
        return 4.0 * reach

    def bound(self, x: float, g: float, s: float, reach: float, split: _Split | None = None) -> float:
        """Bound on |f_n(x + d) - level - (g + s d)| over |d| <= reach.

        g and s are the computed f_n(x) - level and f_n'(x), and `split` one taken in the
        same pass.  The bound adds their float errors (_rounding_rates, plus the
        rounding of subtracting level) and the Taylor remainder: R(reach), or the
        split's where reach is within its rho and the split's is smaller.
        """
        p = self.influence.p
        rate_f, rate_s = self.rates
        rem = self.remainder * reach**p
        if split is not None and reach <= split.rho:
            rem = min(rem, split.far * reach * reach + split.near * reach**p)
        abs_z = self.abs_z0 + abs(x - self.xhat) * self.sum_lam
        return rate_f * abs_z + _EPS * abs(g) + rate_s * abs(s) * reach + rem

    def __call__(self, x: float, g: float, s: float, radius: float, split: _Split | None = None
                 ) -> tuple[float, float] | None:
        """[m - radius, m + radius] around m = x - g/s if it provably holds the root, else None.

        Let e bound the rounding of m and of the bracket ends and
        D = |m - x| + radius + e.  At either end y, g + s (y - x) is
        -s (radius - e) or more away from 0 on its side, so the exact
        f_n - level is > 0 at m - radius and < 0 at m + radius when
        -s (radius - e) > bound(x, g, s, D, split).  Anything non-finite,
        s >= 0 or D >= _MAX_REACH gives None.
        """
        if not (s < 0.0 and math.isfinite(x) and math.isfinite(g)):
            return None
        m = x - g / s
        e = 4.0 * _EPS * (abs(m) + abs(x) + radius)
        reach = abs(m - x) + radius + e
        if reach < _MAX_REACH and -s * (radius - e) > self.bound(x, g, s, reach, split):
            return m - radius, m + radius
        return None


class _Endpoint:
    """One endpoint's solve: solve_monotone's objective, f_n - level with its slope and the certificate's proof.

    At p < 2 each pass asks the certificate for a split radius from the
    step since the previous pass; given one, the pass also takes a _Split's
    sums, and the certificate reads that split with the same pass's reading.
    """

    __slots__ = ("cert", "lam", "xs", "level", "radius", "x", "slope")

    def __init__(self, cert: _TaylorCertificate, lam: np.ndarray, xs: np.ndarray, level: float, radius: float,
                 slope0: float):
        self.cert, self.lam, self.xs, self.level, self.radius = cert, lam, xs, level, radius
        self.x, self.slope = cert.xhat, slope0  # the latest pass

    def reading(self, x: float, f: float, slope: float, split: _Split | None = None) -> Reading:
        """(f - level, slope, the certificate's proof or None) for a pass's (f_n(x), f_n'(x)).  An infinite f_n at a
        finite x is an overflow of unknown sign: it reads as the root lying outward of x, which can only widen."""
        g = -math.copysign(math.inf, self.level) if math.isinf(f) else f - self.level
        return g, slope, self.cert(x, g, slope, self.radius, split)

    def objective(self, x: float) -> Reading:
        cert = self.cert
        rho = cert.split_radius(float(x) - self.x, self.slope, self.radius) if cert.curvature else 0.0
        if rho:
            f, slope, *sums = _f_and_slope(cert.influence, self.lam, self.xs, x, False, _Split.threshold(rho))
            split = _Split.build(cert.influence, self.xs.size, rho, *sums)
        else:
            (f, slope), split = _f_and_slope(cert.influence, self.lam, self.xs, x), None
        self.x, self.slope = float(x), slope
        return self.reading(x, f, slope, split)


def _bracket(influence: InfluenceFunction, lam: np.ndarray, xs: np.ndarray, tgt: float) -> tuple[float, float]:
    """[lo, hi] = [min X - r, max X + r], r = expm1(tgt/n) / min lambda_i, proved to hold both roots of f_n = +-tgt.

    Beyond either end every |z_i| is at least expm1(tgt/n), and phi is odd with phi(z) >= log1p(z) for
    z >= 0 (InfluenceFunction.reach), so f_n >= tgt at every x <= lo and f_n <= -tgt at every x >= hi.
    tgt/n, r and the ends are rounded outward; an end is +-inf where expm1 overflows.  No pass over phi.
    """
    r = influence.reach(math.nextafter(tgt / xs.size, math.inf)) / float(np.minimum.reduce(lam))
    r = math.nextafter(r, math.inf)
    return (math.nextafter(float(np.minimum.reduce(xs)) - r, -math.inf),
            math.nextafter(float(np.maximum.reduce(xs)) + r, math.inf))


def solve_interval_arrays(
    influence: InfluenceFunction,
    lam: np.ndarray,
    xs: np.ndarray,
    tgt: float,
    root_tol: float | None = None,
) -> tuple[float, float]:
    """Both endpoint roots of sum phi(lambda_i (X_i - x)) = +-tgt, each the outer end of
    a final bracket no wider than root_tol (None: 1e-9 * max(1, |xhat|)).

    Both endpoints run safeguarded Newton (solve_monotone) in the proven
    bracket of both roots (_bracket), from one shared evaluation of f_n and
    f_n' at the weighted mean xhat = sum(lambda_i X_i)/sum(lambda_i); each
    evaluation is one fused pass (_f_and_slope).  The shared pass also takes
    sum |z_i| and sum lambda_i^2 for a _TaylorCertificate, which ends a
    solve with the bracket of half-width root_tol/4 around the Newton point
    once the Taylor remainder and the float error prove it; at p < 2 each
    side (_Endpoint) may add a _Split's sums to a pass predicted to close.
    Measured passes per interval: 3 at p = 2 for n >= 476 (Gaussian,
    alpha = 0.05); at p = 1.5 (centred Pareto(1.9), alpha = 0.001) 3 from
    n = 3e5 on, where the split proves the first Newton iterate, and 5
    below.  An infinite or NaN xhat (its sum overflows; no warning) starts each solve from
    the bracket's split, and an infinite root_tol returns the proven bracket after that pass.
    Returns (lower, upper), lower from the +tgt solve.
    """
    sum_lam = float(np.sum(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        xhat = float(np.dot(lam, xs)) / sum_lam
    if root_tol is None:
        root_tol = 1e-9 * max(1.0, abs(xhat))
    lo, hi = _bracket(influence, lam, xs, tgt)
    f0, slope0, abs_z0, sum_lam_sq = _f_and_slope(influence, lam, xs, xhat, True)
    cert = _TaylorCertificate.build(influence, xs.size, xhat, abs_z0, sum_lam, sum_lam_sq)
    ends = []
    for side, level in enumerate((tgt, -tgt)):
        end = _Endpoint(cert, lam, xs, level, 0.25 * root_tol, slope0)
        ends.append(solve_monotone(end.objective, lo, hi, xhat, root_tol, end.reading(xhat, f0, slope0))[side])
    return ends[0], ends[1]


def interval(state: CatoniState, config: CatoniConfig) -> ConfidenceInterval:
    """Confidence interval at the current n (n >= 1).

    lower solves f_n(x) = +target, upper solves f_n(x) = -target, each to
    solve_interval_arrays' default root_tol; not intersected over n.
    Raises ValueError on an empty state or one summing lambda_i^p at another p.
    """
    state.check_query(config.p, "interval")
    lam, xs = state.arrays()
    tgt = target(config, state.sum_lambda_p)
    lower, upper = solve_interval_arrays(config.influence, lam, xs, tgt)
    return ConfidenceInterval(lower, upper)


# ---------------------------------------------------------------------------
# Width-bound machinery (eps_n, applicability condition, analytic bound)
# ---------------------------------------------------------------------------


def width_bound_sums(config: CatoniConfig, sum_lambda: np.ndarray, sum_lambda_p: np.ndarray):
    """(bounds, condition) at the n whose sum lambda_i and sum lambda_i^p are given; elementwise over arrays.

    With E_n = C_p v_p (1 + t^-(p-1)) sum lam^p,
    bounds = 4 (1+tau) (E_n + log 2/alpha) / sum lam, and the bound applies at n (condition) iff

        E_n + log(2/alpha) + log(2/eps_n)
        <= tau^(1/(p-1)) / (1+tau)^(p/(p-1))
           * (sum lam)^(p/(p-1)) / (C_p (1-t)^-(p-1) sum lam^p)^(1/(p-1)),

    where log(2/eps_n) = log(2/alpha) + E_n.  bounds is NaN where the
    condition fails.  t and tau enter as numpy arrays, so an overflow (a
    huge tau) quietly makes the right-hand side 0 or NaN, so the condition
    false, or a bound +inf, which holds.
    """
    p, q = config.p, config.p - 1.0
    t, tau = np.full(1, float(config.t)), np.full(1, float(config.tau))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = sum_lambda ** (p / q)
        rhs *= tau ** (1.0 / q) / (1.0 + tau) ** (p / q)
        rhs /= (config.c_p * (1.0 - t) ** -q * sum_lambda_p) ** (1.0 / q)
        bounds = config.c_p * config.v_p * (1.0 + t**-q) * sum_lambda_p
        bounds += math.log(2.0 / config.alpha)  # E_n + log(2/alpha), half the left-hand side
        condition = 2.0 * bounds <= rhs
        bounds *= 4.0 * (1.0 + tau)
        bounds /= sum_lambda
    bounds[~condition] = np.nan
    return bounds, condition


def failure_budget(config: CatoniConfig) -> float:
    """alpha * sum_{n>=1} eps_n: its first N = _BUDGET_HEAD terms summed, plus a closed-form bound on the rest.

    E_n = C_p v_p (1 + t^-(p-1)) sum_{i<=n} lambda_i^p, from cumulative_powers.
    With a power_law(c, p) schedule each increment of E_n is K / i, with
    K = C_p v_p c^p (1 + t^-(p-1)).  DeTemple's H_n >= ln(n + 1/2) + gamma
    (Amer. Math. Monthly 100, 1993), H_N - gamma <= ln N + 1/(2N) and the
    convexity of x^-K (midpoint rule) bound the rest:

        alpha^2 sum_{n>N} e^-E_n <= alpha^2 exp(-E_N + K (ln N + 1/(2N))) (N + 1)^(1-K) / (K - 1)
                                  = alpha^2 (N + 1) exp(-E_N - K (ln(1 + 1/N) - 1/(2N))) / (K - 1),

    the second form free of large terms that cancel.

    The terms are scaled by e^E_1, so none exceeds 1, and the result is
    formed in logs; below the smallest normal float, that is returned.  E_n
    are lowered, and the sum raised, by bounds on their rounding, so the
    result is never below the exact alpha sum eps_n.  ValueError before any
    term is summed for a custom_list schedule, for a power_law(c, p_s) one at
    p_s != p (at p_s < p, eps_n does not vanish) and for K <= 1 (the sum
    diverges).
    """
    sched = config.schedule
    if sched.values:
        raise ValueError("failure_budget sums eps_n over every n >= 1; a custom_list schedule is finite")
    if sched.p < config.p:
        raise ValueError(f"power_law schedule at p = {sched.p} < config p = {config.p}: sum lambda_i^p converges, "
                         "so the failure budget is infinite")
    if sched.p != config.p:
        raise ValueError(f"power_law schedule at p = {sched.p} > config p = {config.p}: failure_budget "
                         "certifies only a schedule at the config's p")
    cv, plus = config.c_p * config.v_p, 1.0 + config.t ** (1.0 - config.p)
    k = cv * sched.c**config.p * plus * (1.0 - 16.0 * _EPS)  # the tail falls in K
    if not k > 1.0:
        raise ValueError(f"failure budget needs K = C_p v_p c^p (1 + t^-(p-1)) > 1, got K = {k:.6g}")
    if k > 750.0:  # sum_n e^-E_n <= sum_n e^-K H_n < 2 e^-K, below the smallest normal float
        return sys.float_info.min
    n = _BUDGET_HEAD
    expos = cumulative_powers(sched.span(1, n), config.p)
    expos *= cv * plus * (1.0 - (n + 64) * _EPS)  # below each exact E_n: lambda^p, t factor, sums, products
    e1 = float(expos[0])
    expos -= e1  # rounds too, within the lowering above
    e_n = float(expos[-1])
    head = float(np.sum(np.exp(-expos, out=expos)))
    tail = math.exp(-e_n + math.log(n + 1.0) - k * (math.log1p(1.0 / n) - 0.5 / n)) / (k - 1.0)
    budget = math.exp(2.0 * math.log(config.alpha) - e1 + math.log(head + tail))
    return max(budget * (1.0 + (n + 64) * _EPS), sys.float_info.min)  # the exps, logs and sum round up to this


def width_bound(config: CatoniConfig, n: int) -> float | None:
    """width_bound_sums at n's sums (checkpoint_sums, in chunks); None (not applicable) where its condition fails."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bound = width_bound_sums(config, *checkpoint_sums(config.schedule.span, config.p, [n]))[0][0]
    return None if math.isnan(bound) else float(bound)


def width_bound_curve(config: CatoniConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, condition) of width_bound_sums for every n = 1..n_max."""
    return width_bound_sums(config, *cumulative_sums(config.schedule.head(n_max), config.p))
