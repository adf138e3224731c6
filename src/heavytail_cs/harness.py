"""Stream generation with known moments and Monte Carlo experiments.

Replications are reproducible and order-independent: replication r of a
run with master seed s draws from the substream
SeedSequence(entropy=s, spawn_key=(r,)), so serial and thread-parallel
executions produce identical reports.

Configured moment bounds are checked for truthfulness: every experiment
asserts v_p >= E|X - mu|^p before running, since the coverage guarantees
are vacuous otherwise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import lgamma
from typing import Iterable

import numpy as np
from scipy import integrate

from . import catoni_cs as cat
from . import dubins_savage as ds
from .schedules import LambdaSchedule, power_law

GAUSSIAN = "gaussian"
CENTERED_PARETO = "centered_pareto"
STUDENT_T = "student_t"
TWO_POINT = "two_point"

CATONI = "catoni"
DS = "ds"

#: Experiments require p below the tail index by at least this margin;
#: at the index the moment is infinite and near it quadrature destabilizes.
TAIL_MARGIN = 0.05


@dataclass(frozen=True)
class DistributionSpec:
    """A stream distribution with analytically known mean and moments."""

    kind: str
    mean: float = 0.0      # gaussian mean / student_t location
    sigma: float = 1.0     # gaussian std dev
    shape: float = 0.0     # pareto tail index
    scale: float = 1.0     # pareto scale
    df: float = 0.0        # student_t degrees of freedom
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()

    @property
    def true_mean(self) -> float:
        if self.kind == GAUSSIAN:
            return self.mean
        if self.kind == CENTERED_PARETO:
            return 0.0
        if self.kind == STUDENT_T:
            return self.mean
        return float(sum(v * q for v, q in zip(self.values, self.probs)))

    @property
    def tail_index(self) -> float:
        """Sup of p with E|X|^p < infinity (inf for light tails)."""
        if self.kind == CENTERED_PARETO:
            return self.shape
        if self.kind == STUDENT_T:
            return self.df
        return math.inf

    def label(self) -> str:
        if self.kind == GAUSSIAN:
            return f"gaussian(mean={self.mean},sigma={self.sigma})"
        if self.kind == CENTERED_PARETO:
            return f"centered_pareto(shape={self.shape},scale={self.scale})"
        if self.kind == STUDENT_T:
            return f"student_t(df={self.df},location={self.mean})"
        return f"two_point(values={list(self.values)},probs={list(self.probs)})"


def gaussian(mean: float = 0.0, sigma: float = 1.0) -> DistributionSpec:
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return DistributionSpec(kind=GAUSSIAN, mean=mean, sigma=sigma)


def centered_pareto(shape: float, scale: float = 1.0) -> DistributionSpec:
    """Pareto(shape, scale) shifted by its mean scale*shape/(shape-1); mean 0."""
    if not 1.0 < shape <= 2.0:
        raise ValueError(f"pareto shape must lie in (1, 2], got {shape}")
    if scale <= 0.0:
        raise ValueError(f"pareto scale must be positive, got {scale}")
    return DistributionSpec(kind=CENTERED_PARETO, shape=shape, scale=scale)


def student_t(df: float, location: float = 0.0) -> DistributionSpec:
    if not 1.0 < df <= 2.0:
        raise ValueError(f"student_t df must lie in (1, 2] here, got {df}")
    return DistributionSpec(kind=STUDENT_T, df=df, mean=location)


def two_point(values: Iterable[float], probs: Iterable[float]) -> DistributionSpec:
    vals = tuple(float(v) for v in values)
    ps = tuple(float(q) for q in probs)
    if len(vals) != len(ps) or not vals:
        raise ValueError("two_point needs matching nonempty values and probs")
    if any(q < 0.0 for q in ps) or abs(sum(ps) - 1.0) > 1e-12:
        raise ValueError(f"probs must be nonnegative and sum to 1, got {ps}")
    return DistributionSpec(kind=TWO_POINT, values=vals, probs=ps)


def substream(seed: int, rep: int) -> np.random.Generator:
    """Replication-indexed RNG; the documented seed-split function."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def sample_stream(dist: DistributionSpec, seed: int, n: int, rep: int = 0) -> np.ndarray:
    """n i.i.d. draws; identical for identical (dist, seed, rep)."""
    rng = substream(seed, rep)
    if dist.kind == GAUSSIAN:
        return rng.normal(dist.mean, dist.sigma, n)
    if dist.kind == CENTERED_PARETO:
        # scale * (1 - u)^(-1/shape) - raw_mean, in place on the draws.
        x = rng.random(n)
        np.subtract(1.0, x, out=x)
        x **= -1.0 / dist.shape
        x *= dist.scale
        x -= dist.shape * dist.scale / (dist.shape - 1.0)
        return x
    if dist.kind == STUDENT_T:
        return dist.mean + rng.standard_t(dist.df, n)
    return rng.choice(np.asarray(dist.values), size=n, p=np.asarray(dist.probs))


def _require_moment(dist: DistributionSpec, p: float) -> None:
    if p > dist.tail_index - TAIL_MARGIN + 1e-12:
        raise ValueError(
            f"E|X - mu|^{p} is infinite or numerically unstable for {dist.label()}: "
            f"requires p <= tail index - {TAIL_MARGIN} = {dist.tail_index - TAIL_MARGIN}"
        )


def true_vp(dist: DistributionSpec, p: float) -> float:
    """E|X - mu|^p, by closed form where available, else adaptive quadrature.

    gaussian: sigma^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi).
    student_t: nu^(p/2) Gamma((p+1)/2) Gamma((nu-p)/2) / (sqrt(pi) Gamma(nu/2)).
    two_point: direct sum.  centered_pareto: quadrature split at the mean.
    """
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    _require_moment(dist, p)
    if dist.kind == GAUSSIAN:
        return dist.sigma**p * 2.0 ** (p / 2.0) * math.exp(lgamma((p + 1.0) / 2.0)) / math.sqrt(math.pi)
    if dist.kind == STUDENT_T:
        nu = dist.df
        return (
            nu ** (p / 2.0)
            * math.exp(lgamma((p + 1.0) / 2.0) + lgamma((nu - p) / 2.0) - lgamma(nu / 2.0))
            / math.sqrt(math.pi)
        )
    if dist.kind == TWO_POINT:
        mu = dist.true_mean
        return float(sum(q * abs(v - mu) ** p for v, q in zip(dist.values, dist.probs)))
    beta, s = dist.shape, dist.scale
    raw_mean = beta * s / (beta - 1.0)
    pdf = lambda x: beta * s**beta * x ** (-beta - 1.0)
    f = lambda x: abs(x - raw_mean) ** p * pdf(x)
    below, _ = integrate.quad(f, s, raw_mean, epsrel=1e-10, limit=200)
    above, _ = integrate.quad(f, raw_mean, np.inf, epsrel=1e-10, limit=200)
    return below + above


def true_std(dist: DistributionSpec) -> float:
    """sqrt(Var X); raises when the variance is not finite."""
    if dist.kind == GAUSSIAN:
        return dist.sigma
    if dist.kind == TWO_POINT:
        mu = dist.true_mean
        return math.sqrt(sum(q * (v - mu) ** 2 for v, q in zip(dist.values, dist.probs)))
    raise ValueError(f"{dist.label()} has infinite or undefined variance here")


# ---------------------------------------------------------------------------
# Experiment configuration plumbing
# ---------------------------------------------------------------------------


def _resolve_vp(dist: DistributionSpec, p: float, v_p: float | None) -> float:
    actual = true_vp(dist, p)
    if v_p is None:
        return actual
    if v_p < actual - 1e-12:
        raise ValueError(
            f"configured v_p={v_p} understates the true moment {actual}; "
            "coverage guarantees require v_p >= E|X - mu|^p"
        )
    return v_p


def _method_setup(
    method: str,
    dist: DistributionSpec,
    p: float,
    alpha: float,
    v_p: float | None,
    schedule: LambdaSchedule | None,
    t: float,
    tau: float,
    b: float,
):
    """Resolve (v_p, schedule, config) for one method.

    Default schedules: power_law(c=1, p) for Catoni, the width-optimal
    ds_optimal schedule for Dubins-Savage.
    """
    vp = _resolve_vp(dist, p, v_p)
    if method == CATONI:
        sched = power_law(1.0, p) if schedule is None else schedule
        cfg = cat.CatoniConfig(p=p, v_p=vp, alpha=alpha, schedule=sched, t=t, tau=tau)
        return vp, sched, cfg
    if method == DS:
        cfg = ds.DsConfig(p=p, v_p=vp, alpha=alpha, b=b)
        sched = ds.ds_optimal_schedule(cfg) if schedule is None else schedule
        return vp, sched, cfg
    raise ValueError(f"unknown method {method!r}; expected '{CATONI}' or '{DS}'")


def _run_reps(fn, reps: int, threads: int) -> list:
    """Ordered per-replication results; identical for any thread count."""
    if threads <= 1:
        return [fn(r) for r in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(reps)))


def _checked_indices(n_max: int, stride: int) -> np.ndarray:
    idx = np.arange(stride - 1, n_max, stride)
    if idx.size == 0 or idx[-1] != n_max - 1:
        idx = np.append(idx, n_max - 1)
    return idx


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    method: str
    dist: str
    p: float
    alpha: float
    v_p: float
    n: int
    reps: int
    stride: int
    miscoverage_count: int
    miscoverage_rate: float
    mc_std_err: float


def run_coverage(
    method: str,
    dist: DistributionSpec,
    p: float,
    alpha: float,
    n_max: int,
    reps: int,
    seed: int,
    *,
    v_p: float | None = None,
    schedule: LambdaSchedule | None = None,
    t: float = 0.5,
    tau: float = 0.1,
    b: float = 1.0,
    stride: int = 1,
    threads: int = 1,
) -> CoverageReport:
    """Uniform-in-time miscoverage frequency over `reps` replications.

    The miscoverage event is the existence of any checked n <= n_max with
    mu outside I_n.  Membership is tested through the defining band
    condition rather than by solving for endpoints: for Catoni,
    mu in I_n iff |f_n(mu)| <= log(2/alpha) + C_p v_p sum(lambda_i^p), an
    exact O(1)-per-step cumulative check, so stride > 1 only coarsens the
    event (it is recorded in the report either way).
    """
    if n_max < 1 or reps < 1 or stride < 1:
        raise ValueError(f"n_max, reps, stride must be >= 1, got {n_max}, {reps}, {stride}")
    vp, sched, cfg = _method_setup(method, dist, p, alpha, v_p, schedule, t, tau, b)
    mu = dist.true_mean
    lam = sched.head(n_max)
    # A plain slice is a view, so stride 1 indexes without a copy.
    idx = slice(None) if stride == 1 else _checked_indices(n_max, stride)
    if method == CATONI:
        band = cat.target(cfg, np.cumsum(lam**p))[idx]
        influence = cfg.influence

        def one_rep(r: int) -> bool:
            x = sample_stream(dist, seed, n_max, rep=r)
            f_mu = np.cumsum(influence(lam * (x - mu)))
            return bool(np.any(np.abs(f_mu[idx]) > band))

    else:
        mu_cum_lam = mu * np.cumsum(lam)
        radius_scaled = (ds.ds_a(cfg) + cfg.b * vp * np.cumsum(lam**p))[idx]

        def one_rep(r: int) -> bool:
            x = sample_stream(dist, seed, n_max, rep=r)
            dev = np.abs(np.cumsum(lam * x) - mu_cum_lam)
            return bool(np.any(dev[idx] > radius_scaled))

    misses = _run_reps(one_rep, reps, threads)
    count = int(sum(misses))
    rate = count / reps
    return CoverageReport(
        method=method,
        dist=dist.label(),
        p=p,
        alpha=alpha,
        v_p=vp,
        n=n_max,
        reps=reps,
        stride=stride,
        miscoverage_count=count,
        miscoverage_rate=rate,
        mc_std_err=math.sqrt(rate * (1.0 - rate) / reps),
    )


# ---------------------------------------------------------------------------
# Width
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidthCheckpoint:
    n: int
    mean_width: float
    bound: float | None      # Catoni: analytic width bound or None; DS: display width
    condition: bool | None   # Catoni applicability flag; None for DS


@dataclass(frozen=True)
class WidthReport:
    v_p: float
    checkpoints: list[WidthCheckpoint]
    slope: float


def default_checkpoints(n_max: int) -> list[int]:
    lo = min(10, n_max)
    pts = np.geomspace(lo, n_max, max(2, int(CHECKPOINTS_PER_DECADE * math.log10(max(n_max / lo, 10)))))
    return sorted(set(int(round(v)) for v in pts))


def ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def fit_loglog_slope(ns, widths, n_max: int) -> float:
    """OLS slope of log width vs log n over the top two decades of n.

    NaN when fewer than two checkpoints land in that window.
    """
    ns = np.asarray(ns, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    keep = ns >= n_max / 100.0
    if keep.sum() < 2:
        return math.nan
    return ols_slope(np.log(ns[keep]), np.log(widths[keep]))


def run_width(
    method: str,
    dist: DistributionSpec,
    p: float,
    alpha: float,
    n_max: int,
    seed: int,
    checkpoints: list[int] | None = None,
    *,
    reps: int = 1,
    v_p: float | None = None,
    schedule: LambdaSchedule | None = None,
    t: float = 0.5,
    tau: float = 0.1,
    b: float = 1.0,
    threads: int = 1,
) -> WidthReport:
    """Interval widths at checkpoints plus a fitted log-log shrinkage slope."""
    if n_max < 1 or reps < 1:
        raise ValueError(f"n_max and reps must be >= 1, got {n_max}, {reps}")
    cps = default_checkpoints(n_max) if checkpoints is None else sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValueError("checkpoints must not be empty")
    if cps[0] < 1 or cps[-1] > n_max:
        raise ValueError(f"checkpoints must lie in [1, {n_max}], got {cps[0]}..{cps[-1]}")
    vp, sched, cfg = _method_setup(method, dist, p, alpha, v_p, schedule, t, tau, b)
    lam = sched.head(n_max)
    cum_lam_p = np.cumsum(lam**p)

    if method == CATONI:
        def one_rep(r: int) -> list[float]:
            x = sample_stream(dist, seed, n_max, rep=r)
            out = []
            for n in cps:
                tgt = cat.target(cfg, cum_lam_p[n - 1])
                lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt)
                out.append(hi - lo)
            return out

        bounds_at, cond_at = cat.width_bound_curve(cfg, cps[-1], at=cps)
        bounds = [None if math.isnan(b) else float(b) for b in bounds_at]
        conds = [bool(c) for c in cond_at]
        widths = np.asarray(_run_reps(one_rep, reps, threads))
    else:
        cum_lam = np.cumsum(lam)
        w = [2.0 * ds.ds_radius(cfg, cum_lam[n - 1], cum_lam_p[n - 1]) for n in cps]
        widths = np.tile(np.asarray(w), (reps, 1))
        bounds = [2.0 * cfg.b * vp * cum_lam_p[n - 1] / cum_lam[n - 1] for n in cps]
        conds = [None] * len(cps)

    # A width is inf where an endpoint is +-inf; the mean and slope over it
    # are then inf or NaN, which the reports print as NA, so no warning is due.
    with np.errstate(invalid="ignore"):
        mean_w = widths.mean(axis=0)
        slope = fit_loglog_slope(cps, mean_w, n_max)
    rows = [WidthCheckpoint(n, float(mean_w[j]), bounds[j], conds[j]) for j, n in enumerate(cps)]
    return WidthReport(v_p=vp, checkpoints=rows, slope=slope)


@dataclass(frozen=True)
class BoundValidityReport:
    v_p: float
    reps: int
    n0: int                    # first n at which the width bound applies
    condition_permanent: bool  # condition stays true from n0 through n_max
    violating_reps: int        # reps where some applicable n has width > bound
    violation_rate: float
    failure_budget: float      # alpha * sum_n eps_n
    exact_solves: int          # fallback endpoint solves that were needed


#: Geometric checkpoints per decade of n in default_checkpoints.
CHECKPOINTS_PER_DECADE = 8
#: Geometric blocks per decade of n in run_bound_validity's sufficient test.
BLOCKS_PER_DECADE = 12


def _bound_blocks(n0: int, n_max: int) -> list[tuple[int, int]]:
    """Geometric blocks (a, b) of n covering [n0, n_max]; adjacent blocks share an edge n."""
    count = max(2, int(BLOCKS_PER_DECADE * math.log10(max(n_max / n0, 10)) + 1))
    edges = np.unique(np.geomspace(n0, n_max, count).astype(int))
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])] or [(n0, n_max)]


def _bound_suspects(influence, lam, mu, band, bounds, blocks):
    """suspects(x): the sorted n of `blocks` at which run_bound_validity's sufficient test fails.

    Block k tests f_n(mu + w_k) <= -band_n and f_n(mu - w_k) >= band_n for
    its n, with w_k = min(bounds over the block) / 2, from prefixes carried
    over from block k-1 (see run_bound_validity).
    """
    w = [0.5 * float(np.min(bounds[a - 1 : b])) for a, b in blocks]
    # The next block starts at n = b, so its prefix is lambda_1..lambda_{b-1}.
    lam_before = np.cumsum(lam)[[b - 2 for _, b in blocks[:-1]]]
    drift = influence.slope_bound * np.abs(np.diff(w)) * lam_before

    def suspects(x: np.ndarray) -> list[int]:
        out: list[int] = []
        carry_hi = carry_lo = 0.0
        for k, (a, b) in enumerate(blocks):
            start = 0 if k == 0 else a - 1
            hi = influence(lam[start:b] * (x[start:b] - (mu + w[k])))
            lo = influence(lam[start:b] * (x[start:b] - (mu - w[k])))
            hi[0] += carry_hi
            lo[0] += carry_lo
            np.cumsum(hi, out=hi)
            np.cumsum(lo, out=lo)
            seg = slice(a - 1, b)
            ok = (hi[a - 1 - start :] <= -band[seg]) & (lo[a - 1 - start :] >= band[seg])
            if not ok.all():
                out.extend((np.nonzero(~ok)[0] + a).tolist())
            if k < len(drift):
                carry_hi = hi[-2] + drift[k]
                carry_lo = lo[-2] - drift[k]
        return sorted(set(out))

    return suspects


def run_bound_validity(
    dist: DistributionSpec,
    p: float,
    alpha: float,
    n_max: int,
    reps: int,
    seed: int,
    *,
    v_p: float | None = None,
    schedule: LambdaSchedule | None = None,
    t: float = 0.5,
    tau: float = 0.1,
    threads: int = 1,
) -> BoundValidityReport:
    """Check {width_n <= width_bound(n) for every applicable n <= n_max} per rep.

    Widths at every n are too expensive to root-solve directly, so each
    replication first runs a sufficient test over geometric blocks of n
    (BLOCKS_PER_DECADE per decade from n0).  With a blockwise-constant
    offset w_k <= width_bound(n)/2, the event f_n(mu + w_k) <= -band_n and
    f_n(mu - w_k) >= +band_n puts both endpoints in [mu - w_k, mu + w_k],
    so |I_n| <= width_bound(n).  Both sides are cumulative sums.

    Block k evaluates phi only over its own elements (the first block from
    n = 1) and starts each cumulative sum from a prefix carried over from
    block k-1.  phi is L-Lipschitz with L = slope_bound (1 at p = 2), so
    moving the offset from w_{k-1} to w_k changes each prefix term by at
    most L lambda_i |w_{k-1} - w_k|: the carried + side is raised by
    L |w_{k-1} - w_k| sum_{i < a_k} lambda_i and the - side lowered by as
    much.  By induction the carried + prefix is never below the exact one
    at w_k and the - prefix never above it, so an n that passes with
    carried prefixes passes with exact ones, up to the rounding any
    cumulative sum has.  Each side evaluates phi about n_max times per
    replication: O(n_max) time, and memory of one block.

    Only the (rare) n where the test fails get exact endpoint solves, so
    the verdict per n is exact.
    """
    vp, sched, cfg = _method_setup(CATONI, dist, p, alpha, v_p, schedule, t, tau, 1.0)
    mu = dist.true_mean
    lam = sched.head(n_max)
    band = cat.target(cfg, np.cumsum(lam**p))
    bounds, condition = cat.width_bound_curve(cfg, n_max)
    if not condition.any():
        raise ValueError(f"width bound never applies up to n_max={n_max}")
    n0 = int(np.argmax(condition)) + 1
    permanent = bool(condition[n0 - 1 :].all())
    if not permanent:
        raise ValueError("the width-bound condition is not permanent over [n0, n_max]; blocks assume it")
    influence = cfg.influence
    suspects = _bound_suspects(influence, lam, mu, band, bounds, _bound_blocks(n0, n_max))

    def one_rep(r: int) -> tuple[bool, int]:
        x = sample_stream(dist, seed, n_max, rep=r)
        suspect = suspects(x)
        violated = False
        for n in suspect:
            lo_x, hi_x = cat.solve_interval_arrays(influence, lam[:n], x[:n], band[n - 1])
            if hi_x - lo_x > bounds[n - 1]:
                violated = True
                break
        return violated, len(suspect)

    results = _run_reps(one_rep, reps, threads)
    count = int(sum(v for v, _ in results))
    exact_solves = int(sum(k for _, k in results))
    return BoundValidityReport(
        v_p=vp,
        reps=reps,
        n0=n0,
        condition_permanent=permanent,
        violating_reps=count,
        violation_rate=count / reps,
        failure_budget=cat.failure_budget(cfg, term_floor=1e-12),
        exact_solves=exact_solves,
    )
