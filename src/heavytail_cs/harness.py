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
        u = rng.random(n)
        raw_mean = dist.shape * dist.scale / (dist.shape - 1.0)
        return dist.scale * (1.0 - u) ** (-1.0 / dist.shape) - raw_mean
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
    n_max: int
    reps: int
    stride: int
    seed: int
    schedule: dict
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
    idx = _checked_indices(n_max, stride)
    if method == CATONI:
        band = math.log(2.0 / alpha) + cfg.c_p * vp * np.cumsum(lam**p)
        influence = cfg.influence

        def one_rep(r: int) -> bool:
            x = sample_stream(dist, seed, n_max, rep=r)
            f_mu = np.cumsum(influence(lam * (x - mu)))
            return bool(np.any(np.abs(f_mu[idx]) > band[idx]))

    else:
        cum_lam = np.cumsum(lam)
        radius_scaled = ds.ds_a(cfg) + cfg.b * vp * np.cumsum(lam**p)

        def one_rep(r: int) -> bool:
            x = sample_stream(dist, seed, n_max, rep=r)
            dev = np.abs(np.cumsum(lam * x) - mu * cum_lam)
            return bool(np.any(dev[idx] > radius_scaled[idx]))

    misses = _run_reps(one_rep, reps, threads)
    count = int(sum(misses))
    rate = count / reps
    return CoverageReport(
        method=method,
        dist=dist.label(),
        p=p,
        alpha=alpha,
        v_p=vp,
        n_max=n_max,
        reps=reps,
        stride=stride,
        seed=seed,
        schedule=sched.descriptor(),
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
    q10: float
    q50: float
    q90: float
    bound: float | None      # Catoni: analytic width bound or None; DS: display width
    condition: bool | None   # Catoni applicability flag; None for DS


@dataclass(frozen=True)
class WidthReport:
    method: str
    dist: str
    p: float
    alpha: float
    v_p: float
    n_max: int
    reps: int
    seed: int
    schedule: dict
    checkpoints: list[WidthCheckpoint]
    slope: float


def default_checkpoints(n_max: int, per_decade: int = 8) -> list[int]:
    lo = min(10, n_max)
    pts = np.geomspace(lo, n_max, max(2, int(per_decade * math.log10(max(n_max / lo, 10)))))
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
    cum_lam = np.cumsum(lam)
    cum_lam_p = np.cumsum(lam**p)

    if method == CATONI:
        def one_rep(r: int) -> list[float]:
            x = sample_stream(dist, seed, n_max, rep=r)
            out = []
            for n in cps:
                tgt = math.log(2.0 / alpha) + cfg.c_p * vp * cum_lam_p[n - 1]
                lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt)
                out.append(hi - lo)
            return out

        bounds_curve, cond_curve = cat.width_bound_curve(cfg, cps[-1])
        bounds = [None if math.isnan(bounds_curve[n - 1]) else float(bounds_curve[n - 1]) for n in cps]
        conds = [bool(cond_curve[n - 1]) for n in cps]
        widths = np.asarray(_run_reps(one_rep, reps, threads))
    else:
        w = [2.0 * ds.ds_radius(cfg, cum_lam[n - 1], cum_lam_p[n - 1]) for n in cps]
        widths = np.tile(np.asarray(w), (reps, 1))
        bounds = [2.0 * cfg.b * vp * cum_lam_p[n - 1] / cum_lam[n - 1] for n in cps]
        conds = [None] * len(cps)

    mean_w = widths.mean(axis=0)
    q10, q50, q90 = np.quantile(widths, [0.1, 0.5, 0.9], axis=0)
    rows = [
        WidthCheckpoint(
            n=n,
            mean_width=float(mean_w[j]),
            q10=float(q10[j]),
            q50=float(q50[j]),
            q90=float(q90[j]),
            bound=bounds[j],
            condition=conds[j],
        )
        for j, n in enumerate(cps)
    ]
    slope = fit_loglog_slope(cps, mean_w, n_max)
    return WidthReport(
        method=method,
        dist=dist.label(),
        p=p,
        alpha=alpha,
        v_p=vp,
        n_max=n_max,
        reps=reps,
        seed=seed,
        schedule=sched.descriptor(),
        checkpoints=rows,
        slope=slope,
    )


@dataclass(frozen=True)
class BoundValidityReport:
    dist: str
    p: float
    alpha: float
    v_p: float
    n_max: int
    reps: int
    seed: int
    schedule: dict
    n0: int                    # first n at which the width bound applies
    condition_permanent: bool  # condition stays true from n0 through n_max
    violating_reps: int        # reps where some applicable n has width > bound
    violation_rate: float
    failure_budget: float      # alpha * sum_n eps_n
    exact_solves: int          # fallback endpoint solves that were needed


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
    blocks_per_decade: int = 12,
) -> BoundValidityReport:
    """Check {width_n <= width_bound(n) for every applicable n <= n_max} per rep.

    Widths at every n are too expensive to root-solve directly, so each
    replication first runs a conservative sufficient test: over a block of
    n with blockwise-constant offset w <= width_bound(n)/2, the event
    f_n(mu + w) <= -band_n and f_n(mu - w) >= +band_n implies
    |I_n| <= width_bound(n); both sides are plain cumulative sums.  Only
    the (rare) n where the conservative test fails get exact endpoint
    solves.  The verdict per n is therefore exact.
    """
    vp, sched, cfg = _method_setup(CATONI, dist, p, alpha, v_p, schedule, t, tau, 1.0)
    mu = dist.true_mean
    lam = sched.head(n_max)
    band = math.log(2.0 / alpha) + cfg.c_p * vp * np.cumsum(lam**p)
    bounds, condition = cat.width_bound_curve(cfg, n_max)
    if not condition.any():
        raise ValueError(f"width bound never applies up to n_max={n_max}")
    n0 = int(np.argmax(condition)) + 1
    permanent = bool(condition[n0 - 1 :].all())
    if not permanent:
        raise ValueError("the width-bound condition is not permanent over [n0, n_max]; blocks assume it")
    edges = np.unique(
        np.geomspace(n0, n_max, max(2, int(blocks_per_decade * math.log10(max(n_max / n0, 10)) + 1))).astype(int)
    )
    blocks = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])] or [(n0, n_max)]
    influence = cfg.influence

    def one_rep(r: int) -> tuple[bool, int]:
        x = sample_stream(dist, seed, n_max, rep=r)
        suspect: list[int] = []
        for a, b in blocks:
            w = 0.5 * float(np.min(bounds[a - 1 : b]))
            hi = np.cumsum(influence(lam[:b] * (x[:b] - (mu + w))))[a - 1 : b]
            lo = np.cumsum(influence(lam[:b] * (x[:b] - (mu - w))))[a - 1 : b]
            seg = slice(a - 1, b)
            ok = (hi <= -band[seg]) & (lo >= band[seg])
            if not ok.all():
                suspect.extend((np.nonzero(~ok)[0] + a).tolist())
        violated = False
        for n in sorted(set(suspect)):
            lo_x, hi_x = cat.solve_interval_arrays(influence, lam[:n], x[:n], band[n - 1])
            if hi_x - lo_x > bounds[n - 1]:
                violated = True
                break
        return violated, len(set(suspect))

    results = _run_reps(one_rep, reps, threads)
    count = int(sum(v for v, _ in results))
    exact_solves = int(sum(k for _, k in results))
    return BoundValidityReport(
        dist=dist.label(),
        p=p,
        alpha=alpha,
        v_p=vp,
        n_max=n_max,
        reps=reps,
        seed=seed,
        schedule=sched.descriptor(),
        n0=n0,
        condition_permanent=permanent,
        violating_reps=count,
        violation_rate=count / reps,
        failure_budget=cat.failure_budget(cfg, term_floor=1e-12),
        exact_solves=exact_solves,
    )
