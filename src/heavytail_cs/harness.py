"""Stream generation with known moments and Monte Carlo experiments.

A distribution kind is described once, by its constructor; adding one
means a constructor here, a `cli._DISTS` row and a README mention.

Replications are reproducible and order-independent: replication r of a
run with master seed s draws from the substream
SeedSequence(entropy=s, spawn_key=(r,)), so serial and thread-parallel
executions produce identical reports.  Every experiment hands its
replications to one runner, _run_reps: at threads = k, k long-lived worker
threads pull replication indices from one shared iterator.  numpy releases
the GIL inside most large array operations, but holds it for an
accumulation written over its own input, so a replication's cumulative
sums go to another buffer.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from math import lgamma
from typing import Callable, Iterable

import numpy as np

from . import catoni_cs as cat
from . import dubins_savage as ds
from .schedules import LambdaSchedule, checkpoint_sums, cumulative_powers, cumulative_sums, power_law

CATONI = "catoni"
DS = "ds"

#: Experiments require p below the tail index by at least this margin: at
#: the index the moment is infinite, and as p nears it the moment blows up
#: like 1/(index - p).  With p > 1 it also keeps the centred-Pareto shape
#: above 1.05, which bounds that moment's series at about 900 terms.
TAIL_MARGIN = 0.05


@dataclass(frozen=True)
class DistributionSpec:
    """A stream distribution with known moments, described once by its constructor.

    tail_index is the sup of p with E|X|^p < inf (inf for light tails), std
    is None where the variance is infinite, draw(rng, n) gives n i.i.d.
    draws and moment(p) is E|X - mu|^p in closed form.  Specs compare and
    hash by name (which spells out the parameters), mean and tail index.
    """

    name: str
    true_mean: float
    tail_index: float
    std: float | None = field(repr=False, compare=False)
    draw: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False, compare=False)
    moment: Callable[[float], float] = field(repr=False, compare=False)

    def label(self) -> str:
        return self.name


def gaussian(mean: float = 0.0, sigma: float = 1.0) -> DistributionSpec:
    """Normal(mean, sigma^2); E|X - mu|^p = sigma^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    mean, sigma = float(mean), float(sigma)
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return DistributionSpec(
        f"gaussian(mean={mean},sigma={sigma})", mean, math.inf, sigma,
        draw=lambda rng, n: rng.normal(mean, sigma, n),
        moment=lambda p: sigma**p * 2.0 ** (p / 2.0) * math.exp(lgamma((p + 1.0) / 2.0)) / math.sqrt(math.pi),
    )


def centered_pareto(shape: float, scale: float = 1.0) -> DistributionSpec:
    """Pareto(shape, scale) minus its mean scale*shape/(shape-1); E|X|^p = scale^p _pareto_vp(shape, p)."""
    shape, scale = float(shape), float(scale)
    if not 1.0 < shape <= 2.0:
        raise ValueError(f"pareto shape must lie in (1, 2], got {shape}")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"pareto scale must be positive and finite, got {scale}")

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        # scale * (1 - u)^(-1/shape) - raw_mean, in place on the draws.
        x = rng.random(n)
        np.subtract(1.0, x, out=x)
        x **= -1.0 / shape
        x *= scale
        x -= shape * scale / (shape - 1.0)
        return x

    return DistributionSpec(f"centered_pareto(shape={shape},scale={scale})", 0.0, shape, None, draw,
                            lambda p: scale**p * _pareto_vp(shape, p))


def student_t(df: float, location: float = 0.0) -> DistributionSpec:
    """location + t(df); E|X - mu|^p = df^(p/2) Gamma((p+1)/2) Gamma((df-p)/2) / (sqrt(pi) Gamma(df/2))."""
    df, location = float(df), float(location)
    if not 1.0 < df <= 2.0:
        raise ValueError(f"student_t df must lie in (1, 2] here, got {df}")
    if not math.isfinite(location):
        raise ValueError(f"student_t location must be finite, got {location}")
    return DistributionSpec(
        f"student_t(df={df},location={location})", location, df, None,
        draw=lambda rng, n: location + rng.standard_t(df, n),
        moment=lambda p: df ** (p / 2.0) * math.exp(
            lgamma((p + 1.0) / 2.0) + lgamma((df - p) / 2.0) - lgamma(df / 2.0)) / math.sqrt(math.pi),
    )


def two_point(values: Iterable[float], probs: Iterable[float]) -> DistributionSpec:
    """A finite distribution: values[i] with probability probs[i]; moments by direct sums."""
    vals, ps = tuple(float(v) for v in values), tuple(float(q) for q in probs)
    if len(vals) != len(ps) or not vals:
        raise ValueError("two_point needs matching nonempty values and probs")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"two_point values must be finite, got {vals}")
    if not all(0.0 <= q <= 1.0 for q in ps) or abs(sum(ps) - 1.0) > 1e-12:
        raise ValueError(f"probs must lie in [0, 1] and sum to 1, got {ps}")
    mu = float(sum(v * q for v, q in zip(vals, ps)))
    return DistributionSpec(
        f"two_point(values={list(vals)},probs={list(ps)})", mu, math.inf,
        # hypot scales by its largest term, so deviations whose squares overflow still give the std.
        math.hypot(*(math.sqrt(q) * (v - mu) for v, q in zip(vals, ps))),
        draw=lambda rng, n: rng.choice(np.asarray(vals), size=n, p=np.asarray(ps)),
        moment=lambda p: float(sum(q * abs(v - mu) ** p for v, q in zip(vals, ps))),
    )


def substream(seed: int, rep: int) -> np.random.Generator:
    """Replication-indexed RNG; the documented seed-split function."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


#: Replications per _pcg64_block table: about 0.4 ms to build, reused by
#: the runs that draw the same seed's replications (both coverage methods).
_SEED_BLOCK = 256
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier.  numpy keeps both algorithms fixed, since
# a seed must give the same stream in every version; tests compare with it.
_HASH_INIT_A, _HASH_MULT_A, _HASH_INIT_B, _HASH_MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(value: np.ndarray, const: int, mult: int = _HASH_MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words -> (hashes, next hash constant)."""
    value = value ^ const
    const = const * mult & _M32
    value *= const
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> 16)


@functools.lru_cache(maxsize=8)
def _pcg64_block(seed: int, block: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of substream(seed, r) for the _SEED_BLOCK r from block * _SEED_BLOCK.

    SeedSequence(entropy=seed, spawn_key=(r,)) hashes its entropy words
    (seed's little-endian uint32 words, padded with zeros to its pool of 4,
    then r) into the pool, and generate_state(4, uint64) hashes the pool
    into four uint64 words v; both run on uint32 arrays over the block.
    PCG64 seeds from v as s = v0 2^64 + v1, inc = 2 (v2 2^64 + v3) + 1 and
    state = ((inc + s) M + inc) mod 2^128.
    """
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    entropy = [np.full(_SEED_BLOCK, w, dtype=np.uint32) for w in words]
    entropy.append((block * _SEED_BLOCK + np.arange(_SEED_BLOCK)).astype(np.uint32))
    const, pool = _HASH_INIT_A, []
    for w in entropy[:4]:
        hashed, const = _hashmix(w, const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for w in entropy[4:]:
        for dst in range(4):
            hashed, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], hashed)
    const, halves = _HASH_INIT_B, []
    for k in range(8):
        hashed, const = _hashmix(pool[k % 4], const, _HASH_MULT_B)
        halves.append(hashed.astype(np.uint64))
    v0, v1, v2, v3 = ((halves[2 * k] | halves[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    out = []
    for a, b, c, d in zip(v0, v1, v2, v3):
        inc = (c << 65 | d << 1 | 1) & _M128
        out.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    return out


_thread_rng = threading.local()


def sample_stream(dist: DistributionSpec, seed: int, n: int, rep: int = 0) -> np.ndarray:
    """n i.i.d. draws, bit for bit dist.draw(substream(seed, rep), n).

    For an int seed >= 0 and 0 <= rep < 2^32 the draws come from a
    Generator of the calling thread, put in substream(seed, rep)'s initial
    PCG64 state from _pcg64_block: about 3 us per call, where substream
    seeds for about 20 us, all of it with the GIL held, which the other
    replication threads then wait for.  dist.draw must not keep the
    Generator.
    """
    if not 0 <= rep < 1 << 32 or not isinstance(seed, int) or seed < 0:
        return dist.draw(substream(seed, rep), n)  # numpy's own checks and multi-word spawn keys
    gen = getattr(_thread_rng, "gen", None)
    if gen is None:
        gen = _thread_rng.gen = np.random.Generator(np.random.PCG64(0))
    state, inc = _pcg64_block(seed, rep // _SEED_BLOCK)[rep % _SEED_BLOCK]
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return dist.draw(gen, n)


def true_vp(dist: DistributionSpec, p: float) -> float:
    """E|X - mu|^p for p in (1, 2] and at least TAIL_MARGIN below the tail index.

    ValueError where the moment overflows the float range or is otherwise not
    finite, and where it is not positive (a point mass, or an underflow).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    if p > dist.tail_index - TAIL_MARGIN + 1e-12:
        raise ValueError(
            f"E|X - mu|^{p} is infinite or numerically unstable for {dist.label()}: "
            f"requires p <= tail index - {TAIL_MARGIN} = {dist.tail_index - TAIL_MARGIN}"
        )
    try:
        v_p = dist.moment(p)
    except OverflowError:
        v_p = math.inf
    if not math.isfinite(v_p):
        raise ValueError(f"v_p = E|X - mu|^{p} of {dist.label()} is not a finite float: {v_p}")
    if not v_p > 0.0:
        raise ValueError(f"v_p = E|X - mu|^{p} of {dist.label()} is not positive: {v_p}")
    return v_p


def _pareto_vp(beta: float, p: float) -> float:
    """E|Y - m|^p for Y ~ Pareto(beta, 1) with mean m = beta/(beta-1), p in (1, 2], p < beta.

    With y = m/u, the part above the mean is
        beta m^(p-beta) B(beta-p, p+1)
          = (beta-1)^(beta-p) beta^(p-beta) Gamma(beta-p) Gamma(p+1) / Gamma(beta).
    Expanding y^(-beta-1) around m, the part below it is
        beta m^(-beta-1) (m-1)^(p+1) sum_k (beta+1)_k/k! beta^(-k)/(p+k+1)
          = (beta-1)^(beta-p) beta^(-beta) sum_k t_k/(p+k+1),
    where t_0 = 1 and t_k/t_(k-1) = (beta+k)/(k beta).

    Term count: t_k <= e^beta k^beta beta^(-k) (from H_k <= 1 + ln k), and
    the term ratio is below (beta+k+1)/((k+1) beta), so after N terms with
    N(beta-1) >= 2 the dropped tail is at most e^beta N^(beta-1) beta^(-N)
    4 beta/(beta-1).  The sum is at least 1/(p+1) >= 1/3, so the tail is
    under 2^-53 of the sum, below one ulp, once
        N ln(beta) - (beta-1) ln(N) >= L = 53 ln(2) + ln(12 e^beta beta/(beta-1)).
    N = (L + 2(beta-1) ln(x0))/ln(beta) with x0 = L/ln(beta) meets both
    conditions, since (beta-1)/ln(beta) <= 2 keeps N <= x0^2: 77 terms at
    beta = 1.9, 755 at beta = 1.06.
    """
    log_beta = math.log(beta)
    target = 53.0 * math.log(2.0) + beta + math.log(12.0 * beta / (beta - 1.0))
    n_terms = math.ceil((target + 2.0 * (beta - 1.0) * math.log(target / log_beta)) / log_beta)
    k = np.arange(n_terms, dtype=np.float64)
    t = np.cumprod((beta + k) / (np.maximum(k, 1.0) * beta))
    below = beta**-beta * float(np.sum(t / (p + 1.0 + k)))
    above = beta ** (p - beta) * math.exp(lgamma(beta - p) + lgamma(p + 1.0) - lgamma(beta))
    return (beta - 1.0) ** (beta - p) * (above + below)


def true_std(dist: DistributionSpec) -> float:
    """sqrt(Var X); raises when the variance is not finite."""
    if dist.std is None:
        raise ValueError(f"{dist.label()} has infinite or undefined variance here")
    return dist.std


# ---------------------------------------------------------------------------
# Experiment configuration plumbing
# ---------------------------------------------------------------------------


def _method_setup(method: str, dist: DistributionSpec, p: float, alpha: float, n_max: int, reps: int,
                  schedule: LambdaSchedule | None, b: float, **width: float):
    """(v_p, config, schedule) for a run of `method`; the run evaluates the weights it needs.

    Every experiment starts here, so each rejects n_max or reps below 1
    first.  v_p is the exact moment true_vp(dist, p); `width` holds
    CatoniConfig's t and tau, if given.  Default schedules: power_law(1, p)
    for Catoni, the width-optimal ds_optimal schedule for Dubins-Savage.
    """
    if n_max < 1 or reps < 1:
        raise ValueError(f"n_max and reps must be >= 1, got {n_max}, {reps}")
    vp = true_vp(dist, p)
    if method == CATONI:
        schedule = schedule or power_law(1.0, p)
        cfg = cat.CatoniConfig(p=p, v_p=vp, alpha=alpha, schedule=schedule, **width)
    elif method == DS:
        cfg = ds.DsConfig(p=p, v_p=vp, alpha=alpha, b=b)
        schedule = schedule or ds.ds_optimal_schedule(cfg)
    else:
        raise ValueError(f"unknown method {method!r}; expected '{CATONI}' or '{DS}'")
    return vp, cfg, schedule


def _run_reps(fn, reps: int, threads: int) -> list:
    """[fn(r) for r in range(reps)], run by min(threads, reps, CPU count) long-lived worker threads.

    Each worker pulls the next r from one shared iterator and stores fn(r)
    at index r; the calling thread only waits for the workers.  A
    replication thus costs one `next` and one store, not a future and a
    wake-up of the caller, and a long replication delays no other.  The
    results are in order and, since replication r draws only from its own
    substream, identical for any thread count.  Once some fn(r) raises,
    workers take no further r, and the exception of the smallest failing
    r reaches the caller: the one a serial run raises, since every
    smaller r was pulled earlier and has finished.
    """
    threads = min(threads, reps, os.cpu_count() or 1)
    if threads <= 1:
        return [fn(r) for r in range(reps)]
    results: list = [None] * reps
    errors: dict[int, BaseException] = {}
    pending = iter(range(reps))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                r = next(pending, None)
            if r is None:
                return
            try:
                results[r] = fn(r)
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller below
                errors[r] = exc
                stop.set()

    workers = [threading.Thread(target=work) for _ in range(threads)]
    for w in workers:
        w.start()
    try:
        for w in workers:
            w.join()
    finally:
        stop.set()  # an interrupt while waiting: workers end after their current replication
    if errors:
        raise errors[min(errors)]
    return results


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
    schedule: LambdaSchedule | None = None,
    b: float = 1.0,
    stride: int = 1,
    threads: int = 1,
) -> CoverageReport:
    """Uniform-in-time miscoverage frequency over `reps` replications.

    The miscoverage event is the existence of any checked n <= n_max with
    mu outside I_n.  Membership is tested through the defining band
    condition rather than by solving for endpoints: mu in I_n iff
    |sum g(lambda_i (X_i - mu))| is within the method's band at
    sum(lambda_i^p), g = phi and band = catoni_cs.target for Catoni, the
    identity and dubins_savage.ds_band for Dubins-Savage.  Subtracting mu
    before weighting by lambda costs no digits at a location far from 0.
    The check is O(1) per step, so stride > 1 only coarsens the event (it
    is recorded in the report either way).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    vp, cfg, schedule = _method_setup(method, dist, p, alpha, n_max, reps, schedule, b)
    lam = schedule.head(n_max)
    band, g = (cat.target, cfg.influence) if method == CATONI else (ds.ds_band, None)
    # A plain slice is a view, so stride 1 indexes without a copy.
    idx = slice(None) if stride == 1 else _checked_indices(n_max, stride)
    threshold = band(cfg, cumulative_powers(lam, p))[idx]
    mu = dist.true_mean

    def one_rep(r: int) -> bool:
        # The statistic's ufuncs run in its expression's order, so it has their bits, and cumsum writes to a
        # buffer other than its input (see the module docstring): phi's output frees the drawn stream's.
        z = sample_stream(dist, seed, n_max, rep=r)
        z -= mu
        z *= lam
        stat = np.cumsum(g(z), out=z) if g else np.cumsum(z)
        return bool(np.any(np.abs(stat, out=stat)[idx] > threshold))

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


def fit_loglog_slope(ns, widths, n_max: int) -> float:
    """OLS slope of log width vs log n over the top two decades of n.

    NaN when fewer than two checkpoints land in that window.
    """
    ns = np.asarray(ns, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    keep = ns >= n_max / 100.0
    if keep.sum() < 2:
        return math.nan
    x, y = np.log(ns[keep]), np.log(widths[keep])
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def checkpoint_list(checkpoints, n_max: int) -> list[int]:
    """The sorted distinct checkpoints (default_checkpoints(n_max) for None); ValueError if none or not in [1, n_max]."""
    cps = default_checkpoints(n_max) if checkpoints is None else sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValueError("checkpoints must not be empty")
    if cps[0] < 1 or cps[-1] > n_max:
        raise ValueError(f"checkpoints must lie in [1, {n_max}], got {cps[0]}..{cps[-1]}")
    return cps


def catoni_widths(cfg: cat.CatoniConfig, lam: np.ndarray, x: np.ndarray, ns, sum_lambda_p) -> list[float]:
    """Widths of cfg's Catoni intervals at the ascending ns for weights lam and stream x, with sum_lambda_p at ns."""
    widths = []
    for n, tgt in zip(ns, cat.target(cfg, sum_lambda_p)):
        lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt)
        widths.append(hi - lo)
    return widths


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
    schedule: LambdaSchedule | None = None,
    t: float = 0.5,
    tau: float = 0.1,
    b: float = 1.0,
    threads: int = 1,
) -> WidthReport:
    """Interval widths at checkpoints and their fitted log-log slope; data-free DS widths are computed once.

    Both methods read sum lambda_i and sum lambda_i^p at the checkpoints only
    (schedules.checkpoint_sums), never as curves over every n.  A Catoni run
    holds the weights and the stream of each running replication, arrays of
    n_max floats; a DS run reads its weights SUM_CHUNK at a time and keeps none.
    """
    vp, cfg, schedule = _method_setup(method, dist, p, alpha, n_max, reps, schedule, b, t=t, tau=tau)
    cps = checkpoint_list(checkpoints, n_max)

    if method == CATONI:
        lam = schedule.head(n_max)  # the solves read it; the sums read its slices
        cum_lam, cum_lam_p = checkpoint_sums(lambda start, stop: lam[start - 1 : stop], p, cps)
        bounds_at, cond_at = cat.width_bound_sums(cfg, cum_lam, cum_lam_p)
        bounds = [None if math.isnan(v) else float(v) for v in bounds_at]
        conds = [bool(c) for c in cond_at]
        widths = np.asarray(_run_reps(
            lambda r: catoni_widths(cfg, lam, sample_stream(dist, seed, n_max, rep=r), cps, cum_lam_p), reps, threads))
    else:
        cum_lam, cum_lam_p = checkpoint_sums(schedule.span, p, cps)  # data-free: no weights are kept
        widths = 2.0 * ds.ds_radius(cfg, cum_lam, cum_lam_p)[np.newaxis]  # one row, its own mean
        bounds = 2.0 * cfg.b * vp * cum_lam_p / cum_lam
        conds = [None] * len(cps)

    # A width is inf where an endpoint is +-inf, or 0 where both ends coincide; the mean
    # and slope over it are then inf or NaN, which the reports print as NA, so no warning is due.
    with np.errstate(divide="ignore", invalid="ignore"):
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
    failure_budget: float      # >= alpha * sum_n eps_n (catoni_cs.failure_budget at power_law(1, p)): 2^16
                               # terms plus a closed-form tail; ValueError for K = C_p v_p (1 + t^-(p-1)) <= 1
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


def _bound_suspects(influence, lam, cum_lam, band, bounds, blocks):
    """suspects(x): the sorted n of `blocks` at which run_bound_validity's sufficient test fails.

    x is the stream less its checked mean.  Block k tests f_n(w_k) <= -band_n
    and f_n(-w_k) >= band_n for its n, with w_k = min(bounds over the block)
    / 2, from prefixes carried over from block k-1 (see run_bound_validity).
    Both sides are the rows of one (2, m) array, x -+ w, and the row-wise
    cumulative sum adds in order, so each row has the bits of a one-sided
    pass.  cum_lam, the cumulative sum of lam, is read only at the block edges.
    """
    w = [0.5 * float(np.min(bounds[a - 1 : b])) for a, b in blocks]
    # The next block starts at n = b, so its prefix is lambda_1..lambda_{b-1}.
    lam_before = cum_lam[[b - 2 for _, b in blocks[:-1]]]
    drift = influence.slope_bound * np.abs(np.diff(w)) * lam_before
    sign = np.array([[1.0], [-1.0]])

    def suspects(x: np.ndarray) -> list[int]:
        out: list[int] = []
        carry = np.zeros(2)
        for k, (a, b) in enumerate(blocks):
            start = 0 if k == 0 else a - 1
            sides = x[start:b] - sign * w[k]
            sides *= lam[start:b]
            sides = influence(sides)
            sides[:, 0] += carry
            np.cumsum(sides, axis=1, out=sides)
            seg = slice(a - 1, b)
            ok = (sides[0, a - 1 - start :] <= -band[seg]) & (sides[1, a - 1 - start :] >= band[seg])
            if not ok.all():
                out.extend((np.nonzero(~ok)[0] + a).tolist())
            if k < len(drift):
                carry = sides[:, -2] + sign[:, 0] * drift[k]
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
    the verdict per n is exact.  The test and the exact solves read x - mu,
    formed once per replication and exact (Sterbenz) near mu at any mu, where
    mu +- w rounds to mu's grid and root_tol scales with |xhat|.  The run uses
    Catoni's default schedule power_law(1, p) and width constants t = 1/2, tau = 0.1.
    """
    vp, cfg, schedule = _method_setup(CATONI, dist, p, alpha, n_max, reps, None, 1.0)
    lam = schedule.head(n_max)
    cum_lam, cum_lam_p = cumulative_sums(lam, p)
    budget = cat.failure_budget(cfg)  # raises before any replication on an uncertifiable config
    mu = dist.true_mean
    bounds, condition = cat.width_bound_sums(cfg, cum_lam, cum_lam_p)
    band = cat.target(cfg, cum_lam_p)
    if not condition.any():
        raise ValueError(f"width bound never applies up to n_max={n_max}")
    n0 = int(np.argmax(condition)) + 1
    permanent = bool(condition[n0 - 1 :].all())
    if not permanent:
        raise ValueError("the width-bound condition is not permanent over [n0, n_max]; blocks assume it")
    influence = cfg.influence
    suspects = _bound_suspects(influence, lam, cum_lam, band, bounds, _bound_blocks(n0, n_max))
    del cum_lam, cum_lam_p  # before the replications, which read neither

    def one_rep(r: int) -> tuple[bool, int]:
        x = sample_stream(dist, seed, n_max, rep=r)
        x -= mu
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
        failure_budget=budget,
        exact_solves=exact_solves,
    )
