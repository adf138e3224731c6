"""Iterated-logarithm width floor for the finite-variance case (p = 2).

Any confidence sequence built from band conditions on
sum_i psi(lambda_i (X_i - x)) with a 1-Lipschitz psi, lambda_i decreasing
to 0 and sum lambda_i^2 = infinity must eventually have width at least

    a * sqrt(sum lambda_i^2 * log log sum lambda_i^2) / sum lambda_i

for any a < 2 sigma sqrt(2), where sigma^2 is the true variance.  The
driver is the law of the iterated logarithm for the transformed variables
Y_i = psi(lambda_i (X_i - mu)), whose fluctuation scale is

    theta_n = s_n (2 log log s_n^2)^(1/2),     s_n^2 = sum_i Var(Y_i),

with Var(Y_i) ~ lambda_i^2 sigma^2 and |E Y_i| <= lambda_i^2 sigma^2 / 2.
This module computes the floor and the supporting quantities as
empirical diagnostics only; a limsup is not falsifiable at finite n, so
it is exposed as a plotted trace rather than an assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import sample_stream, true_std
from .influence import CATONI_CLASSIC_P2, make_influence
from .schedules import LambdaSchedule


@dataclass(frozen=True)
class LilConfig:
    """Floor parameters; requires 0 < a < 2 sigma sqrt(2), strictly.

    a defaults to half its supremum (sigma sqrt(2)): the floor guarantee
    covers any admissible a only asymptotically, and finite-n violations near the
    supremum are expected.  vartheta records the assumed moment surplus
    E|X|^(2+vartheta) < infinity (diagnostic bookkeeping only).
    """

    sigma: float
    schedule: LambdaSchedule
    a: float | None = None
    vartheta: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.a is None:
            object.__setattr__(self, "a", self.sigma * math.sqrt(2.0))
        if not 0.0 < self.a < 2.0 * self.sigma * math.sqrt(2.0):
            raise ValueError(
                f"a must lie strictly in (0, 2*sigma*sqrt(2)) = "
                f"(0, {2.0 * self.sigma * math.sqrt(2.0)}), got {self.a}"
            )
        if not 0.0 < self.vartheta <= 1.0:
            raise ValueError(f"vartheta must lie in (0, 1], got {self.vartheta}")


def lil_floor(cfg: LilConfig, n: int) -> float | None:
    """lil_floor_curve at n; None (not applicable) while S2 <= e."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    floor = lil_floor_curve(cfg, n)[n - 1]
    return None if math.isnan(floor) else float(floor)


def lil_floor_curve(cfg: LilConfig, n_max: int) -> np.ndarray:
    """a sqrt(S2 log log S2) / S1 for every n = 1..n_max.

    S2 = sum lam_i^2 and S1 = sum lam_i.  Defined once S2 > e (so the
    double log is positive); NaN (not applicable) before that.
    """
    lam = cfg.schedule.head(n_max)
    s1 = np.cumsum(lam)
    s2 = np.cumsum(lam * lam)
    out = np.full(n_max, np.nan)
    ok = s2 > math.e
    out[ok] = cfg.a * np.sqrt(s2[ok] * np.log(np.log(s2[ok]))) / s1[ok]
    return out


def theta_n(s_n: float) -> float | None:
    """theta_n = s_n (2 log log s_n^2)^(1/2); None when s_n^2 <= e."""
    if s_n <= 0.0:
        raise ValueError(f"s_n must be positive, got {s_n}")
    if s_n * s_n <= math.e:
        return None
    return s_n * math.sqrt(2.0 * math.log(math.log(s_n * s_n)))


@dataclass(frozen=True)
class YMomentRow:
    """Monte Carlo moments of Y = psi(lambda (X - mu)) at one schedule index."""

    i: int
    lam: float
    var_ratio: float        # Var(Y) / (lambda^2 sigma^2)
    mean_abs: float         # |mean(Y)|
    mean_bound: float       # lambda^2 sigma^2 / 2
    mean_std_err: float


def y_variance_check(
    dist,
    schedule: LambdaSchedule,
    i_max: int,
    reps: int,
    seed: int,
    grid_size: int = 6,
) -> list[YMomentRow]:
    """Monte Carlo check that Var(Y_i) ~ lambda_i^2 sigma^2 as lambda_i -> 0.

    Uses the classical p = 2 influence function.  For each i on a
    log-spaced grid up to i_max, draws `reps` samples of
    Y = psi(lambda_i (X - mu)) and reports Var(Y)/(lambda_i^2 sigma^2)
    (expected -> 1 from below as i grows; materially below 1 while psi
    still damps the tails) together with the |E Y| <= lambda_i^2 sigma^2/2
    diagnostic.
    """
    psi = make_influence(2.0, CATONI_CLASSIC_P2)
    sigma = true_std(dist)
    mu = dist.true_mean
    grid = sorted(set(np.geomspace(1, i_max, grid_size).astype(int).tolist()))
    rows = []
    for k, i in enumerate(grid):
        lam = schedule.at(int(i))
        x = sample_stream(dist, seed, reps, rep=k)
        y = psi(lam * (x - mu))
        var = float(np.var(y))
        mean = float(np.mean(y))
        rows.append(
            YMomentRow(
                i=int(i),
                lam=lam,
                var_ratio=var / (lam * lam * sigma * sigma),
                mean_abs=abs(mean),
                mean_bound=lam * lam * sigma * sigma / 2.0,
                mean_std_err=float(np.std(y)) / math.sqrt(reps),
            )
        )
    return rows


def lil_trace(dist, schedule: LambdaSchedule, n: int, seed: int) -> dict[str, np.ndarray]:
    """Diagnostic trace sum_{i<=n} Y_i / theta_n against n.

    The limsup of this ratio tends to 1 almost surely under the LIL; at
    finite n it is a plotted diagnostic, never an assertion.  E Y_i is not
    subtracted: |E Y_i| <= lambda_i^2 sigma^2 / 2 makes the centring
    correction O(sum lambda_i^2 / theta_n), negligible on the trace scale.
    Returns arrays "n", "ratio" (NaN while theta is undefined).
    """
    psi = make_influence(2.0, CATONI_CLASSIC_P2)
    sigma = true_std(dist)
    mu = dist.true_mean
    x = sample_stream(dist, seed, n)
    lam = schedule.head(n)
    y = psi(lam * (x - mu))
    s2 = np.cumsum(lam * lam) * sigma * sigma
    sums = np.cumsum(y)
    ratio = np.full(n, np.nan)
    ok = s2 > math.e
    theta = np.sqrt(s2[ok]) * np.sqrt(2.0 * np.log(np.log(s2[ok])))
    ratio[ok] = sums[ok] / theta
    return {"n": np.arange(1, n + 1), "ratio": ratio}
