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
This module computes the floor curve and the trace of sum_i Y_i / theta_n
as empirical diagnostics only; a limsup is not falsifiable at finite n,
so it is exposed as a plotted trace rather than an assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import sample_stream, true_std
from .influence import default_influence
from .schedules import LambdaSchedule


@dataclass(frozen=True)
class LilConfig:
    """Floor parameters; requires 0 < a < 2 sigma sqrt(2), strictly.

    a defaults to half its supremum (sigma sqrt(2)): the floor guarantee
    covers any admissible a only asymptotically, and finite-n violations near the
    supremum are expected.
    """

    sigma: float
    schedule: LambdaSchedule
    a: float | None = None

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


def lil_trace(dist, schedule: LambdaSchedule, n: int, seed: int) -> np.ndarray:
    """Diagnostic trace sum_{i<=m} Y_i / theta_m for m = 1..n.

    The limsup of this ratio tends to 1 almost surely under the LIL; at
    finite n it is a plotted diagnostic, never an assertion.  E Y_i is not
    subtracted: |E Y_i| <= lambda_i^2 sigma^2 / 2 makes the centring
    correction O(sum lambda_i^2 / theta_n), negligible on the trace scale.
    The ratio is NaN while theta is undefined.
    """
    psi = default_influence(2.0)
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
    return ratio
