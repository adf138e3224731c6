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
so it is exposed as a plotted trace rather than an assertion.  lil_check
reads both, with the Catoni width, at the checkpoints of one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catoni_cs import CatoniConfig
from .harness import catoni_widths, checkpoint_list, sample_stream, true_std, true_vp
from .influence import default_influence
from .schedules import LambdaSchedule, checkpoint_sums, cumulative_sums, running_sums_at


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
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
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
    return _floor(cfg.a, *cumulative_sums(cfg.schedule.head(n_max), 2.0))


def _floor(a: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """a sqrt(S2 log log S2) / S1, elementwise where S2 > e and NaN elsewhere."""
    out = np.full(s1.size, np.nan)
    ok = s2 > math.e
    out[ok] = a * np.sqrt(s2[ok] * np.log(np.log(s2[ok]))) / s1[ok]
    return out


def lil_trace(dist, lam: np.ndarray, x: np.ndarray, ns) -> np.ndarray:
    """Diagnostic trace sum_{i<=m} Y_i / theta_m at each m of the ascending ns, for weights lam and stream x.

    The limsup of this ratio tends to 1 almost surely under the LIL; at
    finite n it is a plotted diagnostic, never an assertion.  E Y_i is not
    subtracted: |E Y_i| <= lambda_i^2 sigma^2 / 2 makes the centring
    correction O(sum lambda_i^2 / theta_n), negligible on the trace scale.
    The ratio is NaN while theta is undefined.  The sums of Y_i and
    lambda_i^2 are read at ns only (schedules.running_sums_at), bit for bit
    the full curves' entries there.
    """
    psi = default_influence(2.0)
    sigma = true_std(dist)
    mu = dist.true_mean

    def terms(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        lam_c = lam[start - 1 : stop]
        return psi(lam_c * (x[start - 1 : stop] - mu)), lam_c**2.0

    sums, s2 = running_sums_at(ns, terms)
    s2 = s2 * sigma * sigma
    ratio = np.full(s2.size, np.nan)
    ok = s2 > math.e
    theta = np.sqrt(s2[ok]) * np.sqrt(2.0 * np.log(np.log(s2[ok])))
    ratio[ok] = sums[ok] / theta
    return ratio


def lil_check(cfg: LilConfig, dist, alpha: float, n_max: int, seed: int, checkpoints=None):
    """(checkpoints, Catoni widths, floor, trace ratio) of one stream at p = 2, at each checkpoint.

    The weights are evaluated once and stream replication 0 drawn once for
    all three.  The widths are harness.run_width's for the Catoni method at
    p = 2 and one replication, bit for bit; the floor is lil_floor_curve's
    entry and the ratio lil_trace's at each checkpoint.  Checkpoints are
    harness.checkpoint_list's.
    """
    ccfg = CatoniConfig(p=2.0, v_p=true_vp(dist, 2.0), alpha=alpha, schedule=cfg.schedule)
    ns = checkpoint_list(checkpoints, n_max)
    lam, x = cfg.schedule.head(n_max), sample_stream(dist, seed, n_max)
    s1, s2 = checkpoint_sums(lambda start, stop: lam[start - 1 : stop], 2.0, ns)
    return ns, catoni_widths(ccfg, lam, x, ns, s2), _floor(cfg.a, s1, s2), lil_trace(dist, lam, x, ns)
