"""The blocked sufficient test of run_bound_validity against its slow paths.

The reference below is the prefix-recomputing loop the chained test
replaced: for every block it evaluates phi over the whole prefix
lambda_1..lambda_b at the block's offset.  The chained test may flag more n
(its carried prefixes are bounds), never fewer, and every n it passes must
have an exact interval no wider than the width bound.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import budget_oracle

from heavytail_cs import catoni_cs as cat
from heavytail_cs import harness
from heavytail_cs.schedules import power_law

#: Unit-scale streams; each example shifts and scales one of them.
UNIT_STREAMS = {
    "gaussian": harness.gaussian(0.0, 1.0),
    "student_t": harness.student_t(1.9),
    "two_point": harness.two_point([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0]),
}


def reference_suspects(influence, lam, x, mu, band, bounds, blocks):
    """The n of `blocks` failing the test with exact prefixes at each block's offset."""
    suspect = []
    for a, b in blocks:
        w = 0.5 * float(np.min(bounds[a - 1 : b]))
        hi = np.cumsum(influence(lam[:b] * (x[:b] - (mu + w))))[a - 1 : b]
        lo = np.cumsum(influence(lam[:b] * (x[:b] - (mu - w))))[a - 1 : b]
        seg = slice(a - 1, b)
        ok = (hi <= -band[seg]) & (lo >= band[seg])
        if not ok.all():
            suspect.extend((np.nonzero(~ok)[0] + a).tolist())
    return sorted(set(suspect))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(UNIT_STREAMS)),
    p=st.sampled_from([1.5, 1.8, 2.0]),
    n_max=st.integers(3200, 5000),
    c=st.sampled_from([0.05, 0.1, 0.2, 0.3]),
    shift=st.floats(-1e6, 1e6),
    log10_scale=st.floats(-2.0, 2.0),
    offset=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_chained_check_is_sufficient(kind, p, n_max, c, shift, log10_scale, offset, seed):
    """Suspects contain the reference's, and passed n have exact width <= bound.

    The stream is shift + scale * Z for a unit-scale Z.  The checked centre
    is off the stream's mean by offset * scale, so many examples have both
    passing and failing n.  lambda = (c / scale) t^(-1/p) and v_p =
    scale^p E|Z - EZ|^p keep the band and the n0 of the width bound
    independent of the scale.
    """
    unit = UNIT_STREAMS[kind]
    assume(p <= unit.tail_index - harness.TAIL_MARGIN)
    scale = 10.0**log10_scale
    x = shift + scale * harness.sample_stream(unit, seed, n_max)
    mu = shift + scale * (unit.true_mean + offset)
    cfg = cat.CatoniConfig(
        p=p, v_p=scale**p * harness.true_vp(unit, p), alpha=0.05, schedule=power_law(c / scale, p)
    )
    lam = cfg.schedule.head(n_max)
    band = math.log(2.0 / 0.05) + cfg.c_p * cfg.v_p * np.cumsum(lam**p)
    bounds, condition = cat.width_bound_curve(cfg, n_max)
    n0 = int(np.argmax(condition)) + 1
    assert condition[n0 - 1 :].all()
    blocks = harness._bound_blocks(n0, n_max)

    chained = harness._bound_suspects(cfg.influence, lam, np.cumsum(lam), band, bounds, blocks)(x - mu)
    assert set(reference_suspects(cfg.influence, lam, x, mu, band, bounds, blocks)) <= set(chained)

    passed = sorted(set(range(n0, n_max + 1)) - set(chained))
    for j in np.unique(np.linspace(0, len(passed) - 1, 8).astype(int)) if passed else ():
        n = passed[j]
        lo, hi = cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], float(band[n - 1]))
        assert hi - lo <= bounds[n - 1]


def test_run_matches_reference_loop():
    """Gaussian p = 2, n = 5000, 10 reps, seed 14: the verdict and n0 of the
    prefix-recomputing check, no more exact solves than it needs, and a budget
    inside the two-sided oracle's bracket."""
    rep = harness.run_bound_validity(harness.gaussian(0, 1), 2.0, 0.05, 5000, 10, seed=14)
    cfg = cat.CatoniConfig(p=2.0, v_p=rep.v_p, alpha=0.05, schedule=power_law(1.0, 2.0))
    lam = cfg.schedule.head(5000)
    band = math.log(2.0 / 0.05) + cfg.c_p * cfg.v_p * np.cumsum(lam**2)
    bounds, _ = cat.width_bound_curve(cfg, 5000)
    blocks = harness._bound_blocks(rep.n0, 5000)
    ref_solves = 0
    for r in range(10):
        x = harness.sample_stream(harness.gaussian(0, 1), 14, 5000, rep=r)
        ref_solves += len(reference_suspects(cfg.influence, lam, x, 0.0, band, bounds, blocks))
    assert (rep.n0, rep.violating_reps) == (644, 0)
    assert rep.failure_budget == 0.0020300844912463016
    lower, upper = budget_oracle(cfg)
    assert lower <= rep.failure_budget <= upper * (1.0 + 1e-6)
    assert rep.exact_solves <= ref_solves


def _runs(ns):
    """Sorted n as inclusive (first, last) runs of consecutive values."""
    out = []
    for n in ns:
        if out and out[-1][1] == n - 1:
            out[-1] = (out[-1][0], n)
        else:
            out.append((n, n))
    return out


def test_suspects_and_offset_run_are_pinned():
    """The chained test's exact output on a stream whose offset gives both
    passing and failing n, and the (exact_solves, violating_reps) of a small
    run whose stated mean is off the stream's by 0.25.  A rearrangement of
    its sums that changes any bit near a band edge changes these."""
    unit = harness.gaussian(0.0, 1.0)
    shift, scale, n_max = 1e3, 3.0, 4000
    x = shift + scale * harness.sample_stream(unit, 1, n_max)
    mu = shift + scale * 0.22
    cfg = cat.CatoniConfig(p=2.0, v_p=scale**2 * harness.true_vp(unit, 2.0), alpha=0.05,
                           schedule=power_law(0.2 / scale, 2.0))
    lam = cfg.schedule.head(n_max)
    band = math.log(2.0 / 0.05) + cfg.c_p * cfg.v_p * np.cumsum(lam**2)
    bounds, condition = cat.width_bound_curve(cfg, n_max)
    n0 = int(np.argmax(condition)) + 1
    suspects = harness._bound_suspects(cfg.influence, lam, np.cumsum(lam), band, bounds,
                                      harness._bound_blocks(n0, n_max))(x - mu)
    assert n0 == 154
    assert _runs(suspects) == [(2171, 2213), (2217, 2218), (2220, 2231), (2662, 3214), (3263, 4000)]

    offset = dataclasses.replace(unit, true_mean=0.25)
    for threads in (1, 2):
        rep = harness.run_bound_validity(offset, 2.0, 0.05, 3000, 8, seed=14, threads=threads)
        assert (rep.exact_solves, rep.violating_reps) == (984, 0)


@pytest.mark.parametrize("shift", [1e6, 1e12, 1e15, 1e17])
def test_suspects_do_not_depend_on_the_location(shift):
    """A replication hands the chained test x - mu, formed once and exact
    (Sterbenz) near mu, so a stream at mu = shift is tested as x - shift at
    0 and the location acts only through the rounding of the stream itself.
    Its offset of 0.66 from mu survives the shift below 1e17, so some n
    fail, and the suspects still contain the reference's; at 1e17 the grid
    is 16, all but 27 of the rounded draws sit on mu and every n passes."""
    unit = harness.gaussian(0.0, 1.0)
    scale, n_max = 3.0, 4000
    cfg = cat.CatoniConfig(p=2.0, v_p=scale**2 * harness.true_vp(unit, 2.0), alpha=0.05,
                           schedule=power_law(0.2 / scale, 2.0))
    lam = cfg.schedule.head(n_max)
    band = math.log(2.0 / 0.05) + cfg.c_p * cfg.v_p * np.cumsum(lam**2)
    bounds, condition = cat.width_bound_curve(cfg, n_max)
    blocks = harness._bound_blocks(int(np.argmax(condition)) + 1, n_max)

    x = shift + scale * (0.22 + harness.sample_stream(unit, 1, n_max))
    x -= shift
    centred = harness._bound_suspects(cfg.influence, lam, np.cumsum(lam), band, bounds, blocks)(x)
    assert bool(centred) == (shift < 1e17)
    assert set(reference_suspects(cfg.influence, lam, x, 0.0, band, bounds, blocks)) <= set(centred)


def test_run_does_not_depend_on_the_location():
    """A two-point stream at s + {-0.75, 1.25}, checked at mu = s (0.25 off its
    mean), gives the same report at s = 0 and 1e15: each replication centres
    its stream once, so the sufficient test and the exact solves read the same
    x - mu at every s.  Solving on the raw stream, whose root_tol is
    1e-9 |xhat|, reported 6 of 8 reps violating at 1e12 and 1e15."""
    reports = []
    for s in (0.0, 1e15):
        dist = dataclasses.replace(harness.two_point([s - 0.75, s + 1.25], [0.5, 0.5]), true_mean=s)
        reports.append(harness.run_bound_validity(dist, 2.0, 0.05, 3000, 8, seed=14))
    assert (reports[0].exact_solves, reports[0].violating_reps) == (3182, 0)
    assert reports[1] == reports[0]
