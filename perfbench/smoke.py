"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks, per workload, that an untraced and a traced run report every
metric by name with its unit, that no op fails, that every wrapper is
restored (the package functions are the originals afterwards), and that
the output check catches a perturbed influence function.  Exits non-zero
on the first failure.  Not collected by pytest: the repository's test
suite does not run the benchmark.
"""

from __future__ import annotations

import math
import sys

import run
from tracer import patched, trace_targets
from workloads import TINY, WORKLOADS, OpLog, round_seed


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def bindings(hc) -> dict:
    """Every attribute the benchmark may replace, with its current raw value."""
    owners = [(owner, attr) for _, owner, attr, _ in trace_targets()]
    owners += [(hc.catoni_cs, "solve_interval_arrays"), (hc.harness, "_run_reps")]
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in owners}


def check_result(name: str, run_out: dict, trace: bool) -> None:
    line = run.result_line(run_out, trace)
    want = run.PER_LAYER if trace else [(m["name"], m["unit"], m["better"]) for m in run.END_TO_END]
    for metric, unit, _ in want:
        got = line["metrics"].get(metric)
        expect(got is not None and got["unit"] == unit, f"{name}: metric {metric} [{unit}] missing")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{name}: metric {metric} not a finite number: {got['value']!r}")
        if not trace:
            expect(got["value"] > 0, f"{name}: end-to-end metric {metric} is not positive")
    expect(set(line["metrics"]) == {m for m, _, _ in want}, f"{name}: unexpected metrics in result line")
    expect(line["attempted"] >= 1 and line["failed"] == 0 and line["correct"],
           f"{name}: fail_ratio {line['failed']}/{line['attempted']}")


def perturbed_phi_is_caught(hc) -> None:
    def perturb(original):
        def phi(self, x):
            return original(self, x) * (1.0 + 1e-6)
        return phi

    wl = WORKLOADS["stream"](hc, None, **TINY["stream"])
    with wl.hooks(OpLog()), patched(hc.influence.InfluenceFunction, "__call__", perturb):
        data = wl.run_round(round_seed(0, 0))
        failed = wl.check(data)
    expect(failed > 0, "output check passed with a perturbed phi")


def main() -> int:
    hc = run._bootstrap()
    before = bindings(hc)
    for name in WORKLOADS:
        check_result(name, run.measure(hc, name, seed=0, seconds=0.0, sizes=TINY[name]), trace=False)
        check_result(name, run.trace_run(hc, name, seed=0, sizes=TINY[name]), trace=True)
        expect(bindings(hc) == before, f"{name}: a wrapper was left installed")
        print(f"ok {name}")
    perturbed_phi_is_caught(hc)
    expect(bindings(hc) == before, "perturbation wrapper was left installed")
    print("ok perturbed phi is caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
