"""Re-measure the baseline figures quoted in ROADMAP item 1.

    python3 perfbench/rebaseline.py [--seed N] [--repeats R]

Prints one JSON object: phi-array evaluations per Catoni interval and the
median solve time at n = 10^3 .. 10^6, streaming update+interval to
N = 2000, run_width (Catoni, n = 10^5, 3 reps) and run_coverage (Catoni,
N = 10^4, R = 200) at 1 and 2 threads.  Data: centered Pareto (shape 1.9),
p = 1.5, alpha = 0.05, power-law weights c = 1.  Evaluation counts come
from the same span tracer as `run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run
from tracer import Tracer

P, ALPHA, SHAPE = 1.5, 0.05, 1.9


def timed(fn, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    hc = run._bootstrap()
    cat, harness, schedules = hc.catoni_cs, hc.harness, hc.schedules

    dist = harness.centered_pareto(SHAPE)
    v_p = harness.true_vp(dist, P)
    cfg = cat.CatoniConfig(p=P, v_p=v_p, alpha=ALPHA, schedule=schedules.power_law(1.0, P))
    x = harness.sample_stream(dist, args.seed, 10**6)
    lam = cfg.schedule.head(10**6)
    out: dict = {"env": run.environment(hc, args.seed, False), "solve": {}}

    for n in (10**3, 10**4, 10**5, 10**6):
        tgt = cat.target(cfg, float((lam[:n] ** P).sum()))
        tracer = Tracer()
        with tracer.installed():
            cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt)
        phi_calls = sum(1 for sp in tracer.spans if sp.name == "influence.phi")
        wall = timed(lambda: cat.solve_interval_arrays(cfg.influence, lam[:n], x[:n], tgt), args.repeats)
        out["solve"][str(n)] = {"phi_evals": phi_calls, "ms": wall * 1e3}

    def stream():
        state = cat.new_state(cfg)
        for v in x[:2000].tolist():
            cat.update(state, v)
            cat.interval(state, cfg)

    out["stream_n2000_s"] = timed(stream, args.repeats)
    out["run_width_n1e5_reps3_s"] = timed(
        lambda: harness.run_width("catoni", dist, P, ALPHA, 10**5, args.seed, reps=3), args.repeats)
    for threads in (1, 2):
        out[f"run_coverage_n1e4_r200_threads{threads}_s"] = timed(
            lambda: harness.run_coverage("catoni", dist, P, ALPHA, 10**4, 200, args.seed, threads=threads),
            args.repeats)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
