"""Benchmark for heavytail-cs: end-to-end numbers per workload, per-layer numbers when traced.

    python3 perfbench/run.py --workload stream|width|montecarlo --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest      # (re)write BENCHMARK.json

Run from the repository root; the package is imported from ./src, never
from an installed copy.  `--trace 0` runs a warm-up round, then repeats
rounds of the workload for --seconds (plus the round in progress) and
reports the end-to-end metrics; `--trace 1` runs one round untraced,
traced, and untraced again, and reports the per-layer metrics.  Every
round's outputs are checked outside the timed section.  The last line of
stdout is the JSON result; the lines before it name every metric with its
unit, the environment and the report digests.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import Tracer, summarize, tail_percentile
from workloads import WORKLOADS, OpLog, round_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workloads listed in BENCHMARK.json.  `stream` runs and is checked like
#: the others but is not gated: on a shared 2-vCPU host its figures spread
#: past any allowed bound between machine speed states (see NOTES.md).
GATED = ("width", "montecarlo")
#: Seconds of timed rounds per run.
RUN_SECONDS = 40
#: Setup is measured in this many fresh processes per run; the median is reported.
SETUP_PROBES = 5
#: How an op position's samples over the timed rounds reduce to one (workload LATENCY).
REDUCTIONS = {"floor": min, "median": statistics.median}

END_TO_END = [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# Per-layer metrics for the last line: those measured on every gated workload.
# Times here are never zero; rootfind counts are zero on montecarlo, which
# solves no endpoint.  Counts that are zero on both gated workloads
# (rootfind.expansions_per_solve, schedules.at_calls, harness.exact_solves)
# are left out.  The traced run prints the full per-layer breakdown,
# workload-specific entries included, above the last line.
PER_LAYER = [
    ("influence.calls", "count", "lower"),
    ("influence.elems", "count", "lower"),
    ("influence.self_s", "s", "lower"),
    ("influence.ns_per_elem", "ns", "lower"),
    ("rootfind.solves", "count", "lower"),
    ("rootfind.f_evals_per_solve", "count", "lower"),
    ("catoni_cs.self_s", "s", "lower"),
    ("dubins_savage.self_s", "s", "lower"),
    ("schedules.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.true_vp_s", "s", "lower"),
    ("harness.sample_stream_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.child_coverage_pct", "%", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _bootstrap():
    """Import heavytail_cs from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "heavytail_cs", "__init__.py")):
        sys.exit(f"error: no package source at {os.path.join('src', 'heavytail_cs')} under {ROOT}")
    sys.path.insert(0, SRC)
    import heavytail_cs
    from heavytail_cs import catoni_cs, cli, dubins_savage, harness, schedules  # noqa: F401 - binds hc.<module>

    if not os.path.abspath(heavytail_cs.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported heavytail_cs from {heavytail_cs.__file__}, not from {SRC}")
    return heavytail_cs


def environment(hc, seed: int, holdout: bool) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED", "HEAVYTAIL_CS_SEED")
    return {
        "package": hc.__version__,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "seed": seed,
        "held_out_seed": holdout,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed op."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def _probe(hc, workload: str, seed: int) -> None:
    wd = _workdir()

    def first_op():
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        wd.cleanup()
        os._exit(0)  # skip interpreter teardown: the probe ends at the first op

    with wd:
        wl = WORKLOADS[workload](hc, wd.name)
        with wl.hooks(OpLog(on_first_op=first_op)):
            wl.run_round(round_seed(seed, 0))
    sys.exit("error: round finished without a timed op")


def _outdir() -> str:
    """Where traces are kept, inside the checkout (ignored by git)."""
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def _workdir() -> tempfile.TemporaryDirectory:
    """A private directory for one process's CLI reports, removed afterwards."""
    return tempfile.TemporaryDirectory(prefix="run-", dir=_outdir())


@contextlib.contextmanager
def heap_frozen():
    """Collect, then hide every object alive so far from the collector during a timed round.

    A collection pass costs time in proportion to the objects it scans.
    Frozen, the benchmark's own records from earlier rounds add nothing to
    the passes a round triggers, while the program's own allocations are
    collected as they are in normal use.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _run_round(wl, seed: int):
    """One round of the workload; None if it raised."""
    try:
        return wl.run_round(seed)
    except Exception as exc:  # noqa: BLE001 - a raising round fails every op in it
        print(f"round error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _checked(wl, data) -> int:
    if data is None:
        return wl.ops_per_round()
    try:
        return wl.check(data)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails every op
        print(f"check error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return wl.ops_per_round()


def measure(hc, workload: str, seed: int, seconds: float, sizes: dict | None = None) -> dict:
    """End-to-end metrics of an untraced run.

    Round 0 warms up (first thread pool, first large allocations; a cold
    start is what setup_s measures).  Further rounds repeat until `seconds`
    of their time have passed.  Every round is checked.

    All rounds have the same sizes, so each op position does the same work
    in every round.  Throughput is ops per round over the median round
    time.  An op position's samples (one or more a round, see the
    workload's `position`) reduce to its latency as the workload's LATENCY
    says.  A shared host's speed drifts: for spells of seconds, ops run up
    to 1.8x slower, and in some runs half the rounds are slow.  Where one
    caller runs the ops, nothing but the host comes between an op and its
    cost, so its fastest sample ("floor") is the steadiest estimate; the
    median over rounds spread 0.31 across runs (NOTES.md).  Where threads
    run the ops, an op's latency includes its wait for the other thread,
    which is the program's own behaviour, and the fastest sample would
    report the rounds that happened not to wait, so the median is used.
    """
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    ops = OpLog()
    walls, latencies, digests, failed, rss_kb = [], [], [], 0, None
    with _workdir() as wd:
        wl = WORKLOADS[workload](hc, wd, **(sizes or {}))
        with wl.hooks(ops):
            while len(walls) < 2 or sum(walls[1:]) < seconds:
                ops.new_round()
                with heap_frozen():
                    t0 = time.perf_counter()
                    data = _run_round(wl, round_seed(seed, len(walls)))
                    t1 = time.perf_counter()
                walls.append(t1 - t0)
                latencies.append(ops.latencies)
                if rss_kb is None:
                    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                failed += _checked(wl, data)
                digests.append(wl.digests())
    attempted = len(walls) * wl.ops_per_round()
    timed = latencies[1:]
    samples: dict = {}
    for lat in timed:
        for key, value in lat.items():
            samples.setdefault(wl.position(key), []).append(value)
    reduce = REDUCTIONS[wl.LATENCY]
    typical = [reduce(v) for v in samples.values()] or [math.nan]
    pct = tail_percentile(len(typical))
    metrics = {
        "ops_per_s": wl.ops_per_round() / statistics.median(walls[1:]),
        "op_p50_ms": float(np.median(typical)) * 1e3,
        "op_tail_ms": float(np.percentile(typical, pct)) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    info = {
        "rounds": len(walls),
        "round_s": walls,
        "op_positions": len(typical),
        "op_latency_over_rounds": wl.LATENCY,
        "op_tail_percentile": pct,
        "setup_probes_s": setup,
        "fail_ratio": failed / attempted,
        "report_sha256": digests,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}


def trace_run(hc, workload: str, seed: int, sizes: dict | None = None) -> dict:
    """Per-layer metrics: round 0 untraced, traced, then untraced again.

    The overhead is the traced wall time minus the faster untraced one, so
    a cold first round does not read as negative overhead.
    """
    s = round_seed(seed, 0)
    tracer = Tracer()
    ops, plain_walls, failed = OpLog(), [], 0
    with _workdir() as wd:
        wl = WORKLOADS[workload](hc, wd, **(sizes or {}))
        with wl.hooks(ops):
            for traced_round in (False, True, False):
                ops.new_round()
                if traced_round:
                    with heap_frozen(), tracer.installed(), tracer.span("bench.round") as root:
                        data = traced = _run_round(wl, s)
                else:
                    with heap_frozen():
                        t0 = time.perf_counter()
                        data = _run_round(wl, s)
                        plain_walls.append(time.perf_counter() - t0)
                failed += _checked(wl, data)
    layer = summarize(tracer.spans, root)
    plain_wall = min(plain_walls)
    layer["trace.overhead_s"] = (root.end - root.start) - plain_wall
    if workload == "montecarlo":
        layer["harness.exact_solves"] = traced["bv"].exact_solves if traced else math.nan
        layer["harness.thread_speedup"] = _thread_speedup(hc, wl, s)
    path = os.path.join(_outdir(), f"trace-{workload}-{seed}.json")
    tracer.dump(path)
    return {"metrics": layer, "attempted": 3 * wl.ops_per_round(), "failed": failed,
            "info": {"untraced_wall_s": plain_walls, "spans_file": os.path.relpath(path, ROOT)}}


def _thread_speedup(hc, wl, seed: int) -> float:
    """run_coverage wall time at 1 thread over wall time at 2 threads (Catoni, workload size)."""
    harness = hc.harness
    walls = []
    for threads in (1, wl.THREADS):
        t0 = time.perf_counter()
        harness.run_coverage("catoni", harness.centered_pareto(1.9), 1.5, 0.05, wl.n, wl.reps, seed, threads=threads)
        walls.append(time.perf_counter() - t0)
    return walls[0] / walls[1]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": WORKLOADS[n].name, "why": WORKLOADS[n].why} for n in GATED],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _json_number(value: float):
    """The value, or null where a failed run left nothing to measure (JSON has no NaN)."""
    return value if math.isfinite(value) else None


def result_line(run: dict, trace: bool) -> dict:
    units = {m["name"]: m["unit"] for m in END_TO_END} if not trace else {n: u for n, u, _ in PER_LAYER}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": _json_number(run["metrics"][name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="confirm a claim on inputs not used while writing it; replaces --seed")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    hc = _bootstrap()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seed = args.seed if args.holdout_seed is None else args.holdout_seed
    if args.probe:
        _probe(hc, args.workload, seed)

    print("env: " + json.dumps(environment(hc, seed, args.holdout_seed is not None), sort_keys=True))
    run = trace_run(hc, args.workload, seed) if args.trace else measure(hc, args.workload, seed, args.seconds)
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({n: u for n, u, _ in PER_LAYER})
    for name, value in run["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(f"{args.workload} fail_ratio = {run['failed'] / run['attempted']:.6g} ({run['failed']}/{run['attempted']})")
    print("info: " + json.dumps(run["info"], sort_keys=True))
    print(json.dumps(result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
