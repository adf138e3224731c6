"""The three workloads: what one round runs, how its ops are timed and checked.

A run repeats rounds until its time is up.  Round k draws its inputs from
(seed, k), so a run covers several independent inputs and the same seed
always gives the same inputs.  Each workload defines:

* `run_round(seed)` -- the timed section; returns what the check needs;
* `hooks(ops)` -- thin wrappers that time each op where the op happens
  inside the package (one checkpoint solve, one replication), restored on
  exit; about a microsecond per op against ops of a millisecond or more;
* `check(data)` -- the output check, outside the timed section; returns
  the number of ops that failed it;
* `LATENCY` -- how an op position's latencies over the rounds reduce to
  one: `"floor"` (the fastest sample) where one caller runs the ops,
  `"median"` where threads run them (see `run.measure`);
* `position(key)` -- the op position of the op recorded under `key`;
  ops that do the same work share a position, also within one round.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time

import numpy as np

import reference as ref
from tracer import patched


def round_seed(seed: int, k: int) -> int:
    """The seed of round k, derived so that rounds never share a stream."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class OpLog:
    """Latency of every op of the current round, keyed by the op's position.

    Rounds have the same sizes, so position k of one round does the same
    amount of work as position k of any other.  Optionally calls back at
    the first op of the run.
    """

    def __init__(self, on_first_op=None):
        self.latencies: dict = {}
        self.records: list = []
        self._on_first_op = on_first_op

    def new_round(self) -> None:
        self.latencies, self.records = {}, []

    def begin(self) -> float:
        if self._on_first_op is not None:
            callback, self._on_first_op = self._on_first_op, None
            callback()
        return time.perf_counter()

    def end(self, t0: float, key=None) -> None:
        """Record one op, or one part of the op at position `key`.

        `key` defaults to the next position in call order; parts recorded
        under the same key add up to that op's latency.
        """
        elapsed = time.perf_counter() - t0
        key = len(self.latencies) if key is None else key
        self.latencies[key] = self.latencies.get(key, 0.0) + elapsed

    def take_records(self) -> list:
        out, self.records = self.records, []
        return out


def _sha256(path: str) -> str | None:
    """Digest of a report file; None if the run wrote none."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Stream:
    """README quick start: one caller feeding one centered-Pareto stream."""

    name = "stream"
    why = ("closed loop, one caller: update+interval (Catoni and Dubins-Savage) after every "
           "observation; many small solves with writes between reads")
    P, ALPHA, SHAPE = 1.5, 0.05, 1.9
    LATENCY = "floor"

    def __init__(self, hc, workdir: str, n: int = 1000):
        self.hc = hc
        self.n = n

    def ops_per_round(self) -> int:
        return self.n

    @staticmethod
    def position(key):
        return key

    @contextlib.contextmanager
    def hooks(self, ops: OpLog):
        self.ops = ops
        yield

    def run_round(self, seed: int) -> dict:
        cat, ds, harness, schedules = self.hc.catoni_cs, self.hc.dubins_savage, self.hc.harness, self.hc.schedules
        ops = self.ops
        dist = harness.centered_pareto(self.SHAPE)
        v_p = harness.true_vp(dist, self.P)
        cfg = cat.CatoniConfig(p=self.P, v_p=v_p, alpha=self.ALPHA, schedule=schedules.power_law(1.0, self.P))
        dcfg = ds.DsConfig(p=self.P, v_p=v_p, alpha=self.ALPHA)
        dsched = ds.ds_optimal_schedule(dcfg)
        x = harness.sample_stream(dist, seed, self.n)
        state, dstate = cat.new_state(cfg), ds.DsState(p=self.P)
        cat_iv, ds_iv = [], []
        for v in x.tolist():
            t0 = ops.begin()
            try:
                cat.update(state, v)
                civ = cat.interval(state, cfg)
                ds.ds_update(dstate, dsched, v)
                div = ds.ds_interval(dstate, dcfg)
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                civ = div = None
            ops.end(t0)
            cat_iv.append((civ.lower, civ.upper) if civ else (math.nan, math.nan))
            ds_iv.append((div.lower, div.upper) if div else (math.nan, math.nan))
        return {"x": x, "v_p": v_p, "influence": cfg.influence, "cat": cat_iv, "ds": ds_iv}

    def digests(self) -> dict:
        return {}  # no report file: the stream workload calls the library directly

    def check(self, data: dict) -> int:
        x, v_p, p, alpha = data["x"], data["v_p"], self.P, self.ALPHA
        lam = ref.power_law(x.size, 1.0, p)
        tgt = ref.band(lam, p, v_p, alpha)
        dlam = ref.ds_lambda(x.size, p, v_p, alpha, 1.0)
        centre = np.cumsum(dlam * x) / np.cumsum(dlam)
        radius = ref.ds_radius(dlam, p, v_p, alpha, 1.0)
        failed = 0
        for i, ((lo, hi), (dlo, dhi)) in enumerate(zip(data["cat"], data["ds"])):
            n = i + 1
            ok = ref.endpoints_ok(data["influence"], p, lam[:n], x[:n], tgt[i], lo, hi,
                                  ref.solver_tol(lam[:n], x[:n], None))
            scale = 1e-9 * (abs(centre[i]) + radius[i])
            ok = ok and abs(dlo - (centre[i] - radius[i])) <= scale and abs(dhi - (centre[i] + radius[i])) <= scale
            failed += not ok
        return failed


class Width:
    """The README `width` run at 10^6 with fixed checkpoints, then `lil-check` LIL_RUNS times.

    The lil-check runs draw different streams and solve at the same
    checkpoints, so each checkpoint is one op position sampled LIL_RUNS
    times a round.  Its solves are the small and middle-sized ops that set
    `op_p50_ms` and `op_tail_ms`, and more samples steady their floors.
    """

    name = "width"
    why = ("read-only CLI width and lil-check runs: a few solves over arrays of up to 10^6 "
           "elements, so phi throughput and evaluations per solve dominate")
    LATENCY = "floor"
    LIL_RUNS = 3

    def __init__(self, hc, workdir: str, n: int = 1_000_000, reps: int = 1,
                 checkpoints=(1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000), lil_n: int = 100_000):
        self.hc = hc
        self.workdir = workdir
        self.n, self.reps, self.checkpoints, self.lil_n = n, reps, tuple(checkpoints), lil_n
        self.lil_checkpoints = hc.harness.default_checkpoints(lil_n)

    def ops_per_round(self) -> int:
        return len(self.checkpoints) * self.reps + self.LIL_RUNS * len(self.lil_checkpoints)

    @staticmethod
    def position(key):
        """Ops are keyed (command, run, k); the k-th solve of every run of a command is one position."""
        command, _, k = key
        return command, k

    def _paths(self):
        w = self.workdir
        return os.path.join(w, "width.json"), os.path.join(w, "width.svg")

    def _lil_paths(self, i: int):
        w = self.workdir
        return os.path.join(w, f"lil-{i}.csv"), os.path.join(w, f"lil-{i}.svg")

    @contextlib.contextmanager
    def hooks(self, ops: OpLog):
        self.ops = ops

        def make(original):
            def timed(influence, lam, xs, tgt, root_tol=None):
                t0 = ops.begin()
                lo, hi = original(influence, lam, xs, tgt, root_tol)
                ops.end(t0, (*self._command, len(ops.records)))
                ops.records.append((influence, lam, xs, tgt, root_tol, lo, hi))
                return lo, hi
            return timed

        with patched(self.hc.catoni_cs, "solve_interval_arrays", make):
            yield

    def run_round(self, seed: int) -> dict:
        cli = self.hc.cli
        wpath, wsvg = self._paths()
        self._command = ("width", 0)
        code_w = cli.main([
            "width", "--method", "both", "--dist", "centered_pareto", "--shape", "1.9", "--p", "1.5",
            "--alpha", "0.001", "--n", str(self.n), "--reps", str(self.reps),
            "--checkpoints", ",".join(str(c) for c in self.checkpoints), "--seed", str(seed),
            "--format", "json", "--out", wpath, "--svg", wsvg,
        ])
        width_solves = self.ops.take_records()
        codes, lil_solves = [code_w], []
        for i in range(self.LIL_RUNS):
            lpath, lsvg = self._lil_paths(i)
            self._command = ("lil-check", i)
            codes.append(cli.main([
                "lil-check", "--dist", "gaussian", "--sigma", "1", "--p", "2", "--n", str(self.lil_n),
                "--seed", str(round_seed(seed, i)), "--out", lpath, "--svg", lsvg,
            ]))
            lil_solves.append(self.ops.take_records())
        return {"codes": codes, "width": width_solves, "lil": lil_solves}

    def digests(self) -> dict:
        out = {"width": _sha256(self._paths()[0])}
        out.update({f"lil-check-{i}": _sha256(self._lil_paths(i)[0]) for i in range(self.LIL_RUNS)})
        return out

    def check(self, data: dict) -> int:
        if any(data["codes"]):
            return self.ops_per_round()
        wpath, _ = self._paths()
        with open(wpath, encoding="utf-8") as fh:
            report = json.load(fh)
        failed = self._check_solves(data["width"], 1.5, 0.001, report["summary"]["v_p_catoni"])
        failed += abs(len(data["width"]) + sum(len(s) for s in data["lil"]) - self.ops_per_round())

        v_p = report["summary"]["v_p_ds"]
        dlam = ref.ds_lambda(self.n, 1.5, v_p, 0.001, 1.0)
        radius = ref.ds_radius(dlam, 1.5, v_p, 0.001, 1.0)
        for row in report["rows"]:
            n = row["n"]
            widths = [hi - lo for (_, lam, _, _, _, lo, hi) in data["width"] if lam.size == n]
            failed += len(widths) != self.reps or not math.isclose(row["width_catoni"], float(np.mean(widths)), rel_tol=1e-12)
            failed += not math.isclose(row["width_ds"], 2.0 * radius[n - 1], rel_tol=1e-9)

        lam = ref.power_law(self.lil_n, 1.0, 2.0)
        s1, s2 = np.cumsum(lam), np.cumsum(lam * lam)
        for i, solves in enumerate(data["lil"]):
            failed += self._check_solves(solves, 2.0, 0.05, 1.0)
            with open(self._lil_paths(i)[0], encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            solved = {lam_.size: hi - lo for (_, lam_, _, _, _, lo, hi) in solves}
            for row in rows:
                n = int(row["n"])
                failed += n not in solved or not math.isclose(float(row["width"]), solved[n], rel_tol=1e-12)
                if row["lil_floor"] != "NA":
                    floor = math.sqrt(2.0) * math.sqrt(s2[n - 1] * math.log(math.log(s2[n - 1]))) / s1[n - 1]
                    failed += not math.isclose(float(row["lil_floor"]), floor, rel_tol=1e-9)
        return failed

    @staticmethod
    def _check_solves(solves, p, alpha, v_p) -> int:
        failed = 0
        for influence, lam, xs, tgt, root_tol, lo, hi in solves:
            want = ref.band(lam, p, v_p, alpha)[-1]
            ok = math.isclose(tgt, want, rel_tol=1e-9)
            ok = ok and ref.endpoints_ok(influence, p, lam, xs, tgt, lo, hi, ref.solver_tol(lam, xs, root_tol))
            failed += not ok
        return failed


class MonteCarlo:
    """README `coverage` run plus the bound-validity experiment, both on 2 threads."""

    name = "montecarlo"
    why = ("replications at --threads 2 with no endpoint solves: sampling, phi over cumulative "
           "blocks and threading; a solver-only change should leave it unchanged")
    THREADS = 2
    LATENCY = "median"
    #: Coverage replications per method, and bound-validity replications,
    #: recomputed with the reference in every round's check.
    CHECKED_REPS, CHECKED_BV_REPS = 20, 2

    def __init__(self, hc, workdir: str, n: int = 10_000, reps: int = 1000, bv_n: int = 100_000, bv_reps: int = 20):
        self.hc = hc
        self.workdir = workdir
        self.n, self.reps, self.bv_n, self.bv_reps = n, reps, bv_n, bv_reps

    def ops_per_round(self) -> int:
        return self.reps + self.bv_reps

    @staticmethod
    def position(key):
        return key

    def _path(self) -> str:
        return os.path.join(self.workdir, "coverage.json")

    @contextlib.contextmanager
    def hooks(self, ops: OpLog):
        # Replications are closures inside the harness; the runner that maps
        # them is the only binding where one replication starts and ends.
        # A coverage replication is one stream checked by both methods (the
        # harness draws stream r for each), so its two parts are one op.
        def make(original):
            def timed_reps(fn, reps, threads):
                part = "coverage" if len(ops.records) < 2 else "bound_validity"

                def one(r):
                    t0 = ops.begin()
                    out = fn(r)
                    ops.end(t0, (part, r))
                    return out
                results = original(one, reps, threads)
                ops.records.append(results)
                return results
            return timed_reps

        with patched(self.hc.harness, "_run_reps", make):
            self.ops = ops
            yield

    def run_round(self, seed: int) -> dict:
        harness = self.hc.harness
        code = self.hc.cli.main([
            "coverage", "--method", "both", "--dist", "centered_pareto", "--shape", "1.9", "--p", "1.5",
            "--n", str(self.n), "--reps", str(self.reps), "--threads", str(self.THREADS), "--seed", str(seed),
            "--format", "json", "--out", self._path(),
        ])
        bv = harness.run_bound_validity(harness.gaussian(0.0, 1.0), 2.0, 0.05, self.bv_n, self.bv_reps, seed,
                                        threads=self.THREADS)
        return {"seed": seed, "code": code, "bv": bv, "results": self.ops.take_records()}

    def digests(self) -> dict:
        return {"coverage": _sha256(self._path())}

    def check(self, data: dict) -> int:
        if data["code"] != 0 or len(data["results"]) != 3:
            return self.ops_per_round()
        harness = self.hc.harness
        cov_cat, cov_ds, bv_results = data["results"]
        with open(self._path(), encoding="utf-8") as fh:
            rows = {r["method"]: r for r in json.load(fh)["rows"]}
        seed, failed = data["seed"], 0
        dist = harness.centered_pareto(1.9)
        for method, results in (("catoni", cov_cat), ("ds", cov_ds)):
            failed += len(results) != self.reps or rows[method]["miscoverage_count"] != sum(results)
            v_p = rows[method]["v_p"]
            for r in range(0, self.reps, max(1, self.reps // self.CHECKED_REPS)):
                x = harness.sample_stream(dist, seed, self.n, rep=r)
                failed += ref.coverage_miss(x, 0.0, method, 1.5, v_p, 0.05) != results[r]

        bv = data["bv"]
        failed += bv.exact_solves != sum(k for _, k in bv_results)
        failed += bv.violating_reps != sum(v for v, _ in bv_results)
        cfg = self.hc.catoni_cs.CatoniConfig(p=2.0, v_p=bv.v_p, alpha=0.05,
                                             schedule=self.hc.schedules.power_law(1.0, 2.0))
        bounds, _ = self.hc.catoni_cs.width_bound_curve(cfg, self.bv_n)
        lam = ref.power_law(self.bv_n, 1.0, 2.0)
        tgt = ref.band(lam, 2.0, bv.v_p, 0.05)
        ns = np.unique(np.geomspace(bv.n0, self.bv_n, 4).astype(int))
        gauss = harness.gaussian(0.0, 1.0)
        for r in range(min(self.CHECKED_BV_REPS, self.bv_reps)):
            if bv_results[r][0]:
                continue  # a reported violation is a legitimate outcome of probability <= budget
            x = harness.sample_stream(gauss, seed, self.bv_n, rep=r)
            failed += not all(ref.width_within(2.0, lam[:n], x[:n], tgt[n - 1], 0.0, bounds[n - 1]) for n in ns)
        return failed


WORKLOADS = {w.name: w for w in (Stream, Width, MonteCarlo)}

#: Sizes small enough for the smoke test; every code path still runs.
TINY = {
    "stream": {"n": 60},
    "width": {"n": 3000, "reps": 1, "checkpoints": (100, 1000, 3000), "lil_n": 2000},
    "montecarlo": {"n": 500, "reps": 40, "bv_n": 3000, "bv_reps": 4},
}
