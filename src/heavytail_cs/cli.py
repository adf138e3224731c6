"""Command-line front end: coverage / width / lil-check experiments.

Reports are self-describing: every emitted file embeds the fully resolved
run configuration and seed (CSV as a leading `# config:` comment line,
JSON as a top-level "config" object).  The thread count is an execution
detail, not configuration, and is deliberately not embedded: identical
(config, seed) must produce byte-identical files at any --threads.

Exit codes: 0 success, 2 usage or validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import harness
from .dubins_savage import DsConfig, ds_optimal_schedule
from .lower_bound import LilConfig, lil_floor_curve, lil_trace
from .schedules import LambdaSchedule, custom_list, power_law
from .svg import line_chart

_HARD_DEFAULTS = {
    "method": "catoni",
    "dist": None,
    "mean": 0.0,
    "sigma": 1.0,
    "shape": 1.9,
    "scale": 1.0,
    "df": 1.8,
    "location": 0.0,
    "values": "-1,1",
    "probs": "0.5,0.5",
    "p": 2.0,
    "alpha": 0.05,
    "n": 10000,
    "reps": 100,
    "seed": None,
    "schedule": None,
    "schedule_c": 1.0,
    "schedule_values": None,
    "t": 0.5,
    "tau": 0.1,
    "b": 1.0,
    "stride": 1,
    "threads": 1,
    "format": "csv",
    "out": None,
    "svg": None,
    "checkpoints": None,
    "lil_a": None,
}

#: Keys whose config-file value must be a JSON integer or a JSON number; the
#: rest take strings.  argparse gives the flags the same types.
_INT_KEYS = {"n", "reps", "stride", "threads", "seed"}
_NUMBER_KEYS = {"mean", "sigma", "shape", "scale", "df", "location", "p", "alpha", "schedule_c", "t", "tau", "b",
                "lil_a"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail-cs",
        description="Anytime-valid confidence sequences for heavy-tailed streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_method=True):
        if with_method:
            sp.add_argument("--method", choices=["catoni", "ds", "both"])
        sp.add_argument("--dist", choices=["gaussian", "centered_pareto", "student_t", "two_point"], required=True)
        sp.add_argument("--mean", type=float, help="gaussian mean")
        sp.add_argument("--sigma", type=float, help="gaussian std dev")
        sp.add_argument("--shape", type=float, help="pareto tail index in (1,2]")
        sp.add_argument("--scale", type=float, help="pareto scale")
        sp.add_argument("--df", type=float, help="student-t degrees of freedom in (1,2]")
        sp.add_argument("--location", type=float, help="student-t location")
        sp.add_argument("--values", type=str, help="two-point values, comma separated")
        sp.add_argument("--probs", type=str, help="two-point probabilities, comma separated")
        sp.add_argument("--p", type=float, help="moment order in (1,2]")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--n", type=int, help="stream horizon N")
        sp.add_argument("--seed", type=int, help="defaults to $HEAVYTAIL_CS_SEED, else 0")
        sp.add_argument("--schedule", choices=["power_law", "ds_optimal", "custom_list"])
        sp.add_argument("--schedule-c", dest="schedule_c", type=float, help="power-law scale c")
        sp.add_argument("--schedule-values", dest="schedule_values", type=str, help="custom schedule values")
        sp.add_argument("--t", type=float, help="width-analysis constant t in (0,1)")
        sp.add_argument("--tau", type=float, help="width-analysis constant tau > 0")
        sp.add_argument("--b", type=float, help="Dubins-Savage b > 0")
        sp.add_argument("--threads", type=int, help="max parallel replications")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--out", type=str, help="output path (default stdout)")
        sp.add_argument("--config", type=str, help="JSON config file; flags override it")

    cov = sub.add_parser("coverage", help="uniform-in-time miscoverage experiment")
    add_common(cov)
    cov.add_argument("--reps", type=int, help="replications R")
    cov.add_argument("--stride", type=int, help="check every stride-th n")

    wid = sub.add_parser("width", help="interval widths, bounds and shrinkage slope")
    add_common(wid)
    wid.add_argument("--reps", type=int, help="replications per checkpoint")
    wid.add_argument("--checkpoints", type=str, help="comma-separated checkpoint n values")
    wid.add_argument("--svg", type=str, help="write a log-log width chart here")

    lil = sub.add_parser("lil-check", help="Catoni width against the iterated-logarithm floor (p = 2)")
    add_common(lil, with_method=False)
    lil.add_argument("--checkpoints", type=str, help="comma-separated checkpoint n values")
    lil.add_argument("--lil-a", dest="lil_a", type=float, help="floor constant a in (0, 2*sigma*sqrt(2))")
    lil.add_argument("--svg", type=str, help="write a width-vs-floor chart here")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """CLI flags override config-file values override hard defaults."""
    from_file: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(from_file).__name__}")
    cfg = {}
    for key, hard in _HARD_DEFAULTS.items():
        cli_val = getattr(args, key, None)
        cfg[key] = cli_val if cli_val is not None else from_file.get(key, hard)
        if key in from_file:
            _check_file_value(key, from_file[key])
    cfg["command"] = args.command
    if args.command == "width" and getattr(args, "reps", None) is None and "reps" not in from_file:
        cfg["reps"] = 5  # root solves per checkpoint; keep the default run cheap
    if cfg["seed"] is None:
        cfg["seed"] = int(os.environ.get("HEAVYTAIL_CS_SEED", "0"))
    return cfg


def _check_file_value(key: str, value) -> None:
    """ValueError naming key unless value has the JSON type key takes (or is null where the default is None)."""
    if key in _INT_KEYS:
        ok, kind = type(value) is int, "an integer"  # not bool, an int subclass
    elif key in _NUMBER_KEYS:
        ok, kind = type(value) in (int, float), "a number"
    else:
        ok, kind = type(value) is str, "a string"
    if not ok and not (value is None and _HARD_DEFAULTS[key] is None):
        raise ValueError(f"config file: {key} must be {kind}, got {json.dumps(value)}")


def _validate(cfg: dict) -> None:
    if cfg["dist"] is None:
        raise ValueError("dist is required (choose gaussian, centered_pareto, student_t or two_point)")
    if not 1.0 < cfg["p"] <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {cfg['p']}")
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {cfg['alpha']}")
    if cfg["n"] < 1:
        raise ValueError(f"n must be >= 1, got {cfg['n']}")
    if cfg.get("reps", 1) < 1:
        raise ValueError(f"reps must be >= 1, got {cfg['reps']}")
    if cfg.get("stride", 1) < 1:
        raise ValueError(f"stride must be >= 1, got {cfg['stride']}")
    if cfg["threads"] < 1:
        raise ValueError(f"threads must be >= 1, got {cfg['threads']}")


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in str(text).split(",") if v != ""]


def _dist_from(cfg: dict) -> harness.DistributionSpec:
    kind = cfg["dist"]
    if kind == "gaussian":
        return harness.gaussian(cfg["mean"], cfg["sigma"])
    if kind == "centered_pareto":
        return harness.centered_pareto(cfg["shape"], cfg["scale"])
    if kind == "student_t":
        return harness.student_t(cfg["df"], cfg["location"])
    return harness.two_point(_parse_floats(cfg["values"]), _parse_floats(cfg["probs"]))


def _schedule_from(cfg: dict, dist: harness.DistributionSpec) -> LambdaSchedule | None:
    """None means each method keeps its own default schedule.

    An explicit `ds_optimal` builds the width-optimal weights from the run
    parameters and applies them to whichever methods run, which is how
    matched-schedule comparisons are expressed.
    """
    kind = cfg["schedule"]
    if kind is None:
        return None
    if kind == "ds_optimal":
        dcfg = DsConfig(p=cfg["p"], v_p=harness.true_vp(dist, cfg["p"]),
                        alpha=cfg["alpha"], b=cfg["b"])
        return ds_optimal_schedule(dcfg)
    if kind == "power_law":
        return power_law(cfg["schedule_c"], cfg["p"])
    if not cfg["schedule_values"]:
        raise ValueError("schedule_values is required for a custom_list schedule")
    return custom_list(_parse_floats(cfg["schedule_values"]), p=cfg["p"])


def _embedded_config(cfg: dict, dist: harness.DistributionSpec) -> dict:
    keep = ["command", "method", "p", "alpha", "n", "reps", "seed", "t", "tau", "b",
            "stride", "format", "schedule", "schedule_c", "schedule_values",
            "checkpoints", "lil_a"]
    out = {k: cfg[k] for k in keep if k in cfg}
    out["dist"] = dist.label()
    return out


def _clean(v):
    if v is None:
        return None
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _write_csv(stream, rows: list[dict], fields: list[str], config: dict) -> None:
    stream.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        rendered = []
        for f in fields:
            v = _clean(row.get(f))
            if v is None:
                rendered.append("NA")
            elif isinstance(v, bool):
                rendered.append("true" if v else "false")
            elif isinstance(v, float):
                rendered.append(repr(v))
            else:
                rendered.append(str(v))
        writer.writerow(rendered)


def _emit(cfg: dict, rows: list[dict], fields: list[str], summary: dict, config: dict) -> None:
    if cfg["format"] == "json":
        doc = {
            "config": config,
            "rows": [{k: _clean(r.get(k)) for k in fields} for r in rows],
            "summary": {k: _clean(v) for k, v in summary.items()},
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        _write_csv(buf, rows, fields, config)
        if summary:
            buf.write("# summary: " + json.dumps({k: _clean(v) for k, v in summary.items()}, sort_keys=True) + "\n")
        text = buf.getvalue()
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _methods(cfg: dict) -> list[str]:
    return ["catoni", "ds"] if cfg["method"] == "both" else [cfg["method"]]


def _cmd_coverage(cfg: dict) -> int:
    dist = _dist_from(cfg)
    schedule = _schedule_from(cfg, dist)
    rows = []
    for method in _methods(cfg):
        rep = harness.run_coverage(
            method, dist, cfg["p"], cfg["alpha"], cfg["n"], cfg["reps"], cfg["seed"],
            schedule=schedule, t=cfg["t"], tau=cfg["tau"], b=cfg["b"],
            stride=cfg["stride"], threads=cfg["threads"],
        )
        rows.append(
            {
                "method": method,
                "dist": rep.dist,
                "p": rep.p,
                "alpha": rep.alpha,
                "v_p": rep.v_p,
                "n": rep.n_max,
                "reps": rep.reps,
                "stride": rep.stride,
                "miscoverage_count": rep.miscoverage_count,
                "miscoverage_rate": rep.miscoverage_rate,
                "mc_std_err": rep.mc_std_err,
            }
        )
    fields = list(rows[0].keys())
    _emit(cfg, rows, fields, {}, _embedded_config(cfg, dist))
    return 0


def _cmd_width(cfg: dict) -> int:
    dist = _dist_from(cfg)
    schedule = _schedule_from(cfg, dist)
    checkpoints = [int(v) for v in _parse_floats(cfg["checkpoints"])] if cfg["checkpoints"] else None
    methods = _methods(cfg)
    reports = {
        m: harness.run_width(
            m, dist, cfg["p"], cfg["alpha"], cfg["n"], cfg["seed"], checkpoints,
            reps=cfg["reps"], schedule=schedule, t=cfg["t"], tau=cfg["tau"], b=cfg["b"],
            threads=cfg["threads"],
        )
        for m in methods
    }
    ns = [ck.n for ck in next(iter(reports.values())).checkpoints]
    rows = []
    for j, n in enumerate(ns):
        row: dict = {"n": n}
        for m in methods:
            ck = reports[m].checkpoints[j]
            row[f"width_{m}"] = ck.mean_width
            row[f"bound_{m}"] = ck.bound
            row[f"condition_{m}"] = ck.condition
        rows.append(row)
    fields = ["n"] + [f"{kind}_{m}" for m in methods for kind in ("width", "bound", "condition")]
    summary = {f"slope_{m}": reports[m].slope for m in methods}
    summary.update({f"v_p_{m}": reports[m].v_p for m in methods})
    config = _embedded_config(cfg, dist)
    _emit(cfg, rows, fields, summary, config)
    if cfg.get("svg"):
        series = []
        for m in methods:
            series.append((f"{m} width", [float(n) for n in ns], [r[f"width_{m}"] for r in rows]))
            series.append((f"{m} bound", [float(n) for n in ns], [r[f"bound_{m}"] for r in rows]))
        line_chart(series, cfg["svg"], title="interval width vs n", xlabel="n", ylabel="width")
    return 0


def _cmd_lil_check(cfg: dict) -> int:
    if cfg["p"] != 2.0:
        raise ValueError(
            f"lil-check requires p = 2 (the width floor assumes a finite variance), got p = {cfg['p']}"
        )
    dist = _dist_from(cfg)
    sigma = harness.true_std(dist)
    schedule = _schedule_from(cfg, dist) or power_law(cfg["schedule_c"], 2.0)
    lil = LilConfig(sigma=sigma, schedule=schedule, a=cfg["lil_a"])
    checkpoints = (
        [int(v) for v in _parse_floats(cfg["checkpoints"])]
        if cfg["checkpoints"]
        else harness.default_checkpoints(cfg["n"])
    )
    width_rep = harness.run_width(
        "catoni", dist, 2.0, cfg["alpha"], cfg["n"], cfg["seed"], checkpoints,
        schedule=schedule, t=cfg["t"], tau=cfg["tau"], threads=cfg["threads"],
    )
    floor = lil_floor_curve(lil, cfg["n"])
    trace = lil_trace(dist, schedule, cfg["n"], cfg["seed"])["ratio"]
    rows = []
    for ck in width_rep.checkpoints:
        fl = floor[ck.n - 1]
        rows.append(
            {
                "n": ck.n,
                "width": ck.mean_width,
                "lil_floor": None if math.isnan(fl) else float(fl),
                "lil_ratio": None if math.isnan(trace[ck.n - 1]) else float(trace[ck.n - 1]),
            }
        )
    n0 = None
    for j in range(len(rows)):
        fl = rows[j]["lil_floor"]
        if fl is not None and all(
            r["lil_floor"] is None or r["width"] >= r["lil_floor"] for r in rows[j:]
        ) and rows[j]["width"] >= fl:
            n0 = rows[j]["n"]
            break
    summary = {"sigma": sigma, "a": lil.a, "n0_first_checkpoint_floor_below_width": n0}
    config = _embedded_config(cfg, dist)
    _emit(cfg, rows, ["n", "width", "lil_floor", "lil_ratio"], summary, config)
    if cfg.get("svg"):
        ns = [float(r["n"]) for r in rows]
        line_chart(
            [
                ("catoni width", ns, [r["width"] for r in rows]),
                ("lil floor", ns, [r["lil_floor"] for r in rows]),
            ],
            cfg["svg"],
            title="width vs iterated-logarithm floor",
            xlabel="n",
            ylabel="width",
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _resolve(args)
        _validate(cfg)
        if cfg["command"] == "coverage":
            return _cmd_coverage(cfg)
        if cfg["command"] == "width":
            return _cmd_width(cfg)
        return _cmd_lil_check(cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
