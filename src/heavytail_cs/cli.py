"""Command-line front end: coverage / width / lil-check experiments.

Reports are self-describing: every emitted file embeds the resolved
settings its command takes, seed included (CSV as a leading `# config:`
comment line, JSON as a top-level "config" object).  The distribution's
parameters appear only in its `dist` label.  The thread count is an
execution detail, not configuration, and is deliberately not embedded, nor
are the output paths: identical (config, seed) must produce byte-identical
files at any --threads.

Each setting is stated once, in `_OPTIONS`, with its range if it has one.
Flags override `--config` JSON file values, which override the table
defaults; a file value gets its flag's checks (known key, taken by the
command, JSON type, choices), and every resolved value its range.

Exit codes: 0 success, 2 usage or validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import harness
from .dubins_savage import DsConfig, ds_optimal_schedule
from .lower_bound import LilConfig, lil_floor_curve, lil_trace
from .schedules import LambdaSchedule, custom_list, power_law
from .svg import line_chart

_COMMANDS = {
    "coverage": "uniform-in-time miscoverage experiment",
    "width": "interval widths, bounds and shrinkage slope",
    "lil-check": "Catoni width against the iterated-logarithm floor (p = 2)",
}


class _Option(NamedTuple):
    type: type
    default: object
    commands: tuple[str, ...] = tuple(_COMMANDS)
    choices: tuple[str, ...] | None = None
    help: str | None = None
    valid: tuple[str, Callable[[object], bool]] | None = None  # the range's wording and test


#: Each distribution kind: its constructor and its parameters' options in
#: constructor order.  A string option holds comma-separated numbers.
_DISTS = {
    "gaussian": (harness.gaussian, {"mean": _Option(float, 0.0, help="gaussian mean"),
                                    "sigma": _Option(float, 1.0, help="gaussian std dev")}),
    "centered_pareto": (harness.centered_pareto, {"shape": _Option(float, 1.9, help="pareto tail index in (1,2]"),
                                                  "scale": _Option(float, 1.0, help="pareto scale")}),
    "student_t": (harness.student_t, {"df": _Option(float, 1.8, help="student-t degrees of freedom in (1,2]"),
                                      "location": _Option(float, 0.0, help="student-t location")}),
    "two_point": (harness.two_point, {"values": _Option(str, "-1,1", help="two-point values, comma separated"),
                                      "probs": _Option(str, "0.5,0.5", help="two-point probabilities, comma separated")}),
}
_DIST_PARAMS = {key: opt for _, params in _DISTS.values() for key, opt in params.items()}
_AT_LEAST_1, _IN_0_1 = ("be >= 1", lambda v: v >= 1), ("lie in (0, 1)", lambda v: 0.0 < v < 1.0)

#: Every setting: type, default, commands that take it, choices, help, range.  The
#: flag is "--" + key with "_" as "-" and defaults to None, so that a
#: config-file value can be told from an unset flag.
_OPTIONS = {
    "method": _Option(str, "catoni", ("coverage", "width"), ("catoni", "ds", "both")),
    "dist": _Option(str, None, choices=tuple(_DISTS)),
    **_DIST_PARAMS,
    "p": _Option(float, 2.0, help="moment order in (1,2]", valid=("lie in (1, 2]", lambda v: 1.0 < v <= 2.0)),
    "alpha": _Option(float, 0.05, valid=_IN_0_1),
    "n": _Option(int, 10000, help="stream horizon N", valid=_AT_LEAST_1),
    "reps": _Option(int, 100, ("coverage", "width"), help="replications (width: per checkpoint, default 5)",
                    valid=_AT_LEAST_1),
    "seed": _Option(int, None, help="defaults to $HEAVYTAIL_CS_SEED, else 0"),
    "schedule": _Option(str, None, choices=("power_law", "ds_optimal", "custom_list")),
    "schedule_c": _Option(float, 1.0, help="power-law scale c"),
    "schedule_values": _Option(str, None, help="custom schedule values"),
    "t": _Option(float, 0.5, ("width",), help="width-analysis constant t in (0,1)", valid=_IN_0_1),
    "tau": _Option(float, 0.1, ("width",), help="width-analysis constant tau > 0"),
    "b": _Option(float, 1.0, help="Dubins-Savage b > 0"),
    "stride": _Option(int, 1, ("coverage",), help="check every stride-th n", valid=_AT_LEAST_1),
    "threads": _Option(int, 1, help="max parallel replications", valid=_AT_LEAST_1),
    "format": _Option(str, "csv", choices=("csv", "json")),
    "out": _Option(str, None, help="output path (default stdout)"),
    "svg": _Option(str, None, ("width", "lil-check"), help="write a chart of the report here"),
    "checkpoints": _Option(str, None, ("width", "lil-check"), help="comma-separated checkpoint n values"),
    "lil_a": _Option(float, None, ("lil-check",), help="floor constant a in (0, 2*sigma*sqrt(2))"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail-cs",
        description="Anytime-valid confidence sequences for heavy-tailed streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        sp = sub.add_parser(command, help=text, allow_abbrev=False)  # --t must not mean --threads
        for key, opt in _OPTIONS.items():
            if command in opt.commands:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=opt.type,
                                choices=opt.choices, help=opt.help)
        sp.add_argument("--config", type=str, help="JSON config file; flags override it")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """CLI flags override config-file values override the table defaults."""
    from_file: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(from_file).__name__}")
    for key, value in from_file.items():
        _check_file_value(args.command, key, value)
    cfg = {"command": args.command}
    for key, opt in _OPTIONS.items():
        flag = getattr(args, key, None)
        cfg[key] = flag if flag is not None else from_file.get(key, opt.default)
    if args.command == "width" and args.reps is None and "reps" not in from_file:
        cfg["reps"] = 5  # root solves per checkpoint; keep the default run cheap
    source, seed = ("--seed" if args.seed is not None else "config file"), cfg["seed"]
    if seed is None:
        source, seed = "HEAVYTAIL_CS_SEED", os.environ.get("HEAVYTAIL_CS_SEED", "0")
    if not str(seed).strip().isdecimal():
        raise ValueError(f"seed must be a non-negative integer, got {seed!r} ({source})")
    cfg["seed"] = int(seed)
    return cfg


def _check_file_value(command: str, key: str, value) -> None:
    """ValueError naming key unless --key takes value in command; null passes where the default is None."""
    opt = _OPTIONS.get(key)
    if opt is None:
        raise ValueError(f"config file: {key} is not a known setting")
    if command not in opt.commands:
        raise ValueError(f"config file: {key} is not a setting of {command}")
    if value is None and opt.default is None:
        return
    if opt.type is int:
        ok, kind = type(value) is int, "an integer"  # not bool, an int subclass
    elif opt.type is float:
        ok, kind = type(value) in (int, float), "a number"
    else:
        ok, kind = type(value) is str, "a string"
    if not ok:
        raise ValueError(f"config file: {key} must be {kind}, got {json.dumps(value)}")
    if opt.choices and value not in opt.choices:
        raise ValueError(f"config file: {key} must be one of {', '.join(opt.choices)}, got {json.dumps(value)}")


def _validate(cfg: dict) -> None:
    """ValueError without a dist, or naming the first setting of the command outside its range."""
    if cfg["dist"] is None:
        raise ValueError(f"--dist is required (choose one of {', '.join(_DISTS)})")
    for key, opt in _OPTIONS.items():
        if opt.valid and cfg["command"] in opt.commands and not opt.valid[1](cfg[key]):
            raise ValueError(f"{key} must {opt.valid[0]}, got {cfg[key]}")


def _parse_floats(cfg: dict, key: str) -> list[float]:
    """cfg[key] as a comma-separated list of numbers; a ValueError names key."""
    try:
        return [float(v) for v in str(cfg[key]).split(",") if v != ""]
    except ValueError:
        raise ValueError(f"{key} must be comma-separated numbers, got {cfg[key]!r}") from None


def _dist_from(cfg: dict) -> harness.DistributionSpec:
    make, params = _DISTS[cfg["dist"]]
    return make(*(_parse_floats(cfg, key) if opt.type is str else cfg[key] for key, opt in params.items()))


def _schedule_from(cfg: dict, dist: harness.DistributionSpec, method: str) -> LambdaSchedule | None:
    """The schedule `method` runs with: --schedule's kind, else the method's default.

    Catoni's default is the power law at --schedule-c; None leaves
    Dubins-Savage its ds_optimal weights (harness._method_setup).  An
    explicit `ds_optimal` builds the width-optimal weights from the run
    parameters and applies them to whichever methods run, which is how
    matched-schedule comparisons are expressed.
    """
    kind = cfg["schedule"] or ("power_law" if method == harness.CATONI else None)
    if kind is None:
        return None
    if kind == "ds_optimal":
        return ds_optimal_schedule(DsConfig(cfg["p"], harness.true_vp(dist, cfg["p"]), cfg["alpha"], cfg["b"]))
    if kind == "power_law":
        try:
            return power_law(cfg["schedule_c"], cfg["p"])
        except ValueError as exc:
            raise ValueError(f"schedule_c: {exc}") from None
    return custom_list(_parse_floats(cfg, "schedule_values"))


#: Settings a report does not embed: execution detail, output paths, and the
#: distribution's parameters, which its `dist` label carries.
_NOT_EMBEDDED = ("threads", "out", "svg", *_DIST_PARAMS)


def _embedded_config(cfg: dict, dist: harness.DistributionSpec) -> dict:
    """The settings a report embeds; ValueError names a float among them that is not positive and finite."""
    command = cfg["command"]
    out = {k: cfg[k] for k, opt in _OPTIONS.items() if command in opt.commands and k not in _NOT_EMBEDDED}
    for key, value in out.items():
        if isinstance(value, float) and not 0.0 < value < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")
    out.update(command=command, dist=dist.label())
    return out


def _clean(v):
    if v is None or isinstance(v, float) and not math.isfinite(v):
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


def _checkpoints(cfg: dict) -> list[int] | None:
    """The --checkpoints list, or None for harness.default_checkpoints."""
    if not cfg["checkpoints"]:
        return None
    values = _parse_floats(cfg, "checkpoints")
    if not all(v.is_integer() for v in values):
        raise ValueError(f"checkpoints must be integers, got {cfg['checkpoints']!r}")
    return [int(v) for v in values]


def _methods(cfg: dict) -> list[str]:
    return ["catoni", "ds"] if cfg["method"] == "both" else [cfg["method"]]


def _cmd_coverage(cfg: dict) -> int:
    dist = _dist_from(cfg)
    schedules = {m: _schedule_from(cfg, dist, m) for m in _methods(cfg)}
    config = _embedded_config(cfg, dist)
    rows = [
        dataclasses.asdict(harness.run_coverage(
            m, dist, cfg["p"], cfg["alpha"], cfg["n"], cfg["reps"], cfg["seed"],
            schedule=schedule, b=cfg["b"], stride=cfg["stride"], threads=cfg["threads"],
        ))
        for m, schedule in schedules.items()
    ]
    _emit(cfg, rows, list(rows[0]), {}, config)
    return 0


def _cmd_width(cfg: dict) -> int:
    dist = _dist_from(cfg)
    schedules = {m: _schedule_from(cfg, dist, m) for m in _methods(cfg)}
    config = _embedded_config(cfg, dist)
    methods = list(schedules)
    reports = {
        m: harness.run_width(
            m, dist, cfg["p"], cfg["alpha"], cfg["n"], cfg["seed"], _checkpoints(cfg),
            reps=cfg["reps"], schedule=schedule, t=cfg["t"], tau=cfg["tau"], b=cfg["b"],
            threads=cfg["threads"],
        )
        for m, schedule in schedules.items()
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
    _emit(cfg, rows, fields, summary, config)
    if cfg.get("svg"):
        series = [(f"{m} {kind}", [float(n) for n in ns], [r[f"{kind}_{m}"] for r in rows])
                  for m in methods for kind in ("width", "bound")]
        line_chart(series, cfg["svg"], title="interval width vs n", xlabel="n", ylabel="width")
    return 0


def _cmd_lil_check(cfg: dict) -> int:
    if cfg["p"] != 2.0:
        raise ValueError(
            f"lil-check requires p = 2 (the width floor assumes a finite variance), got p = {cfg['p']}"
        )
    dist = _dist_from(cfg)
    sigma = harness.true_std(dist)
    schedule = _schedule_from(cfg, dist, harness.CATONI)
    config = _embedded_config(cfg, dist)
    lil = LilConfig(sigma=sigma, schedule=schedule, a=cfg["lil_a"])
    width_rep = harness.run_width(
        "catoni", dist, 2.0, cfg["alpha"], cfg["n"], cfg["seed"], _checkpoints(cfg),
        schedule=schedule, threads=cfg["threads"],
    )
    floor = lil_floor_curve(lil, cfg["n"])
    trace = lil_trace(dist, schedule, cfg["n"], cfg["seed"])
    rows = [{"n": ck.n, "width": ck.mean_width,
             "lil_floor": None if math.isnan(floor[ck.n - 1]) else float(floor[ck.n - 1]),
             "lil_ratio": None if math.isnan(trace[ck.n - 1]) else float(trace[ck.n - 1])}
            for ck in width_rep.checkpoints]
    # The first checkpoint with a floor from which the width stays at or above
    # every floor; a NaN width fails `>=`, so it disqualifies its checkpoint.
    n0 = None
    for r in reversed(rows):
        if r["lil_floor"] is not None:
            if not r["width"] >= r["lil_floor"]:
                break
            n0 = r["n"]
    summary = {"sigma": sigma, "a": lil.a, "n0_first_checkpoint_floor_below_width": n0}
    _emit(cfg, rows, ["n", "width", "lil_floor", "lil_ratio"], summary, config)
    if cfg.get("svg"):
        ns = [float(r["n"]) for r in rows]
        series = [("catoni width", ns, [r["width"] for r in rows]),
                  ("lil floor", ns, [r["lil_floor"] for r in rows])]
        line_chart(series, cfg["svg"], title="width vs iterated-logarithm floor", xlabel="n", ylabel="width")
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
        return {"coverage": _cmd_coverage, "width": _cmd_width, "lil-check": _cmd_lil_check}[cfg["command"]](cfg)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
