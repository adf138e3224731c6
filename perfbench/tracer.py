"""Outside-in instrumentation: wrap package functions at the binding callers use.

Nothing under src/ is edited.  A wrapper replaces a module attribute or a
class attribute for the duration of a `with` block and is restored on exit,
so the package functions are the originals again afterwards.

Two kinds of wrapper share the same patch/restore helper:

* `Tracer` records one span (name, start, end, parent, thread, size) per
  wrapped call, in memory, for the per-layer breakdown of a traced run.
* Workloads install thin op hooks (see workloads.py) to time their unit of
  work in untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

_MISSING = object()

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least TAIL_MIN_BEYOND samples beyond it (50 at least)."""
    return max(50.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / samples))


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace owner.attr by make_wrapper(original) and restore it on exit.

    The raw attribute is taken from the owner's own __dict__ so the exact
    object (function, method descriptor) is put back.
    """
    original = vars(owner).get(attr, _MISSING)
    if original is _MISSING:
        raise AttributeError(f"{owner!r} has no attribute {attr!r} of its own")
    setattr(owner, attr, make_wrapper(original))
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def trace_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, size-of-call) for every traced binding.

    Each function is wrapped at the name its callers look up: harness
    reaches catoni_cs and dubins_savage through module attributes,
    catoni_cs and influence bind solve_monotone at import, cli binds the
    lower_bound and svg functions at import.  The size callback returns the
    number of elements a call works on (None when not meaningful).
    """
    from heavytail_cs import catoni_cs, cli, dubins_savage, harness, influence, rootfind, schedules

    def arg_size(i):
        def size(args):
            return int(getattr(args[i], "size", 1)) if len(args) > i else None
        return size

    return [
        ("influence.phi", influence.InfluenceFunction, "__call__", arg_size(1)),
        ("rootfind.solve_monotone", catoni_cs, "solve_monotone", None),
        ("rootfind.solve_monotone", influence, "solve_monotone", None),
        ("rootfind.expand_bracket", rootfind, "expand_bracket", None),
        ("rootfind.bisect", rootfind, "bisect", None),
        ("catoni_cs.update", catoni_cs, "update", None),
        ("catoni_cs.interval", catoni_cs, "interval", None),
        ("catoni_cs.arrays", catoni_cs.CatoniState, "arrays", None),
        ("catoni_cs.solve_interval_arrays", catoni_cs, "solve_interval_arrays", arg_size(1)),
        ("catoni_cs.width_bound_curve", catoni_cs, "width_bound_curve", None),
        ("catoni_cs.failure_budget", catoni_cs, "failure_budget", None),
        ("dubins_savage.ds_update", dubins_savage, "ds_update", None),
        ("dubins_savage.ds_interval", dubins_savage, "ds_interval", None),
        ("dubins_savage.ds_radius", dubins_savage, "ds_radius", None),
        ("dubins_savage.ds_optimal_schedule", dubins_savage, "ds_optimal_schedule", None),
        ("dubins_savage.ds_optimal_schedule", cli, "ds_optimal_schedule", None),
        ("schedules.at", schedules.LambdaSchedule, "at", None),
        ("schedules.head", schedules.LambdaSchedule, "head", None),
        ("schedules.push", schedules.PrefixSums, "push", None),
        ("harness.true_vp", harness, "true_vp", None),
        ("harness.sample_stream", harness, "sample_stream", None),
        ("harness.run_coverage", harness, "run_coverage", None),
        ("harness.run_width", harness, "run_width", None),
        ("harness.run_bound_validity", harness, "run_bound_validity", None),
        ("lower_bound.lil_floor_curve", cli, "lil_floor_curve", None),
        ("lower_bound.lil_trace", cli, "lil_trace", None),
        ("svg.line_chart", cli, "line_chart", None),
        ("cli.main", cli, "main", None),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "size")

    def __init__(self, name, start, parent, thread, size):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.size = size


class Tracer:
    """Records spans in memory; one instance per traced run.

    Each thread keeps its own stack of open spans.  A call that starts on a
    worker thread with an empty stack is parented to the span open on the
    thread that created the tracer: the workloads here have a single
    caller, which is blocked in the call that fanned the work out.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one round."""
        sp = self._open(name, None)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name, size) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sp = Span(name, time.perf_counter(), parent, threading.get_ident(), size)
        self.spans.append(sp)
        stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    def wrapper(self, name: str, size_of):
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                sp = self._open(name, size_of(args) if size_of is not None else None)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(sp)
            return traced
        return make

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for name, owner, attr, size_of in trace_targets():
                stack.enter_context(patched(owner, attr, self.wrapper(name, size_of)))
            yield self

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent index, thread, size]."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        rows = [
            [sp.name, sp.start, sp.end, index.get(id(sp.parent)) if sp.parent else None, sp.thread, sp.size]
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "size"], "spans": rows}, fh)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _ancestor(sp: Span, name: str) -> Span | None:
    p = sp.parent
    while p is not None:
        if p.name == name:
            return p
        p = p.parent
    return None


def summarize(spans: list[Span], root: Span) -> dict:
    """Per-layer numbers from one traced round rooted at `root`.

    Self time of a span is its duration minus the union of its children's
    intervals (children from worker threads may overlap).  A layer's self
    time is the sum over its spans.  One f evaluation in the root solver is
    one phi array call, so phi calls under a solve count its f evaluations.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)

    self_s: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        kids = children.get(id(sp), ())
        covered = _union_length([(k.start, k.end) for k in kids], sp.start, sp.end) if kids else 0.0
        self_s[sp.name.split(".", 1)[0]] += (sp.end - sp.start) - covered
        by_name[sp.name].append(sp)

    def total(name):
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    def median_ms(sps):
        return statistics.median(sp.end - sp.start for sp in sps) * 1e3 if sps else 0.0

    phi = by_name.get("influence.phi", [])
    elems = sum(sp.size or 0 for sp in phi)
    solves = by_name.get("rootfind.solve_monotone", [])
    f_evals = sum(1 for sp in phi if _ancestor(sp, "rootfind.solve_monotone") is not None)
    expand_evals = sum(1 for sp in phi if _ancestor(sp, "rootfind.expand_bracket") is not None)
    expands = len(by_name.get("rootfind.expand_bracket", []))
    # expand_bracket evaluates f at both ends, then twice per doubling.
    doublings = (expand_evals - 2 * expands) / 2.0
    wall = root.end - root.start
    top = children.get(id(root), [])

    out = {
        "trace.wall_s": wall,
        "trace.child_coverage_pct": 100.0 * _union_length([(k.start, k.end) for k in top], root.start, root.end) / wall,
        "trace.spans": len(spans),
        "influence.calls": len(phi),
        "influence.elems": elems,
        "influence.ns_per_elem": self_s["influence"] * 1e9 / elems if elems else 0.0,
        "rootfind.solves": len(solves),
        "rootfind.f_evals_per_solve": f_evals / len(solves) if solves else 0.0,
        "rootfind.expansions_per_solve": doublings / len(solves) if solves else 0.0,
        "schedules.at_calls": len(by_name.get("schedules.at", [])),
        "schedules.head_s": total("schedules.head"),
        "catoni_cs.update_us": median_ms(by_name.get("catoni_cs.update", [])) * 1e3,
        "catoni_cs.arrays_s": total("catoni_cs.arrays"),
        "catoni_cs.width_bound_curve_s": total("catoni_cs.width_bound_curve"),
        "catoni_cs.failure_budget_s": total("catoni_cs.failure_budget"),
        "dubins_savage.update_us": median_ms(by_name.get("dubins_savage.ds_update", [])) * 1e3,
        "dubins_savage.interval_us": median_ms(by_name.get("dubins_savage.ds_interval", [])) * 1e3,
        "harness.true_vp_s": total("harness.true_vp"),
        "harness.sample_stream_s": total("harness.sample_stream"),
        "harness.run_coverage_s": total("harness.run_coverage"),
        "harness.run_bound_validity_s": total("harness.run_bound_validity"),
        "lower_bound.floor_curve_s": total("lower_bound.lil_floor_curve"),
        "lower_bound.trace_s": total("lower_bound.lil_trace"),
        "svg.line_chart_s": total("svg.line_chart"),
    }
    for layer in ("influence", "rootfind", "catoni_cs", "dubins_savage", "schedules", "harness",
                  "lower_bound", "svg", "cli", "bench"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    intervals = [sp.end - sp.start for sp in by_name.get("catoni_cs.interval", [])]
    if intervals:
        out["catoni_cs.interval_ms.p50"] = statistics.median(intervals) * 1e3
        pct = tail_percentile(len(intervals))
        out[f"catoni_cs.interval_ms.p{pct:g}"] = float(np.percentile(intervals, pct)) * 1e3
    for label, n in (("n1e4", 10**4), ("n1e5", 10**5), ("n1e6", 10**6)):
        sized = [sp for sp in by_name.get("catoni_cs.solve_interval_arrays", []) if sp.size == n]
        if sized:
            out[f"catoni_cs.solve_ms.{label}"] = median_ms(sized)
    return out
