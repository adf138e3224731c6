"""Minimal static SVG line charts; no plotting dependency.

Good enough for log-log width curves: axes, decade ticks, a few polyline
series with a legend.  Not an interactive UI.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _finite_pairs(xs, ys):
    return [
        (x, y)
        for x, y in zip(xs, ys)
        if x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
    ]


def _ticks(lo: float, hi: float) -> list[float]:
    """The powers of ten in [lo, hi]."""
    return [10.0**e for e in range(math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9) + 1)]


def _log_axis(data: list[float], start: float, span: float):
    """The map of data's range, on a log scale, onto start .. start + span; one value maps to the middle."""
    lo, hi = math.log10(min(data)), math.log10(max(data))
    if hi == lo:
        return lambda v: start + span / 2
    return lambda v: start + (math.log10(v) - lo) / (hi - lo) * span


def _fmt(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    path: str,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a log-log SVG chart of (label, xs, ys) series to `path`.

    Non-finite or None points are dropped per series (so NA bound columns
    simply leave gaps).  Both axes use decade ticks.
    """
    pts = [(label, _finite_pairs(xs, ys)) for label, xs, ys in series]
    pts = [(label, pp) for label, pp in pts if pp]
    if not pts:
        raise ValueError("no finite data to plot")
    allx = [x for _, pp in pts for x, _ in pp]
    ally = [y for _, pp in pts for _, y in pp]
    if min(allx) <= 0 or min(ally) <= 0:
        raise ValueError("log axes need strictly positive data")

    tx = _log_axis(allx, _ML, _W - _ML - _MR)
    ty = _log_axis(ally, _H - _MB, -(_H - _MT - _MB))  # y grows downward
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_MT - 10}" text-anchor="middle">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_H / 2}" text-anchor="middle" transform="rotate(-90 16 {_H / 2})">{ylabel}</text>',
    ]
    for v in _ticks(min(allx), max(allx)):
        if min(allx) <= v <= max(allx):
            x = tx(v)
            out.append(f'<line x1="{x}" y1="{_H - _MB}" x2="{x}" y2="{_H - _MB + 5}" stroke="black"/>')
            out.append(f'<text x="{x}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(v)}</text>')
    for v in _ticks(min(ally), max(ally)):
        if min(ally) <= v <= max(ally):
            y = ty(v)
            out.append(f'<line x1="{_ML - 5}" y1="{y}" x2="{_ML}" y2="{y}" stroke="black"/>')
            out.append(f'<text x="{_ML - 8}" y="{y + 4}" text-anchor="end">{_fmt(v)}</text>')
    for k, (label, pp) in enumerate(pts):
        color = _COLORS[k % len(_COLORS)]
        path_d = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pp)
        out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * k
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 125}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 120}" y="{ly}">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
