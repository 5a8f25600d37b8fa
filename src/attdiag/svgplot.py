"""Minimal self-contained SVG charts.

CSV files are the tested artifacts; these renderings exist so a report
directory is viewable without a plotting stack. Output is deterministic:
no timestamps, no font embedding, fixed palette.
"""

from __future__ import annotations

import math
from pathlib import Path

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#34495e")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(hi - lo):  # a non-finite end, or a span that overflows
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * abs(step):
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


def _share(v: float, lo: float, hi: float) -> float:
    """Where v sits between lo and hi; a span that overflows is halved first."""
    if math.isinf(hi - lo):
        v, lo, hi = 0.5 * v, 0.5 * lo, 0.5 * hi
    return (v - lo) / (hi - lo)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            pad = 1.0 if y_lo == 0 else abs(y_lo) * 0.1
            y_lo, y_hi = y_lo - pad, y_hi + pad
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x: float) -> float:
        return _ML + _share(x, self.x_lo, self.x_hi) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return (_H - _MB) - _share(y, self.y_lo, self.y_hi) * (_H - _MT - _MB)


def _frame(canvas: _Canvas, title: str, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for t in _nice_ticks(canvas.x_lo, canvas.x_hi):
        x = canvas.px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 4}" '
            f'stroke="black"/>'
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(canvas.y_lo, canvas.y_hi):
        y = canvas.py(t)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>'
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>'
    )
    return parts


def _legend(parts: list[str], labels) -> None:
    for i, label in enumerate(labels):
        y = _MT + 14 + 16 * i
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{y}" x2="{_W - _MR - 106}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{_W - _MR - 100}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )


def line_chart(path, x, series: dict, title: str = "", xlabel: str = "",
               ylabel: str = "") -> None:
    """Write a polyline chart; series maps label -> list of y (None = gap)."""
    xs = [float(v) for v in x]
    ys_all = [float(v) for vals in series.values() for v in vals if v is not None]
    if not xs or not ys_all:
        raise ValueError("nothing to plot")
    canvas = _Canvas(min(xs), max(xs), min(ys_all), max(ys_all))
    parts = _frame(canvas, title, xlabel, ylabel)
    for i, (label, vals) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = [
            f"{canvas.px(xv):.1f},{canvas.py(float(yv)):.1f}"
            for xv, yv in zip(xs, vals) if yv is not None
        ]
        if len(points) >= 2:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        for pt in points:
            cx, cy = pt.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
    _legend(parts, series.keys())
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def histogram_chart(path, edges, counts_by_label: dict, title: str = "",
                    xlabel: str = "", ylabel: str = "count") -> None:
    """Write overlaid step histograms from shared bin edges."""
    edges = [float(e) for e in edges]
    peak = max((max(c) if len(c) else 0) for c in counts_by_label.values())
    canvas = _Canvas(edges[0], edges[-1], 0.0, float(peak))
    parts = _frame(canvas, title, xlabel, ylabel)
    for i, (label, counts) in enumerate(counts_by_label.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = [f"{canvas.px(edges[0]):.1f},{canvas.py(0):.1f}"]
        for j, c in enumerate(counts):
            points.append(f"{canvas.px(edges[j]):.1f},{canvas.py(float(c)):.1f}")
            points.append(f"{canvas.px(edges[j + 1]):.1f},{canvas.py(float(c)):.1f}")
        points.append(f"{canvas.px(edges[-1]):.1f},{canvas.py(0):.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    _legend(parts, counts_by_label.keys())
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
