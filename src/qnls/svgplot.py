"""Minimal self-contained SVG log-log line plots (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo: float, hi: float) -> list[float]:
    step = 10.0 ** math.floor(math.log10(hi - lo))
    if (hi - lo) / step < 2:
        step /= 2
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def line_plot(path, series: dict[str, tuple[list, list]], title: str = "",
              xlabel: str = "", ylabel: str = ""):
    """Write an SVG with one polyline per named (xs, ys) series of positive
    values, on log10 axes."""
    width, height, margin = 640, 420, 60
    pts = {}
    for name, (xs, ys) in series.items():
        pts[name] = ([math.log10(x) for x in xs], [math.log10(y) for y in ys])
    all_x = [x for xs, _ in pts.values() for x in xs]
    all_y = [y for _, ys in pts.values() for y in ys]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for tx in _ticks(x0, x1):
        out.append(f'<line x1="{sx(tx):.1f}" y1="{height-margin}" x2="{sx(tx):.1f}" '
                   f'y2="{margin}" stroke="#eee"/>')
        out.append(f'<text x="{sx(tx):.1f}" y="{height-margin+16}" text-anchor="middle" '
                   f'font-size="10">1e{tx:g}</text>')
    for ty in _ticks(y0, y1):
        out.append(f'<line x1="{margin}" y1="{sy(ty):.1f}" x2="{width-margin}" '
                   f'y2="{sy(ty):.1f}" stroke="#eee"/>')
        out.append(f'<text x="{margin-6}" y="{sy(ty):.1f}" text-anchor="end" '
                   f'font-size="10">1e{ty:g}</text>')
    out.append(f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
               f'height="{height-2*margin}" fill="none" stroke="#888"/>')
    for i, (name, (xs, ys)) in enumerate(pts.items()):
        color = _COLORS[i % len(_COLORS)]
        path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{width-margin-4}" y="{margin+14+14*i}" text-anchor="end" '
                   f'font-size="11" fill="{color}">{name}</text>')
    out.append(f'<text x="{width/2}" y="{height-12}" text-anchor="middle" font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{height/2}" font-size="12" transform="rotate(-90 16 {height/2})" '
               f'text-anchor="middle">{ylabel}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
