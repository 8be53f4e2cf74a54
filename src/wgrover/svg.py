"""Minimal deterministic SVG line and bar plots.

Just axes, ticks, series, and a small legend: enough to eyeball a curve
against a published figure.  Output is a pure function of the data (fixed
coordinate precision, no ids, no timestamps), so repeated runs produce
byte-identical files.  A plot holds O(pixels) shapes whatever the data
size, each coordinate written by Python's `%` as `%.2f`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
# A line series longer than this is drawn from its M4 aggregate.
MAX_SERIES_POINTS = 4 * PLOT_W
POINT = "%.2f,%.2f "
BAR = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#1f77b4" stroke="black" '
       'stroke-width="0.5"/>\n')


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Roughly `target` round-valued ticks covering [lo, hi], lo < hi."""
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    # a span of a few ulps can leave t + step == t; the count bounds the loop
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + step * 1e-9 and len(ticks) <= 2 * target:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(t: float) -> str:
    if t == int(t) and abs(t) < 1e15:
        return str(int(t))
    return format(t, "g")


def _frame(title: str, xlabel: str, ylabel: str, xlo: float, xhi: float,
           ylo: float, yhi: float):
    """SVG header, frame, ticks and axis labels, with the data-to-pixel maps.

    Returns (parts, px, py); px and py take a float or an array.
    """
    xspan = xhi - xlo if xhi > xlo else 1.0
    yspan = yhi - ylo if yhi > ylo else 1.0

    def px(x):
        return MARGIN_L + (x - xlo) / xspan * PLOT_W

    def py(y):
        return MARGIN_T + PLOT_H - (y - ylo) / yspan * PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" height="{PLOT_H}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _nice_ticks(xlo, xlo + xspan):
        x = px(t)
        parts += [f'<line x1="{x:.2f}" y1="{MARGIN_T + PLOT_H}" x2="{x:.2f}" '
                  f'y2="{MARGIN_T + PLOT_H + 5}" stroke="black"/>',
                  f'<text x="{x:.2f}" y="{MARGIN_T + PLOT_H + 18}" '
                  f'text-anchor="middle">{_tick_label(t)}</text>']
    for t in _nice_ticks(ylo, ylo + yspan, target=5):
        y = py(t)
        parts += [f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                  f'y2="{y:.2f}" stroke="black"/>',
                  f'<text x="{MARGIN_L - 8}" y="{y:.2f}" text-anchor="end" '
                  f'dominant-baseline="middle">{_tick_label(t)}</text>']
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{ylabel}</text>'
    )
    return parts, px, py


def _columns(x: np.ndarray) -> np.ndarray:
    """Index of the first point of each pixel column; x is in pixels and ascends."""
    cols = np.floor(x)
    return np.r_[0, np.flatnonzero(cols[1:] != cols[:-1]) + 1]


def _m4(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the first, last, lowest and highest point of each pixel column of
    x as written (to 0.01 px).  A line through them rasterizes like one through
    every point (M4: Jugel et al., "M4: A Visualization-Oriented Time Series
    Data Aggregation", VLDB 2014).
    """
    starts = _columns(np.round(x, 2))
    keep = np.zeros(len(x), bool)
    keep[starts] = keep[starts[1:] - 1] = keep[-1] = True
    sizes = np.diff(starts, append=len(x))
    for extreme in (np.minimum, np.maximum):
        # the first point of each column equal to its extreme
        hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), sizes))
        keep[hits[np.searchsorted(hits, starts)]] = True
    return keep


def line_plot(
    path: Path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a multi-series line plot; series = [(name, xs, ys), ...].

    xs and ys are float arrays (or sequences), mapped to pixels elementwise.
    """
    series = [(name, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for name, xs, ys in series]
    xlo = float(min(xs.min() for _, xs, _ in series))
    xhi = float(max(xs.max() for _, xs, _ in series))
    ylo = float(min(ys.min() for _, _, ys in series))
    yhi = float(max(ys.max() for _, _, ys in series))
    ypad = 0.05 * (yhi - ylo if yhi > ylo else 1.0)
    parts, px, py = _frame(title, xlabel, ylabel, xlo, xhi, ylo - ypad, yhi + ypad)
    for i, (name, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        x, y = px(xs), py(ys)
        if len(x) > MAX_SERIES_POINTS:
            keep = _m4(x, y)
            x, y = x[keep], y[keep]
        pts = (POINT * len(x) % tuple(np.column_stack([x, y]).ravel().tolist()))[:-1]
        lx, ly = MARGIN_L + PLOT_W - 130, MARGIN_T + 16 + 16 * i
        parts += [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>',
                  f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                  f'stroke="{color}" stroke-width="1.5"/>',
                  f'<text x="{lx + 28}" y="{ly + 4}">{name}</text>']
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def bar_plot(
    path: Path,
    labels: range,
    heights: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a bar plot over a range of integer labels; heights is a float array."""
    heights = np.asarray(heights, dtype=float)
    yhi = float(heights.max()) * 1.05 if len(heights) else 1.0
    xlo, xhi = labels[0] - 0.5, labels[-1] + 0.5
    parts, px, py = _frame(title, xlabel, ylabel, xlo, xhi, 0.0, yhi)
    width = 0.8 / (xhi - xlo) * PLOT_W
    ks = np.asarray(labels, dtype=float)
    if len(ks) > PLOT_W:
        # one bar per pixel column of the bar centres, as tall as its tallest
        starts = _columns(px(ks))
        heights = np.maximum.reduceat(heights, starts)
        xs, width = np.floor(px(ks[starts])), 1.0
    else:
        xs = px(ks - 0.4)
    ys = py(heights)
    bars = np.column_stack([xs, ys, np.full(len(ys), width), MARGIN_T + PLOT_H - ys])
    parts.append((BAR * len(ys) % tuple(bars.ravel().tolist()))[:-1])
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
