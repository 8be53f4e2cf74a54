"""Minimal deterministic SVG line and bar plots.

Just axes, ticks, series, and a small legend: enough to eyeball a curve
against a published figure.  Output is a pure function of the data (fixed
coordinate precision, no ids, no timestamps), so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import numtext

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
POINT = "%.2f,%.2f "
BAR = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#1f77b4" stroke="black" '
       'stroke-width="0.5"/>\n')


def _num(x: float) -> str:
    return format(x, ".2f")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Roughly `target` round-valued ticks covering [lo, hi]."""
    if hi <= lo:
        # past 2^53 a span of 1.0 is lost to rounding
        hi = lo + max(1.0, math.ulp(lo))
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
        parts.append(
            f'<line x1="{_num(x)}" y1="{MARGIN_T + PLOT_H}" x2="{_num(x)}" '
            f'y2="{MARGIN_T + PLOT_H + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_num(x)}" y="{MARGIN_T + PLOT_H + 18}" '
            f'text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in _nice_ticks(ylo, ylo + yspan, target=5):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_num(y)}" x2="{MARGIN_L}" '
            f'y2="{_num(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_num(y)}" text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(t)}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{ylabel}</text>'
    )
    return parts, px, py


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
    all_x = np.concatenate([xs for _, xs, _ in series])
    all_y = np.concatenate([ys for _, _, ys in series])
    xlo, xhi = float(all_x.min()), float(all_x.max())
    ylo, yhi = float(all_y.min()), float(all_y.max())
    ypad = 0.05 * (yhi - ylo if yhi > ylo else 1.0)
    parts, px, py = _frame(title, xlabel, ylabel, xlo, xhi, ylo - ypad, yhi + ypad)
    # all series in one pass; the text of each point ends in its only space
    text = b"".join(numtext.format_rows(POINT, px(all_x), py(all_y)))
    starts = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(" ")) + 1
    bounds = np.concatenate([[0], starts])[np.cumsum([0] + [len(xs) for _, xs, _ in series])]
    for i, (name, _, _) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = text[bounds[i]:bounds[i + 1] - 1].decode("ascii")
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx, ly = MARGIN_L + PLOT_W - 130, MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def bar_plot(
    path: Path,
    labels: list[int],
    heights: list[float],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a bar plot over integer labels; heights is a float array or sequence."""
    heights = np.asarray(heights, dtype=float)
    yhi = float(heights.max()) * 1.05 if len(heights) else 1.0
    xlo, xhi = labels[0] - 0.5, labels[-1] + 0.5
    parts, px, py = _frame(title, xlabel, ylabel, xlo, xhi, 0.0, yhi)
    # the span px divides by; labels past 2^53 can round to one x
    width = 0.8 / (xhi - xlo if xhi > xlo else 1.0) * PLOT_W
    ys = py(heights)
    bars = numtext.format_rows(BAR, px(np.asarray(labels) - 0.4), ys, np.full(len(ys), width),
                               MARGIN_T + PLOT_H - ys)
    parts.append(b"".join(bars)[:-1].decode("ascii"))
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
