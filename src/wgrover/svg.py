"""Minimal deterministic SVG line and bar plots.

Just axes, ticks, series, and a small legend: enough to eyeball a curve
against a published figure.  Output is a pure function of the data (fixed
coordinate precision, no ids, no timestamps), so repeated runs produce
byte-identical files.  A plot holds O(pixels) shapes whatever the data
size: a long line series is reduced by M4, and many bars to each pixel
column's tallest, in one pass over blocks of points that end at column
boundaries, so the temporaries stay at a block's size whatever the length.

Polyline vertices are written byte-exact with Python's `"%.2f,%.2f "` from
arrays, not one `%` per number.  For a coordinate v in [0, 1000), the
integer n that v * 100 rounds to has digits and a separator that fill one
8-byte word ("ddd.dd," with zero bytes for the leading zeros); one
`bytes.translate` drops the zero bytes.  With p = fl(v * 100), the offset
d = (p - floor p) - 1/2 is exact, and when it is not 0 it is a multiple of
ulp(p), larger than the product's rounding error, so its sign alone decides
n.  Where d == 0 the error's sign does, from Dekker's TwoProduct (as in
`numtext`), and an exact tie goes to even, as `%` rounds.  A series of at
most SMALL_COORDS numbers, or one holding a negative or NaN coordinate or one
that prints past "999.99", goes through `%` whole.
"""

from __future__ import annotations

import math
from functools import cache
from pathlib import Path

import numpy as np

from .numtext import _split

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
# A line series longer than this is drawn from its M4 aggregate.
MAX_SERIES_POINTS = 4 * PLOT_W
# M4 and the bar reduction map a long series this many points at a time
# (more only for a pixel column wider than a block).
BLOCK_POINTS = 2**16
POINT = "%.2f,%.2f "
# Series of at most this many numbers are written by `%` whole, below the
# array path's fixed cost.
SMALL_COORDS = 160
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


def _take(xs, lo, hi=None) -> np.ndarray:
    """xs[lo:hi] as floats, or xs[lo] for an index array lo; a range is not built whole."""
    if not isinstance(xs, range):
        return xs[lo] if hi is None else xs[lo:hi]
    i = np.array(lo, dtype=float) if hi is None else np.arange(lo, min(hi, len(xs)), dtype=float)
    i *= xs.step
    i += xs.start
    return i


def _column_blocks(xs, column) -> list[tuple[int, int, np.ndarray]]:
    """(lo, hi, starts) of each block of points lo..hi-1 of xs, with the index
    in the block of the first point of each pixel column floor(column(xs)),
    xs ascending.  A block ends at a column boundary, so no column is split.
    """
    blocks, lo, size = [], 0, BLOCK_POINTS
    while lo < len(xs):
        hi = min(lo + size, len(xs))
        cols = np.floor(column(_take(xs, lo, hi)))
        starts = np.r_[0, np.flatnonzero(cols[1:] != cols[:-1]) + 1]
        if hi < len(xs):
            if len(starts) == 1:
                # one column wider than the block: look further
                size *= 2
                continue
            hi, starts = lo + int(starts[-1]), starts[:-1]
        blocks.append((lo, hi, starts))
        lo, size = hi, BLOCK_POINTS
    return blocks


def _m4(ys: np.ndarray, py, blocks) -> np.ndarray:
    """Indices of the first, last, lowest and highest point of each pixel column
    of blocks (_column_blocks), the pixel rows py(ys) mapped a block at a time.
    A line through them rasterizes like one through every point (M4: Jugel et
    al., "M4: A Visualization-Oriented Time Series Data Aggregation", VLDB 2014).
    """
    kept = []
    for lo, hi, starts in blocks:
        y = py(ys[lo:hi])
        keep = np.zeros(hi - lo, bool)
        keep[starts] = keep[starts[1:] - 1] = keep[-1] = True
        sizes = np.diff(starts, append=hi - lo)
        for extreme in (np.minimum, np.maximum):
            # the first point of each column equal to its extreme
            hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), sizes))
            keep[hits[np.searchsorted(hits, starts)]] = True
        kept.append(np.flatnonzero(keep) + lo)
    return np.concatenate(kept)


def _percent(flat: np.ndarray) -> str:
    """The vertices' text by `%`, from their coordinates (x0, y0, x1, y1, ...)."""
    return (POINT * (len(flat) // 2) % tuple(flat.tolist()))[:-1]


@cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """The words of "ddd." by n // 100 (no leading zeros), of "dd" by n % 100,
    and of the separators "," and " "; zero bytes elsewhere."""
    tables = (b"".join((b"%d." % i).rjust(4, b"\0").ljust(8, b"\0") for i in range(1000)),
              b"".join(b"\0\0\0\0%02d\0\0" % i for i in range(100)),
              b"\0\0\0\0\0\0,\0\0\0\0\0\0\0 \0")
    return tuple(np.frombuffer(t, np.uint64) for t in tables)


def _points(x: np.ndarray, y: np.ndarray) -> str:
    """The vertices' text, byte-exact with `(POINT * len(x) % (x0, y0, ...))[:-1]`."""
    flat = np.column_stack([x, y]).ravel()
    if len(flat) <= SMALL_COORDS or not (flat < 1000.0).all() or np.signbit(flat).any():
        return _percent(flat)
    p = flat * 100.0
    whole = np.floor(p)
    # half is exact, and unless 0 it outweighs p's rounding error
    half = (p - whole) - 0.5
    n = whole.astype(np.int64) + (half > 0.0)
    tie = np.flatnonzero(half == 0.0)
    if len(tie):
        # flat * 100 == p + e exactly (Dekker's TwoProduct; 100 is its own high half)
        hi, lo = _split(flat[tie])
        e = (hi * 100.0 - p[tie]) + lo * 100.0
        n[tie] += (e > 0.0) | ((e == 0.0) & (n[tie] % 2 == 1))
    if n.max() >= 100_000:
        return _percent(flat)
    units, cents, seps = _digit_words()
    words = units.take(n // 100) | cents.take(n % 100)
    np.bitwise_or(words.reshape(-1, 2), seps, out=words.reshape(-1, 2))
    return words.tobytes().translate(None, b"\0").decode()[:-1]


def line_plot(
    path: Path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a multi-series line plot; series = [(name, xs, ys), ...].

    xs and ys are float arrays (or sequences), mapped to pixels elementwise;
    an xs range is never built whole.  Series with one xs object share its
    pixel columns.
    """
    series = [(name, xs if isinstance(xs, range) else np.asarray(xs, dtype=float),
               np.asarray(ys, dtype=float)) for name, xs, ys in series]
    xends = [v for _, xs, _ in series
             for v in ((xs[0], xs[-1]) if isinstance(xs, range) else (xs.min(), xs.max()))]
    xlo, xhi = float(min(xends)), float(max(xends))
    ylo = float(min(ys.min() for _, _, ys in series))
    yhi = float(max(ys.max() for _, _, ys in series))
    ypad = 0.05 * (yhi - ylo if yhi > ylo else 1.0)
    parts, px, py = _frame(title, xlabel, ylabel, xlo, xhi, ylo - ypad, yhi + ypad)
    blocks = {}
    for i, (name, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        if len(xs) > MAX_SERIES_POINTS:
            if id(xs) not in blocks:
                blocks[id(xs)] = _column_blocks(xs, lambda v: np.round(px(v), 2))
            keep = _m4(ys, py, blocks[id(xs)])
            x, y = px(_take(xs, keep)), py(ys[keep])
        else:
            x, y = px(_take(xs, 0, len(xs))), py(ys)
        pts = _points(x, y)
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
    if len(labels) > PLOT_W:
        # each pixel column floor(px(label)) draws its tallest bar
        blocks = _column_blocks(labels, px)
        xs = np.floor(px(_take(labels, np.concatenate([lo + s for lo, _, s in blocks]))))
        heights = np.concatenate([np.maximum.reduceat(heights[lo:hi], s) for lo, hi, s in blocks])
        width = 1.0
    else:
        xs, width = px(_take(labels, 0, len(labels)) - 0.4), 0.8 / (xhi - xlo) * PLOT_W
    ys = py(heights)
    bars = np.column_stack([xs, ys, np.full(len(ys), width), MARGIN_T + PLOT_H - ys])
    parts.append((BAR * len(ys) % tuple(bars.ravel().tolist()))[:-1])
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
