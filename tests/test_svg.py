"""Plots hold O(pixels) shapes: reduced series must rasterize like the full ones.

A line series longer than `svg.MAX_SERIES_POINTS` keeps only the first,
last, lowest and highest point of each pixel column (M4).  The oracle here
is a numpy rasterizer: it finds, per pixel column, the lowest and highest
pixel row a polyline touches, and the reduced polyline of a written SVG
must touch exactly the rows of the full one.  The full polyline is the same
plot written with the reduction switched off, so both carry the same
two-decimal coordinates.

The vertex text is written from arrays; Python's `POINT % (x0, y0, ...)` is
its exact oracle.  No coordinate goes to `%` on its own: only a short
series, or one holding a negative, a NaN or a value that prints past
"999.99", goes to `%`, whole.
"""

import contextlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgrover import svg
from wgrover.amplitudes import MAX_ENTRIES
from wgrover.cli import main

UNIFORM4 = '{"kind":"uniform","n":4}'


def polylines(path):
    """The (x, y) vertices of each polyline of an SVG file, in pixels."""
    text = path.read_text()
    return [np.array(pts.replace(",", " ").split(), float).reshape(-1, 2)
            for pts in re.findall(r'<polyline points="([^"]*)"', text)]


def covered_rows(points):
    """Per pixel column from the first vertex's to the last's, the lowest and
    highest pixel row the polyline touches.

    Vertices have two decimals, so in hundredths of a pixel they are integers
    and the row where a segment crosses a column edge is floored exactly.
    The path ascends in x, so within a column it is connected and its rows
    run from the lowest touched to the highest.
    """
    x, y = np.rint(points * 100).T.astype(np.int64)
    cols = x // 100
    edges = np.arange(cols[0] + 1, cols[-1] + 1) * 100
    i = np.searchsorted(x, edges)  # first vertex at or right of each edge
    x0, y0, x1, y1 = x[i - 1], y[i - 1], x[i], y[i]
    crossing = (y0 * (x1 - x0) + (y1 - y0) * (edges - x0)) // (100 * (x1 - x0))
    # each vertex marks its column; each crossing both columns at its edge
    at = np.concatenate([cols, edges // 100 - 1, edges // 100]) - cols[0]
    rows = np.concatenate([y // 100, crossing, crossing])
    lo = np.full(cols[-1] - cols[0] + 1, np.iinfo(np.int64).max)
    hi = np.full_like(lo, np.iinfo(np.int64).min)
    np.minimum.at(lo, at, rows)
    np.maximum.at(hi, at, rows)
    return lo, hi


def full_and_reduced(monkeypatch, tmp_path, write):
    """The polylines of the plot write(out_dir) makes, reduced and with the reduction off."""
    reduced = polylines(write(tmp_path / "reduced"))
    monkeypatch.setattr(svg, "MAX_SERIES_POINTS", np.inf)
    return polylines(write(tmp_path / "full")), reduced


def cli_plot(argv, name):
    def write(out):
        assert main([*argv, "--out", str(out)]) == 0
        return out / name
    return write


def random_walks(out):
    rng = np.random.default_rng(20240611)
    xs = np.sort(rng.uniform(0.0, 7.0, 20_000))
    walks = np.cumsum(rng.standard_normal((2, 20_000)), axis=1)
    out.mkdir()
    svg.line_plot(out / "walks.svg", [("walk", xs, walks[0]), ("spiky", xs, walks[1] ** 3)],
                  "random walks", "x", "y")
    return out / "walks.svg"


def is_subsequence(part, whole):
    vertices = iter(map(tuple, whole.tolist()))
    return all(v in vertices for v in map(tuple, part.tolist()))


@pytest.mark.parametrize("write", [
    cli_plot(["simulate", "--inline", UNIFORM4, "--target", "1", "--rmax", "20000", "--svg"],
             "trajectory.svg"),
    cli_plot(["repro", "fig2"], "fig2/continuum.svg"),
    random_walks,
], ids=["uniform4-rmax20000", "fig2-continuum", "random-walks"])
def test_reduced_series_cover_the_same_pixels(monkeypatch, tmp_path, write):
    limit = svg.MAX_SERIES_POINTS
    full, reduced = full_and_reduced(monkeypatch, tmp_path, write)
    assert len(full) == len(reduced) == 2
    for f, r in zip(full, reduced):
        assert len(f) > limit
        # at most four vertices per column, the right edge's column included
        assert len(r) <= 4 * (svg.PLOT_W + 1)
        assert is_subsequence(r, f)
        lo_f, hi_f = covered_rows(f)
        lo_r, hi_r = covered_rows(r)
        assert len(lo_f) == svg.PLOT_W + 1
        np.testing.assert_array_equal(lo_r, lo_f)
        np.testing.assert_array_equal(hi_r, hi_f)


def test_blocks_and_ranges_write_the_same_plot(tmp_path):
    # 20 000 points, 4 000 of them crowded into one pixel column wider than a block
    rng = np.random.default_rng(11)
    xs = np.sort(np.concatenate([rng.uniform(0.0, 7.0, 16_000), rng.uniform(3.0, 3.001, 4_000)]))
    walks = np.cumsum(rng.standard_normal((2, len(xs))), axis=1)

    def plot(name, xs):
        svg.line_plot(tmp_path / name, [("a", xs, walks[0]), ("b", xs, walks[1])], "t", "x", "y")
        return (tmp_path / name).read_bytes()

    whole = plot("whole.svg", xs)
    made, column_blocks = [], svg._column_blocks

    def recorded(xs, column):
        made.append(column_blocks(xs, column))
        return made[-1]

    blocks = mock.patch.object(svg, "BLOCK_POINTS", 1000)
    with blocks, mock.patch.object(svg, "_column_blocks", recorded):
        assert plot("blocks.svg", xs) == whole
    # the two series share one column structure, and the crowded column is one block
    assert len(made) == 1 and len(made[0]) > 10
    assert max(hi - lo for lo, hi, _ in made[0]) >= 4_000
    # a range of x values maps like its float array, a block at a time
    steps = np.arange(len(xs), dtype=float)
    with blocks:
        assert plot("range.svg", range(len(xs))) == plot("array.svg", steps)


def test_short_series_are_written_whole(tmp_path):
    xs = np.arange(svg.MAX_SERIES_POINTS, dtype=float)
    svg.line_plot(tmp_path / "p.svg", [("s", xs, np.sin(xs))], "t", "x", "y")
    assert len(polylines(tmp_path / "p.svg")[0]) == svg.MAX_SERIES_POINTS


def percent_of(flat):
    """The oracle: the text of `POINT % (x0, y0, x1, y1, ...)` less its last space."""
    return (svg.POINT * (len(flat) // 2) % tuple(flat.tolist()))[:-1]


@contextlib.contextmanager
def percent_calls():
    """The vertex lists svg sends to `%` while the block runs, one per call."""
    calls, percent = [], svg._percent

    def recorded(flat):
        calls.append(flat.tolist())
        return percent(flat)

    with mock.patch.object(svg, "_percent", recorded):
        yield calls


def written(flat, small=0):
    """svg's vertex text of the interleaved coordinates flat, and the vertex
    lists it sent to `%`, with SMALL_COORDS set to small."""
    with percent_calls() as calls, mock.patch.object(svg, "SMALL_COORDS", small):
        return svg._points(flat[0::2], flat[1::2]), calls


def outside(v):
    """Negative (-0.0 included), NaN, 1000 or more, or printed as "1000.00"."""
    return math.isnan(v) or math.copysign(1.0, v) < 0 or v >= 1000 or "%.2f" % v == "1000.00"


# [0, 1000), exact ties m/8, and the edges of the digit layout
IN_RANGE = st.one_of(st.floats(0.0, 1000.0, exclude_max=True),
                     st.integers(0, 7999).map(lambda m: m / 8),
                     st.sampled_from([0.0, 0.004, 0.005, 9.995, 99.995, 999.994, 999.995]))
# negatives (-0.0 included), values of 1000 and more, NaN and the infinities
OUTSIDE = st.one_of(st.floats(max_value=-0.0), st.floats(min_value=1000.0),
                    st.sampled_from([-0.0, -0.004, 1000.0, math.nan]))


@given(st.lists(st.one_of(IN_RANGE, IN_RANGE, IN_RANGE, OUTSIDE), min_size=1, max_size=30)
       .map(lambda v: v + v[-1:] * (len(v) % 2)))
def test_vertex_text_matches_percent(values):
    flat = np.array(values)
    text, calls = written(flat)
    assert text == percent_of(flat)
    # a series with a coordinate the array path cannot write goes to `%` whole, once
    if any(map(outside, values)):
        assert len(calls) == 1 and np.array_equal(calls[0], values, equal_nan=True)
    else:
        assert calls == []


def half_cents():
    """The double nearest each x.xx5 below 1000, and its neighbours on both sides."""
    mid = (2 * np.arange(100_000) + 1) / 200
    return np.concatenate([np.nextafter(mid, 0.0), mid, np.nextafter(mid, 1000.0)])


@pytest.mark.parametrize("flat", [np.arange(8000) / 8, half_cents()],
                         ids=["eighths", "half-cents"])
def test_decimal_ties_and_their_neighbours_match_percent(flat):
    # the exact ties m/8 round to even; most of these products round to a
    # half exactly, so the product's error decides
    flat = flat[flat < 999.995]  # what prints as "1000.00" goes to `%`
    text, calls = written(flat)
    assert text == percent_of(flat)
    assert calls == []


@given(st.integers(1, 10**7), st.integers(0, 10**7), st.integers(1, 200))
def test_pixel_grids_match_percent(n, first, points):
    # the x pixels of n + 1 grid points, 62 + r * 562 / n, from r = first on
    r = np.arange(first, first + 2 * points) % (n + 1)
    flat = svg.MARGIN_L + r * svg.PLOT_W / n
    text, calls = written(flat)
    assert text == percent_of(flat)
    assert calls == []


@pytest.mark.parametrize("size", [svg.SMALL_COORDS, svg.SMALL_COORDS + 2])
def test_series_at_the_size_rule_match_percent(size):
    flat = np.random.default_rng(size).uniform(0.0, 999.99, size)
    text, calls = written(flat, small=svg.SMALL_COORDS)
    assert text == percent_of(flat)
    # a series of at most SMALL_COORDS numbers goes through `%` whole; no
    # coordinate of a longer in-range series reaches `%`
    assert calls == ([flat.tolist()] if size <= svg.SMALL_COORDS else [])


@pytest.mark.parametrize("spec, target", [
    (UNIFORM4, "1"),
    ('{"kind":"coherent","alpha_re":0.9178106247413862,"alpha_im":0.7730612246852292,'
     '"q1":0,"n":12}', "6"),
], ids=["uniform4", "complex-coherent"])
def test_simulate_grid_sends_nothing_to_percent(tmp_path, spec, target):
    # the x grid 62 + r * 562 / 20000 lands about 1e-12 from a decimal tie at
    # r = 50, which the array path still writes itself
    series, points = [], svg._points

    def recorded_points(x, y):
        series.append(np.column_stack([x, y]).ravel())
        return points(x, y)

    with percent_calls() as calls, mock.patch.object(svg, "_points", recorded_points):
        assert main(["simulate", "--inline", spec, "--target", target, "--rmax", "20000",
                     "--svg", "--out", str(tmp_path)]) == 0
    assert len(series) == 2 and all(len(flat) > svg.SMALL_COORDS for flat in series)
    assert calls == []


def bars(path):
    """(x, width, height) of each data bar of an SVG file, in pixels."""
    found = re.findall(r'<rect x="([^"]*)" y="[^"]*" width="([^"]*)" height="([^"]*)" '
                       r'fill="#1f77b4"', path.read_text())
    return np.array(found, float).reshape(-1, 3)


def test_many_bars_draw_one_per_pixel_column(tmp_path):
    spec = f'{{"kind":"uniform","n":{MAX_ENTRIES}}}'
    assert main(["dist", "--inline", spec, "--svg", "--out", str(tmp_path)]) == 0
    x, width, height = bars(tmp_path / "dist.svg").T
    assert len(x) == svg.PLOT_W
    np.testing.assert_array_equal(x, svg.MARGIN_L + np.arange(svg.PLOT_W))
    assert set(width) == {1.0}
    # every proportion is 1/N, so every column's tallest bar tops the axis at 1/1.05
    assert set(height) == {round(svg.PLOT_H / 1.05, 2)}


def test_each_column_bar_is_its_tallest(tmp_path):
    labels = range(3, 5003)
    heights = np.random.default_rng(7).exponential(size=len(labels))
    svg.bar_plot(tmp_path / "b.svg", labels, heights, "t", "k", "p")
    # svg's own map from labels to pixels: bar centres, floored to columns
    cols = np.floor(svg.MARGIN_L + (np.array(labels) - 2.5) / len(labels) * svg.PLOT_W)
    want = [heights[cols == c].max() for c in np.unique(cols)]
    x, width, height = bars(tmp_path / "b.svg").T
    np.testing.assert_array_equal(x, np.unique(cols))
    np.testing.assert_allclose(height, np.array(want) / (heights.max() * 1.05) * svg.PLOT_H,
                               atol=0.005)


@pytest.mark.parametrize("block", [7, 1000], ids=["columns-span-blocks", "blocks-span-columns"])
def test_bar_blocks_write_the_same_plot(tmp_path, block):
    # about 9 labels a pixel column: blocks of 7 cut through nearly every
    # column, blocks of 1 000 through a few; one block of 2^16 holds them all
    labels = range(3, 5003)
    heights = np.random.default_rng(7).exponential(size=len(labels))
    svg.bar_plot(tmp_path / "whole.svg", labels, heights, "t", "k", "p")
    with mock.patch.object(svg, "BLOCK_POINTS", block):
        svg.bar_plot(tmp_path / "blocks.svg", labels, heights, "t", "k", "p")
    assert (tmp_path / "blocks.svg").read_bytes() == (tmp_path / "whole.svg").read_bytes()


def test_few_bars_keep_one_per_label(tmp_path):
    svg.bar_plot(tmp_path / "b.svg", range(1, svg.PLOT_W + 1), np.ones(svg.PLOT_W), "t", "k", "p")
    x, width, _ = bars(tmp_path / "b.svg").T
    assert len(x) == svg.PLOT_W and width[0] == 0.8
