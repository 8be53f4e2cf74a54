"""Plots hold O(pixels) shapes: reduced series must rasterize like the full ones.

A line series longer than `svg.MAX_SERIES_POINTS` keeps only the first,
last, lowest and highest point of each pixel column (M4).  The oracle here
is a numpy rasterizer: it finds, per pixel column, the lowest and highest
pixel row a polyline touches, and the reduced polyline of a written SVG
must touch exactly the rows of the full one.  The full polyline is the same
plot written with the reduction switched off, so both carry the same
two-decimal coordinates.
"""

import re

import numpy as np
import pytest

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


def test_short_series_are_written_whole(tmp_path):
    xs = np.arange(svg.MAX_SERIES_POINTS, dtype=float)
    svg.line_plot(tmp_path / "p.svg", [("s", xs, np.sin(xs))], "t", "x", "y")
    assert len(polylines(tmp_path / "p.svg")[0]) == svg.MAX_SERIES_POINTS


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


def test_few_bars_keep_one_per_label(tmp_path):
    svg.bar_plot(tmp_path / "b.svg", range(1, svg.PLOT_W + 1), np.ones(svg.PLOT_W), "t", "k", "p")
    x, width, _ = bars(tmp_path / "b.svg").T
    assert len(x) == svg.PLOT_W and width[0] == 0.8
