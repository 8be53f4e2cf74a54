"""The number-to-text kernel against Python's `%`, its exact oracle.

Every test joins the kernel's blocks and compares them byte for byte with
"".join(row_format % row for row in rows).  A table of at most SMALL_CELLS
cells skips the kernel for `%` itself, so `kernel` and the
`through_the_kernel` fixture set SMALL_CELLS to 0, and the tests of the size
rule run at its real value.
"""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgrover import analysis, csvio, grover_core, numtext
from wgrover.amplitudes import truncated_coherent, uniform
from wgrover.continuum import fit_one_step_solution

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Floats of every decade, so of every prefix ("-0.000") and exponent width
# ("e-05" to "e+308"), and subnormals.
DECADES = st.integers(-320, 308) | st.sampled_from([-5, -4, -3, -2, -1, 16, 17, -100, 100])
FLOATS = st.one_of(st.floats(), st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), DECADES),
                   st.floats(-(2.0**-1022), 2.0**-1022))
INTS = st.one_of(st.integers(-(10**6), 10**6), INT64)


def kernel(row_format, *columns, empty=None):
    """The kernel's bytes, whatever the table's size."""
    with mock.patch.object(numtext, "SMALL_CELLS", 0):
        return b"".join(numtext.format_rows(row_format, *columns, empty=empty))


def oracle(row_format, *columns, empty=None):
    """row_format % row over the rows, "" in each `%s` cell of a row that empty marks."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns))
    if empty is not None:
        kinds = row_format[:-1].split(",")
        rows = (tuple("" if e and kind == "%s" else v for kind, v in zip(kinds, row))
                for e, row in zip(empty.tolist(), rows))
    return "".join(row_format % row for row in rows).encode()


def assert_matches(row_format, *columns):
    got, want = kernel(row_format, *columns), oracle(row_format, *columns)
    if got != want:
        for g, w in zip(got.split(b"\n"), want.split(b"\n")):
            assert g == w
    assert got == want


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_matches_percent_on_any_float(values):
    # NaN, +-inf, +-0.0 and subnormals included
    assert_matches("%.17g\n", np.array(values))


@given(st.lists(INT64, min_size=1, max_size=40))
def test_d_matches_percent_on_int64(values):
    assert_matches("%d,%s\n", np.array(values, dtype=np.int64), np.array(values, dtype=np.int64))


@given(st.lists(st.tuples(INT64, st.floats(), st.floats(allow_nan=False)), min_size=1, max_size=30))
def test_mixed_rows_match_percent(rows):
    ks, xs, ys = zip(*rows)
    assert_matches(csvio.COMPARISON_ROW, np.array(ks), np.array(xs), np.array(ys), np.array(xs),
                   np.array(ks), np.array(ys), np.array(xs), np.array(ys), np.array(xs))


def powers_of_ten_and_neighbours():
    p = np.array([10.0**k for k in range(-300, 301)])
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0.0), -p])


def test_g17_powers_of_ten_plus_minus_one_ulp():
    assert_matches("%.17g\n", powers_of_ten_and_neighbours())


def test_g17_binary_fractions_and_ties():
    values = np.array([m * 2.0**-k for k in range(80) for m in range(1, 64)])
    assert_matches("%.17g\n", values)
    assert kernel("%.17g\n", np.array([2.0**-25])) == b"2.9802322387695312e-08\n"


def test_g17_fixed_and_exponent_boundaries():
    edges = [1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1e-4, 1e-5, 0.00012,
             123456789012345678.0, 0.1, 0.2, 0.3, 0.25, 1.0, -0.0, 0.0, 5e-324,
             1.7976931348623157e308]
    values = np.array(edges + [math.nextafter(x, math.inf) for x in edges])
    assert_matches("%.17g,%.17g\n", values, -values)
    # Hypothesis floats nearly always show 17 digits.  Decimal strings of 1-17
    # significant digits, at each exponent printed fixed and past both ends,
    # give the shorter mantissas, such as 1.5e+20 or 0.00012.
    prefixes = ("1234567891234567", "1111111111111111", "1987654321987654")
    values = np.array([float(f"{p[:n - 1]}{last}e{e - n + 1}")
                       for e in [*range(-6, 19), -100, 100, -280, 290] for n in range(1, 18)
                       for p in prefixes for last in "123456789"])
    assert_matches("%.17g,%.17g\n", values, -values)


def test_g17_round_up_carries_into_the_exponent():
    # doubles below 10^n whose 17 digits round up to exactly 10^n
    carries = []
    for n in range(-300, 301):
        exact = Fraction(10) ** n
        x = float(exact)
        if Fraction(x) >= exact:
            x = math.nextafter(x, 0.0)
        if float("%.17g" % x) == float(exact) and Fraction(x) < exact:
            carries.append(x)
    assert len(carries) >= 5
    assert_matches("%.17g\n", np.array(carries))
    assert kernel("%.17g\n", np.array([1e-243])) == b"1e-243\n"


def test_literals_and_blocks(monkeypatch, through_the_kernel):
    monkeypatch.setattr(numtext, "BLOCK_CELLS", 7)
    x = np.linspace(-3.0, 700.0, 101)
    assert_matches("%d,%.17g,%.17g\n", np.arange(101) - 50, x, x[::-1] / 7)


def test_blocks_with_and_without_zeros_and_out_of_range_and_edge_cells(monkeypatch, fallback_rows):
    # blocks of three rows: every other block holds only certified nonzero
    # cells, which skip the range and zero fix-ups; each block between them
    # holds one zero, one value past the power table, or one value next to a
    # power of ten whose exponent log10 misses by one
    monkeypatch.setattr(numtext, "BLOCK_CELLS", 6)
    past_table = [1e-300, -1e300, 5e-324, -2.2250738585072014e-308, math.inf]
    edges = [9999999999999998.0, 99999999999999984.0, 9.999999999999998e-281, 1e-278, 1e-5]
    xs = []
    for i, special in enumerate([0.0, -0.0, *past_table, *edges]):
        plain = [(6 * i + j) / 7 + 1 / 3 for j in range(5)]
        xs += plain[:1] + [special] + plain[1:]
    ks = np.arange(1, len(xs) + 1)
    xs = np.array(xs)
    assert kernel("%d,%.17g\n", ks, xs) == oracle("%d,%.17g\n", ks, xs)
    # zeros and edge cells are written by the kernel, the rest by `%`
    assert [row[1] for row in fallback_rows] == past_table


def test_one_pass_over_a_long_trajectory_holds_its_working_set():
    # BLOCK_CELLS bounds the kernel's temporaries, and numpy reports its buffers
    # to tracemalloc: a larger block, or more bytes per cell, shows here
    traj = grover_core.iterate(truncated_coherent(1.2 + 0.9j, 1, 12), 4, 20_000)
    columns = (range(len(traj.prob)), traj.a.real, traj.a.imag, traj.b.real, traj.b.imag, traj.prob)
    for _ in numtext.format_rows(csvio.TRAJECTORY_ROW, *columns):  # builds the cached tables
        pass
    tracemalloc.start()
    try:
        for _ in numtext.format_rows(csvio.TRAJECTORY_ROW, *columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6


@st.composite
def tables(draw, cells=None):
    """A CSV row format of 1-4 cells, its columns and an empty mask.

    1-12 rows, or with cells given the row count whose cells lie just below,
    at or just above it; each column then repeats its first 12 values.
    """
    kinds = draw(st.lists(st.sampled_from(["%d", "%s", "%.17g"]), min_size=1, max_size=4))
    row_format = ",".join(kinds) + "\n"
    if cells is None:
        n = draw(st.integers(1, 12))
    else:
        n = cells // len(kinds) + draw(st.integers(-1, 1))
    m = min(n, 12)
    columns = [np.resize(np.array(draw(st.lists(FLOATS, min_size=m, max_size=m))), n)
               if kind == "%.17g"
               else np.resize(np.array(draw(st.lists(INTS, min_size=m, max_size=m)), np.int64), n)
               for kind in kinds]
    empty = np.resize(np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m))), n)
    return row_format, columns, empty


@given(tables())
def test_literals_prefixes_and_exponents_across_blocks(table):
    # each comma or newline sits in the exponent's word and each prefix shares
    # the first digits' word; blocks of 7 cells split rows and runs
    row_format, columns, empty = table
    with mock.patch.object(numtext, "BLOCK_CELLS", 7):
        got = kernel(row_format, *columns, empty=empty)
    assert got == oracle(row_format, *columns, empty=empty)


@given(tables(cells=numtext.SMALL_CELLS))
def test_tables_on_either_side_of_small_cells_match_percent(table):
    # just below and at SMALL_CELLS the table goes through `%`, just above
    # through the kernel; the bytes are the same
    row_format, columns, empty = table
    got = b"".join(numtext.format_rows(row_format, *columns, empty=empty))
    assert got == oracle(row_format, *columns, empty=empty)


def test_small_tables_skip_the_kernel(monkeypatch, tmp_path):
    # the paper's 21-label tables and 40-step trajectories go through `%`;
    # one cell more than SMALL_CELLS goes through the kernel
    fills = []
    real_fill = numtext._fill
    monkeypatch.setattr(numtext, "_fill", lambda *args: fills.append(1) or real_fill(*args))
    dist = truncated_coherent(0.8, 1, 20)
    csvio.write_distribution(tmp_path / "dist.csv", dist.labels, dist.proportions())
    csvio.write_comparison(tmp_path / "comparison.csv", analysis.comparison_table(dist))
    csvio.write_trajectory(tmp_path / "trajectory.csv", grover_core.iterate(dist, 3, 40))
    assert 41 * 6 <= numtext.SMALL_CELLS
    assert fills == []
    ks = np.arange(numtext.SMALL_CELLS // 2 + 1)
    got = b"".join(numtext.format_rows("%d,%.17g\n", ks, ks / 7))
    assert got == oracle("%d,%.17g\n", ks, ks / 7)
    assert len(fills) == 1


@given(st.lists(st.tuples(st.booleans(), INT64, st.floats()), min_size=1, max_size=40))
def test_empty_cells_match_percent_of_the_empty_string(rows):
    empty, ks, xs = (np.array(c) for c in zip(*rows))
    row_format = "%s,%d,%s,%.17g\n"
    want = "".join(row_format % ("" if e else k, k, "" if e else k, x) for e, k, x in rows)
    assert kernel(row_format, ks, ks, ks, xs, empty=empty) == want.encode()


def test_empty_cells_in_fallback_rows(fallback_rows):
    # ties, NaN and an int past 2^53 send rows to `%`, which writes "" where empty
    ks = np.array([5, 2**53 + 1, 7, 8, 2**60], dtype=np.int64)
    xs = np.array([2.0**-25, 1.0, math.nan, 0.25, 3.0])
    empty = np.array([True, True, False, True, True])
    want = (b"5,,2.9802322387695312e-08\n9007199254740993,,1\n7,7,nan\n8,,0.25\n"
            b"1152921504606846976,,3\n")
    assert kernel("%d,%s,%.17g\n", ks, ks, xs, empty=empty) == want
    assert [row[0] for row in fallback_rows] == [5, 2**53 + 1, 7, 2**60]
    assert [row[1] for row in fallback_rows] == ["", "", 7, ""]


def test_empty_mask_must_hold_one_boolean_per_row(monkeypatch):
    # a short mask raises before the first block, not partway through the file
    monkeypatch.setattr(numtext, "BLOCK_CELLS", 2)
    ks = np.arange(4)
    for empty in (np.array([True, False]), np.zeros(5, bool), np.zeros((4, 1), bool),
                  np.array([1, 0, 0, 1]), [True, False, False, True]):
        with pytest.raises(ValueError, match="empty"):
            next(numtext.format_rows("%d,%s\n", ks, ks, empty=empty))


def test_unsupported_formats_raise():
    # only CSV rows of %d, %s and %.17g cells, each followed by "," or the closing "\n"
    for row_format in ("%r\n", "%.2f\n", "%.3f\n", "no conversion", "%d%%\n",
                       '<p k="%d">%.17g</p>\n', "%d;%s\n", "%.17g", "", "\n", "%d,\n"):
        with pytest.raises(ValueError):
            kernel(row_format, np.arange(3))
    with pytest.raises(ValueError, match="differ in length"):
        kernel("%d,%d\n", np.arange(3), np.arange(4))


@pytest.fixture
def through_the_kernel(monkeypatch):
    """Send every table through the kernel, however small."""
    monkeypatch.setattr(numtext, "SMALL_CELLS", 0)


@pytest.fixture
def fallback_rows(monkeypatch, through_the_kernel):
    """Count the rows that go through the kernel's `%` fallback."""
    calls = []
    format_rows = numtext._format_rows

    def counting(row_format, rows):
        rows = list(rows)
        calls.extend(rows)
        return format_rows(row_format, rows)

    monkeypatch.setattr(numtext, "_format_rows", counting)
    return calls


def test_real_trajectory_and_continuum_need_no_fallback(tmp_path, fallback_rows):
    traj = grover_core.iterate(uniform(20), 1, 5000)
    csvio.write_trajectory(tmp_path / "trajectory.csv", traj)
    p_k = truncated_coherent(0.8, 1, 20).amplitude(3)
    sol = fit_one_step_solution(p_k)
    xs = csvio.continuum_grid(sol)
    csvio.write_continuum(tmp_path / "continuum.csv", sol, xs)
    assert len(xs) > 1000
    assert fallback_rows == []
    dist = truncated_coherent(0.8, 1, 20)
    csvio.write_distribution(tmp_path / "dist.csv", dist.labels, dist.proportions())
    assert fallback_rows == []
    # the kernel writes the empty peak cells of labels 12..21; only a row with
    # an exact 17-digit decimal tie goes to `%`, with its empty cell as ""
    table = analysis.comparison_table(dist)
    csvio.write_comparison(tmp_path / "comparison.csv", table)
    floats = [c for c in table.columns if isinstance(c, np.ndarray) and c.dtype == np.float64]
    ties = [k for k, *row in zip(table.k, *floats) if any(map(is_decimal_tie, row))]
    assert [row[0] for row in fallback_rows] == ties
    assert "" in [row[4] for row in fallback_rows]


def is_decimal_tie(x: float) -> bool:
    """Whether x lies exactly halfway between two 17-significant-digit decimals."""
    # Decimal(x) is exact, and adjusted() is the exponent of its first digit
    return x != 0 and Fraction(x) * Fraction(10) ** (16 - Decimal(x).adjusted()) % 1 == 0.5


def test_ties_and_non_finite_values_take_the_fallback(fallback_rows):
    values = np.array([0.5, 2.0**-25, math.nan, 0.25, math.inf, 1e-310])
    assert kernel("%d,%.17g\n", np.arange(6), values) == oracle("%d,%.17g\n", np.arange(6), values)
    assert [row[0] for row in fallback_rows] == [1, 2, 4, 5]


def test_integers_within_2_53_are_exact_and_only_other_cells_fall_back(fallback_rows):
    exact = [0, 1, -1, 2**53 - 1, 1 - 2**53, 2**53, -(2**53)]
    beyond = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
    ints = np.array(exact + beyond, dtype=np.int64)
    assert kernel("%d,%s\n", ints, ints) == oracle("%d,%s\n", ints, ints)
    assert [row[0] for row in fallback_rows] == beyond
    fallback_rows.clear()
    # ranges: one crossing 2^53, one whose span passes 2^53 with no value past it
    for labels in (range(2**53 - 2, 2**53 + 2), range(-(2**53), 2**53, 6004799503160661)):
        assert kernel("%d,%s\n", labels, labels) == oracle("%d,%s\n", labels, labels)
    assert [row[0] for row in fallback_rows] == [2**53 + 1]
    fallback_rows.clear()
    # a float or bool array is no integer column: each of its rows goes to `%`
    for cells in (np.array([2.5, -1.0]), np.array([True, False])):
        assert kernel("%d,%s\n", cells, cells) == oracle("%d,%s\n", cells, cells)
    assert fallback_rows == [(2.5, 2.5), (-1.0, -1.0), (True, True), (False, False)]
