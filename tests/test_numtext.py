"""The number-to-text kernel against Python's `%`, its exact oracle.

Every test joins the kernel's blocks and compares them byte for byte with
"".join(row_format % row for row in rows).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgrover import analysis, csvio, grover_core, numtext
from wgrover.amplitudes import truncated_coherent, uniform
from wgrover.continuum import fit_one_step_solution, period

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def kernel(row_format, *columns):
    return b"".join(numtext.format_rows(row_format, *columns))


def oracle(row_format, *columns):
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns))
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
    assert_matches("%d;%s\n", np.array(values, dtype=np.int64), np.array(values, dtype=np.int64))


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
    assert_matches("%.17g|%.17g\n", values, -values)
    # Hypothesis floats nearly always show 17 digits.  Decimal strings of 1-17
    # significant digits, at each exponent printed fixed and past both ends,
    # give the shorter mantissas, such as 1.5e+20 or 0.00012.
    prefixes = ("1234567891234567", "1111111111111111", "1987654321987654")
    values = np.array([float(f"{p[:n - 1]}{last}e{e - n + 1}")
                       for e in [*range(-6, 19), -100, 100, -280, 290] for n in range(1, 18)
                       for p in prefixes for last in "123456789"])
    assert_matches("%.17g|%.17g\n", values, -values)


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


def test_literals_and_blocks(monkeypatch):
    monkeypatch.setattr(numtext, "BLOCK_CELLS", 7)
    x = np.linspace(-3.0, 700.0, 101)
    assert_matches('<p k="%d" x="%.17g">%.17g</p>\n', np.arange(101) - 50, x, x[::-1] / 7)
    assert_matches("%s", np.array(["", 5, -7, "", 0], dtype=object))


def test_unsupported_formats_raise():
    # %.2f is left to Python's %: plots hold a few thousand coordinates
    for row_format in ("%r\n", "%.2f\n", "%.3f\n", "no conversion", "%d%%\n"):
        with pytest.raises(ValueError):
            kernel(row_format, np.arange(3))
    with pytest.raises(ValueError, match="differ in length"):
        kernel("%d,%d\n", np.arange(3), np.arange(4))


@pytest.fixture
def fallback_rows(monkeypatch):
    """Count the rows that go through the per-row `%` fallback."""
    calls = []

    def counting(row_format, row):
        calls.append(row)
        return row_format.__mod__(row).encode()

    monkeypatch.setattr(numtext, "_format_row", counting)
    return calls


def test_real_trajectory_and_continuum_need_no_fallback(tmp_path, fallback_rows):
    traj = grover_core.iterate(uniform(20), 1, 5000)
    csvio.write_trajectory(tmp_path / "trajectory.csv", traj)
    p_k = truncated_coherent(0.8, 1, 20).amplitude(3)
    xs, _, _ = csvio.write_continuum(tmp_path / "continuum.csv", fit_one_step_solution(p_k),
                                     x_max=3.0 * period(p_k))
    assert len(xs) > 1000
    assert fallback_rows == []
    # a peak past the budget is an empty `%s` cell, the only row left to `%`
    dist = truncated_coherent(0.8, 1, 20)
    csvio.write_distribution(tmp_path / "dist.csv", dist.labels, dist.proportions())
    assert fallback_rows == []
    csvio.write_comparison(tmp_path / "comparison.csv", analysis.comparison_table(dist))
    assert [row[0] for row in fallback_rows] == list(range(12, 22))
    assert all(row[4] == "" for row in fallback_rows)


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
    cells = np.array([7, "", -3, True, 2**53], dtype=object)
    assert kernel("%d,%s\n", range(5), cells) == oracle("%d,%s\n", range(5), cells)
    assert [row[0] for row in fallback_rows] == [1, 3]
