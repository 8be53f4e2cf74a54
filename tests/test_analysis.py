"""Tests for the classical-vs-Grover step comparison and speedup predicates."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgrover.amplitudes import (
    AmplitudeDistribution,
    load_spec,
    truncated_coherent,
    uniform,
)
from wgrover.analysis import (
    DEFAULT_PEAK_BUDGET,
    ComparisonRow,
    comparison_table,
    global_speedup,
    local_failures,
)
from wgrover.continuum import delta_tilde
from wgrover.errors import DomainError
from wgrover.grover_core import first_crests, first_peak, first_peaks, iterate

INV_SQRT2 = 1 / math.sqrt(2)


def two_label_dist(p: float) -> AmplitudeDistribution:
    amps = np.array([p, math.sqrt(1 - p * p)], dtype=np.complex128)
    return AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)


class TestClassicalBounds:
    """The classical floor min_j 1/p_j that the global condition compares against."""

    def test_uniform_is_flat(self):
        # every label of uniform(20) needs 20 classical steps, so the floor is 20
        verdict = global_speedup(comparison_table(uniform(20)))
        assert verdict.min_classical_steps == pytest.approx(20.0)

    def test_two_weights(self):
        dist = load_spec({"kind": "weights", "weights": [0.25, 0.75]})
        verdict = global_speedup(comparison_table(dist))
        assert verdict.min_classical_steps == pytest.approx(4 / 3, abs=1e-12)
        assert verdict.classical_witness == 2

    def test_coherent_dominant_element_sets_floor(self):
        lo = global_speedup(comparison_table(truncated_coherent(0.8, 1, 20))).min_classical_steps
        assert lo == pytest.approx(1.400751373913986, abs=1e-12)
        assert lo == pytest.approx(1.4, abs=1e-2)


class TestLocalSpeedup:
    def test_small_amplitude_wins(self):
        assert 1 not in local_failures(comparison_table(two_label_dist(0.3)))

    def test_dominant_amplitude_loses(self):
        assert 1 in local_failures(comparison_table(two_label_dist(0.9)))

    def test_brute_force_scan_matches_rearranged_inequality(self):
        for p in np.arange(0.01, 1.0, 0.01):
            p = float(p)
            dist = two_label_dist(p)
            holds = 1 not in local_failures(comparison_table(dist))
            assert holds == (delta_tilde(p) > p * p), f"p={p}"

    def test_threshold_at_inverse_sqrt2(self):
        for p in np.arange(0.01, 1.0, 0.01):
            p = float(p)
            holds = 1 not in local_failures(comparison_table(two_label_dist(p)))
            assert holds == (p < INV_SQRT2), f"p={p}"

    def test_always_holds_below_half(self):
        for p in np.arange(0.01, 0.5, 0.01):
            assert 1 not in local_failures(comparison_table(two_label_dist(float(p))))


class TestGlobalSpeedup:
    def test_uniform_20(self):
        verdict = global_speedup(comparison_table(uniform(20)))
        assert verdict.holds is True
        assert verdict.max_grover_scale == pytest.approx(4.588314677411236, abs=1e-12)
        assert verdict.min_classical_steps == pytest.approx(20.0, abs=1e-12)

    def test_uniform_4(self):
        verdict = global_speedup(comparison_table(uniform(4)))
        assert verdict.holds is True
        assert verdict.max_grover_scale == pytest.approx(2.3094010767585034, abs=1e-12)

    def test_coherent_08_fails_on_first_element(self):
        verdict = global_speedup(comparison_table(truncated_coherent(0.8, 1, 20)))
        assert verdict.holds is False
        # the easiest classical target is the dominant first element
        assert verdict.classical_witness == 1
        # the slowest Grover target is the vanishing tail label
        assert verdict.grover_witness == 21
        assert verdict.max_grover_scale > verdict.min_classical_steps

    def test_consistency_with_worst_pair_local_condition(self):
        for dist in (uniform(20), truncated_coherent(0.8, 1, 20), truncated_coherent(2.4, 1, 20)):
            verdict = global_speedup(comparison_table(dist))
            worst_grover = verdict.max_grover_scale
            best_classical = verdict.min_classical_steps
            assert verdict.holds == (worst_grover < best_classical)


class TestLocalFailures:
    def test_alpha_08_fails_exactly_at_first_label(self):
        assert local_failures(comparison_table(truncated_coherent(0.8, 1, 20))) == [1]

    def test_larger_alpha_never_fails(self):
        assert local_failures(comparison_table(truncated_coherent(1.6, 1, 20))) == []

    def test_uniform_never_fails(self):
        assert local_failures(comparison_table(uniform(20))) == []


class TestComparisonTable:
    def test_uniform_quadratic_speedup_grows_without_bound(self):
        previous_ratio = 0.0
        for n in (4, 16, 64, 256, 1024):
            row = list(comparison_table(uniform(n)))[0]
            assert row.classical_steps == pytest.approx(n, abs=1e-9)
            assert row.grover_scale == pytest.approx(n / math.sqrt(n - 1), rel=1e-12)
            ratio = row.classical_steps / row.grover_scale
            assert ratio == pytest.approx(math.sqrt(n - 1), rel=1e-12)
            assert ratio > previous_ratio
            previous_ratio = ratio

    def test_uniform_20_log_columns(self):
        rows = comparison_table(uniform(20))
        assert len(rows) == 20
        for row in rows:
            assert row.classical_steps == pytest.approx(20.0, abs=1e-12)
            assert row.ln_classical == pytest.approx(math.log(20), abs=1e-12)
            assert row.ln_grover == pytest.approx(math.log(4.588314677411236), abs=1e-12)
            assert row.discrete_peak == 3

    def test_reciprocal_invariants(self):
        for row in comparison_table(truncated_coherent(2.4, 1, 20)):
            assert row.recip_classical * row.classical_steps == pytest.approx(1.0, abs=1e-12)
            assert row.recip_grover * row.grover_scale == pytest.approx(1.0, abs=1e-12)

    def test_coherent_08_reciprocal_exception_only_at_first(self):
        rows = comparison_table(truncated_coherent(0.8, 1, 20))
        for row in rows:
            if row.k == 1:
                assert row.recip_grover < row.recip_classical
            else:
                assert row.recip_grover > row.recip_classical

    @pytest.mark.parametrize("alpha", [1.6, 2.4, 3.2])
    def test_larger_alpha_grover_wins_everywhere(self, alpha):
        for row in comparison_table(truncated_coherent(alpha, 1, 20)):
            assert row.recip_grover >= row.recip_classical

    def test_discrete_peaks_match_streaming_scan(self):
        rows = comparison_table(truncated_coherent(0.8, 1, 20))
        by_k = {row.k: row.discrete_peak for row in rows}
        assert by_k[1] == 2
        assert by_k[2] == 1
        assert by_k[3] == 3

    def test_infeasible_tail_peaks_are_omitted(self):
        # the alpha=0.8 window decays so fast that high labels would need
        # ~1e6..1e12 iterations; those rows carry no discrete peak
        rows = comparison_table(truncated_coherent(0.8, 1, 20))
        feasible = [row.k for row in rows if row.discrete_peak is not None]
        omitted = [row.k for row in rows if row.discrete_peak is None]
        assert feasible == list(range(1, 12))
        assert omitted == list(range(12, 22))

    def test_rows_are_named_tuples_in_csv_column_order(self):
        row = list(comparison_table(uniform(20)))[0]
        assert tuple(row) == (row.k, row.p_k, row.classical_steps, row.grover_scale,
                              row.discrete_peak, row.recip_classical, row.recip_grover,
                              row.ln_classical, row.ln_grover)
        assert type(row.k) is int and type(row.discrete_peak) is int

    def test_columns_are_read_only_arrays_in_csv_order(self):
        dist = truncated_coherent(0.8, 1, 20)
        table = comparison_table(dist)
        assert len(table) == dist.size == 21
        assert table.k == dist.labels and table.columns[0] is table.k
        for name, col in zip(ComparisonRow._fields[1:], table.columns[1:]):
            assert type(col) is np.ndarray and col.shape == (dist.size,), name
            assert col.dtype == (np.int64 if name == "discrete_peak" else np.float64), name
            assert not col.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1
        # an empty cell is 0 in the column; every filled peak is at least 1
        assert table.discrete_peak.tolist() == [2, 1, 3, 8, 24, 76, 251, 890, 3337, 13192,
                                                54695] + [0] * 10
        assert np.array_equal(table.ln_classical, [math.log(x) for x in table.classical_steps])
        assert np.array_equal(table.ln_grover, [math.log(x) for x in table.grover_scale])

    def test_rows_are_built_from_the_columns(self):
        table = comparison_table(truncated_coherent(0.8, 1, 20))
        rows = list(table)
        assert len(rows) == len(table)
        for i, row in enumerate(rows):
            assert type(row.k) is int and row.k == table.k[i]
            peak = int(table.discrete_peak[i])
            assert row.discrete_peak == (peak or None)
            assert type(row.discrete_peak) in (int, type(None))
            for name in ComparisonRow._fields:
                if name not in ("k", "discrete_peak"):
                    value = getattr(row, name)
                    assert type(value) is float and value == getattr(table, name)[i], name
        assert [row.discrete_peak is None for row in rows] == [i >= 11 for i in range(21)]

    def test_degenerate_amplitude_rejected(self):
        # norm is 1 but label 2's |P|^2 is 0 (1e-170 squares to 0); the
        # table names the first degenerate label
        for amps, first in (([1.0, 0.0, 0.0], "|P(1)|^2 = 1.0"),
                            ([0.6, 1e-170, 0.8], "|P(2)|^2 = 0.0")):
            dist = AmplitudeDistribution(labels=range(1, 4), amplitudes=amps)
            with pytest.raises(DomainError, match=re.escape(f"{first} is degenerate")):
                comparison_table(dist)


def crest(p_abs: float) -> float:
    """First crest x* of sin^2((2x + 1) asin|P|), aliased above 1/sqrt(2)."""
    if p_abs <= INV_SQRT2:
        return math.pi / (4 * math.asin(p_abs)) - 0.5
    return math.pi / (2 * math.acos(p_abs)) - 0.5


class TestDiscretePeaksAgainstRecurrence:
    """Every filled discrete_peak is the first peak of the stepped recurrence."""

    @staticmethod
    def assert_peaks_match(dist):
        checked = 0
        for row in comparison_table(dist):
            if row.discrete_peak is not None:
                traj = iterate(dist, row.k, row.discrete_peak + 2)
                assert first_peak(traj)[0] == row.discrete_peak, f"k={row.k}"
                checked += 1
        return checked

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=2, max_size=50))
    def test_random_weight_tables(self, raw):
        total = math.fsum(raw)
        weights = [w / total for w in raw]
        # at p = 1/2 the success probability is flat (see test_flat_edge_is_a_tie)
        assume(all(abs(w - 0.5) > 1e-12 for w in weights))
        dist = load_spec({"kind": "weights", "weights": weights})
        assert self.assert_peaks_match(dist) == len(raw)

    @pytest.mark.parametrize("weights", [[0.9999, 0.0001], [0.97, 0.02, 0.01], [0.75, 0.25]])
    def test_aliased_tables(self, weights):
        # |P| above 1/sqrt(2) aliases the crest; p = 3/4 puts it at x* = 5/2
        assert self.assert_peaks_match(load_spec({"kind": "weights", "weights": weights})) > 0

    def test_flat_edge_is_a_tie(self):
        # p = 1/2 gives sin^2((2r + 1) pi/4) = 1/2 for every r: the peak is a
        # tie that rounding decides, and the table takes the first, r = 1
        dist = load_spec({"kind": "weights", "weights": [0.5, 0.5]})
        assert [row.discrete_peak for row in comparison_table(dist)] == [1, 1]
        prob = iterate(dist, 1, 3).prob
        assert np.all(np.abs(prob - 0.5) < 1e-14)

    def test_every_uniform_size_to_2000(self):
        for n in range(2, 2001):
            dist = uniform(n)
            peak = list(comparison_table(dist))[0].discrete_peak
            assert first_peak(iterate(dist, 1, peak + 2))[0] == peak, f"N={n}"


class TestPeakBudgetBoundary:
    """At DEFAULT_PEAK_BUDGET a row is filled exactly when x* + 2 <= budget.

    Each two-weight table puts label 1's first crest x* a quarter step to
    either side of budget - 2, once below the alias edge (|P|^2 ~ 6.2e-11)
    and once aliased (|P|^2 ~ 1 - 2.5e-10).  The stepped recurrence gives
    r*, the peak a filled row holds and an empty row leaves out.
    """

    @pytest.mark.parametrize("offset", [-0.25, 0.25], ids=["inside", "outside"])
    @pytest.mark.parametrize("aliased", [False, True], ids=["below-edge", "aliased"])
    def test_filled_exactly_up_to_the_budget(self, aliased, offset):
        x_target = DEFAULT_PEAK_BUDGET - 2 + offset
        if aliased:
            p = math.cos(math.pi / (2 * (x_target + 0.5))) ** 2
        else:
            p = math.sin(math.pi / (4 * (x_target + 0.5))) ** 2
        dist = load_spec({"kind": "weights", "weights": [p, 1 - p]})
        mag = abs(dist.amplitude(1))
        x_star = crest(mag)
        assert (mag > INV_SQRT2) == aliased and abs(x_star - x_target) < 0.05
        r_star = first_peak(iterate(dist, 1, math.ceil(x_star) + 2))[0]
        peak = list(comparison_table(dist))[0].discrete_peak
        if offset < 0:
            assert peak == r_star < DEFAULT_PEAK_BUDGET
        else:
            assert peak is None
            assert first_peaks(first_crests(mag)) == r_star
