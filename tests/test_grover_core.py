"""Tests for the 2-d recurrence, the dense oracle, and peak detection.

The independent oracle used throughout: for a target with |P(k)| = sin(theta),
the success amplitude after r steps is sin((2r+1) theta), an amplitude
amplification identity that never touches the recurrence code.
"""

import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from wgrover import grover_core
from wgrover.amplitudes import (
    AmplitudeDistribution,
    load_spec,
    target_proportions,
    truncated_coherent,
    uniform,
)
from wgrover.analysis import DEFAULT_PEAK_BUDGET
from wgrover.cli import MAX_RMAX
from wgrover.errors import ConsistencyError, DomainError, NoPeakError
from wgrover.grover_core import (
    Trajectory,
    TwoDState,
    dense_apply_G,
    first_peak,
    iterate,
    project_onto_subspace,
    scan_first_peak,
    step,
    success_probability,
)

P20 = 1 / math.sqrt(20)
TILE = grover_core.DENSE_TILE
# eight tiles for the dense oracle, the last one partial
TILED_N = 7 * TILE + 5
# elements on both sides of tile edges: the first tile's, a middle one's, the partial tile's
EDGES = {"first": 0, "tile-end": TILE - 1, "tile-start": TILE,
         "mid-end": 4 * TILE - 1, "mid-start": 4 * TILE,
         "partial-start": 7 * TILE, "last": TILED_N - 1}
# the error budget's size, 786 437 (its summation error grows with N)
BUDGET_N = 24 * TILE + 5


def oracle_success_prob(p_abs: float, r: int) -> float:
    return math.sin((2 * r + 1) * math.asin(p_abs)) ** 2


def oracle_peak(p_abs: float) -> int:
    return round(math.pi / (4 * math.asin(p_abs)) - 0.5)


def crest_estimate(p_abs: float) -> float:
    """pi/(4 asin|P|) - 1/2: the first crest up to |P| = 1/sqrt(2), below 1 above it."""
    return math.pi / (4 * math.asin(p_abs)) - 0.5


def peak_bracket(p_abs: float, margin: int) -> int:
    """A limit past the first peak; above 1/sqrt(2) the crest aliases to
    pi/(2 acos|P|) - 1/2, far beyond crest_estimate (r ~ 111 at 0.9999)."""
    return int(max(crest_estimate(p_abs), math.pi / (2 * math.acos(p_abs)))) + margin


def random_distribution(rng, n: int) -> AmplitudeDistribution:
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    return AmplitudeDistribution(labels=range(1, n + 1), amplitudes=amps)


class TestStep:
    def test_one_shot_quarter_weight(self):
        out = step(TwoDState(1, 0), 0.5)
        assert out.a == 0 and out.b == 1

    def test_first_step_n20(self):
        out = step(TwoDState(1, 0), P20)
        assert out.a.real == pytest.approx(0.8, abs=1e-15)
        assert out.b.real == pytest.approx(0.4472135954999579, abs=1e-15)

    def test_second_step_n20(self):
        out = step(TwoDState(0.8, 0.4472135954999579), P20)
        assert out.a.real == pytest.approx(0.44, abs=1e-15)
        assert out.b.real == pytest.approx(0.8049844718999243, abs=1e-15)

    def test_conjugate_coupling_for_complex_amplitude(self):
        p = 0.3 * np.exp(0.7j)
        state = TwoDState(0.5 + 0.1j, -0.2 + 0.4j)
        out = step(state, p)
        assert out.a == pytest.approx(
            (1 - 4 * abs(p) ** 2) * state.a - 2 * np.conj(p) * state.b, abs=1e-15
        )
        assert out.b == pytest.approx(state.b + 2 * p * state.a, abs=1e-15)

    def test_degenerate_amplitudes_rejected(self):
        for p in (0.0, 1.0, 1e-170, math.nan):
            with pytest.raises(DomainError, match="degenerate"):
                step(TwoDState(1, 0), p)

    def test_non_finite_complex_amplitude_is_degenerate(self):
        # abs() of a complex NaN can raise a spurious OverflowError
        for p in (complex(math.nan, math.nan), complex(0.1, math.nan), complex(math.inf, 0)):
            with pytest.raises(DomainError, match="degenerate"):
                step(TwoDState(1, 0), p)


class TestSuccessProbability:
    def test_initial_state_measures_proportion(self):
        assert success_probability(TwoDState(1, 0), 0.5) == pytest.approx(0.25, abs=0)

    def test_pure_target(self):
        assert success_probability(TwoDState(0, 1), 0.123) == 1.0

    def test_third_iteration_n20(self):
        state = TwoDState(1, 0)
        for _ in range(3):
            state = step(state, P20)
        # b_3 alone exceeds 1; the projected amplitude does not
        assert state.b.real == pytest.approx(1.00176, abs=1e-5)
        assert success_probability(state, P20) == pytest.approx(
            oracle_success_prob(P20, 3), abs=1e-12
        )
        assert success_probability(state, P20) == pytest.approx(0.99994, abs=1e-5)

    def test_inconsistent_state_raises(self):
        with pytest.raises(ConsistencyError):
            success_probability(TwoDState(0, 1.5), 0.5)

    @pytest.mark.parametrize(
        "state, p_k",
        [
            (TwoDState(math.nan, 0), 0.1),
            (TwoDState(complex(math.nan, math.nan), 0), 0.1),
            (TwoDState(0, complex(0, math.nan)), 0.1),
            (TwoDState(math.inf, 0), 0.1),
            (TwoDState(1, 0), math.nan),
            (TwoDState(1, 0), complex(math.nan, math.nan)),
            (TwoDState(1, 0), math.inf),
            (TwoDState(1e200, 0), 0.5),
        ],
    )
    def test_non_finite_or_overflowing_amplitude_raises(self, state, p_k):
        # no silent NaN, and no OverflowError from abs() or the square
        with pytest.raises(ConsistencyError):
            success_probability(state, p_k)


class TestIterate:
    def test_starts_at_one_zero(self):
        traj = iterate(uniform(20), 1, 3)
        assert traj.points[0].state.a == 1 and traj.points[0].state.b == 0
        assert traj.points[0].success_prob == pytest.approx(0.05, abs=1e-15)
        assert len(traj.points) == 4

    def test_probability_peaks_near_one_for_n20(self):
        traj = iterate(uniform(20), 1, 3)
        assert traj.points[3].success_prob == pytest.approx(0.99994, abs=1e-5)

    def test_one_iteration_certainty_for_n4(self):
        traj = iterate(uniform(4), 2, 1)
        assert traj.points[1].success_prob == pytest.approx(1.0, abs=1e-12)

    def test_success_prob_matches_points(self):
        dist = truncated_coherent(0.8, 1, 20)
        traj, p_k = iterate(dist, 3, 20), dist.amplitude(3)
        for pt in traj.points:
            amp = pt.state.a * p_k + pt.state.b
            assert pt.success_prob == pytest.approx(abs(amp) ** 2, abs=1e-12)

    @pytest.mark.parametrize(
        "dist,k",
        [
            (uniform(20), 1),
            (uniform(4), 2),
            (truncated_coherent(0.8, 1, 20), 3),
            (load_spec({"kind": "weights", "weights": [0.1, 0.6, 0.3]}), 1),
        ],
        ids=["u20", "u4", "coherent", "weights"],
    )
    def test_closed_form_oracle_real_amplitudes(self, dist, k):
        traj = iterate(dist, k, 100)
        p_abs = abs(dist.amplitude(k))
        for pt in traj.points:
            assert pt.success_prob == pytest.approx(
                oracle_success_prob(p_abs, pt.r), abs=1e-9
            )

    def test_closed_form_oracle_complex_amplitudes(self):
        # phases rotate a_r, b_r but cancel in the measured amplitude
        rng = np.random.default_rng(7)
        dist = random_distribution(rng, 12)
        traj = iterate(dist, 5, 100)
        p_abs = abs(dist.amplitude(5))
        for pt in traj.points:
            assert pt.success_prob == pytest.approx(
                oracle_success_prob(p_abs, pt.r), abs=1e-9
            )

    @pytest.mark.parametrize("proportion", [0.25, 0.4, 1e-3])
    def test_drift_from_the_closed_form_is_at_most_4_r_eps(self, proportion):
        # the recurrence drifts by about one rounding per step (worst r eps seen)
        dist = load_spec({"kind": "weights", "weights": [proportion, 1 - proportion]})
        traj = iterate(dist, 1, 10**5)
        r = np.arange(len(traj.prob))
        closed = np.sin((2 * r + 1) * math.asin(abs(dist.amplitude(1)))) ** 2
        drift = np.abs(traj.prob - closed)
        assert (drift <= 4 * np.maximum(r, 1) * np.finfo(float).eps).all()

    def test_bad_r_max(self):
        with pytest.raises(DomainError):
            iterate(uniform(4), 1, 0)

    @pytest.mark.parametrize("proportion", [math.nan, -1e300], ids=["nan", "overflow"])
    def test_non_finite_probability_raises(self, monkeypatch, proportion):
        # a broken step constant turns the state into NaN or infinity
        monkeypatch.setattr(grover_core, "target_proportions",
                            lambda mag, labels=None: proportion)
        # the first step already holds the NaN or the overflow
        with pytest.raises(ConsistencyError, match="at r = 1 "):
            iterate(uniform(4), 1, 10)

    def test_long_run_equals_repeated_step(self):
        r_max = 8199
        traj = iterate(uniform(20), 1, r_max)
        assert len(traj.prob) == r_max + 1
        tail = TwoDState(1, 0)
        for _ in range(r_max):
            tail = step(tail, P20)
        assert (complex(traj.a[-1]), complex(traj.b[-1])) == (tail.a, tail.b)


def two_label_distribution(p_k: complex) -> AmplitudeDistribution:
    return AmplitudeDistribution(labels=range(1, 3),
                                 amplitudes=[p_k, math.sqrt(1.0 - abs(p_k) ** 2)])


def step_oracle(p_k: complex, r_max: int) -> list[tuple[TwoDState, float]]:
    """(state, probability) for r = 0..r_max, one step() call at a time."""
    state = TwoDState(a=1.0 + 0.0j, b=0.0 + 0.0j)
    out = [(state, success_probability(state, p_k))]
    for _ in range(r_max):
        state = step(state, p_k)
        out.append((state, success_probability(state, p_k)))
    return out


class TestIterateMatchesStepOracle:
    """iterate's array loop must reproduce step/success_probability bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        log_p=st.floats(min_value=-14.0, max_value=math.log10(0.9999 ** 2)),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        r_max=st.integers(min_value=1, max_value=2000),
    )
    @example(log_p=-14.0, phase=0.3, r_max=2000)  # |P|^2 = 1e-14: factor rounds near 1
    @example(log_p=math.log10(0.9999 ** 2), phase=2.0, r_max=300)  # aliased, peak ~ 111
    @example(log_p=math.log10(0.75 ** 2), phase=0.0, r_max=50)  # aliased, real
    @example(log_p=math.log10(0.05), phase=math.pi, r_max=40)
    def test_arrays_equal_step_loop(self, log_p, phase, r_max):
        p_k = math.sqrt(10.0 ** log_p) * complex(math.cos(phase), math.sin(phase))
        dist = two_label_distribution(p_k)
        traj = iterate(dist, 1, r_max)
        oracle = step_oracle(dist.amplitude(1), r_max)
        want_a = np.array([s.a for s, _ in oracle], dtype=np.complex128)
        want_b = np.array([s.b for s, _ in oracle], dtype=np.complex128)
        want_prob = np.array([prob for _, prob in oracle])
        # bytes, not ==: a signed zero would print differently in the CSV
        assert traj.a.tobytes() == want_a.tobytes()
        assert traj.b.tobytes() == want_b.tobytes()
        assert traj.prob.tobytes() == want_prob.tobytes()

    def test_points_view(self):
        dist = two_label_distribution(0.2 - 0.1j)
        traj = iterate(dist, 1, 25)
        oracle = step_oracle(dist.amplitude(1), 25)
        points = traj.points
        assert len(points) == 26
        for pt, want in ((points[0], oracle[0]), (points[-1], oracle[-1])):
            assert (pt.state, pt.success_prob) == want
        assert points[-1].r == 25 and points[-26].r == 0
        assert [(pt.r, pt.state, pt.success_prob) for pt in points] == [
            (r, state, prob) for r, (state, prob) in enumerate(oracle)
        ]
        assert type(points[3].state.a) is complex and type(points[3].success_prob) is float
        for bad in (26, -27):
            with pytest.raises(IndexError):
                points[bad]

    def test_arrays_are_read_only(self):
        traj = iterate(uniform(20), 1, 5)
        for arr in (traj.a, traj.b, traj.a.base, traj.prob):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestFirstPeak:
    def test_n20_peaks_at_three(self):
        traj = iterate(uniform(20), 1, 10)
        r_star, prob = first_peak(traj)
        assert r_star == oracle_peak(P20) == 3
        assert prob == pytest.approx(oracle_success_prob(P20, 3), abs=1e-12)

    def test_n4_peaks_immediately_with_certainty(self):
        r_star, prob = first_peak(iterate(uniform(4), 1, 5))
        assert r_star == 1
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_dominant_target_dips_before_peaking(self):
        # |P(1)| ~ 0.845: probability drops from 0.714 to 0.015 at r=1, so the
        # first bracketed maximum is the rebound at r=2
        traj = iterate(truncated_coherent(0.8, 1, 20), 1, 10)
        r_star, prob = first_peak(traj)
        assert r_star == 2
        assert prob == pytest.approx(0.9011914371538547, abs=1e-12)

    def test_first_interior_maximum_ties_go_to_smaller_r(self):
        def peak(prob):
            prob = np.array(prob)
            zeros = np.zeros(len(prob), np.complex128)
            return first_peak(Trajectory(a=zeros, b=zeros, prob=prob))

        assert peak([0.1, 0.5, 0.5, 0.2]) == (1, 0.5)
        assert peak([0.3, 0.2, 0.4, 0.4, 0.4]) == (2, 0.4)
        assert peak([0.3, 0.3, 0.3]) == (1, 0.3)
        with pytest.raises(NoPeakError):
            peak([0.1, 0.2, 0.3, 0.4])

    def test_too_short_trajectory(self):
        with pytest.raises(NoPeakError):
            first_peak(iterate(uniform(20), 1, 1))

    def test_monotone_run_reports_no_peak(self):
        with pytest.raises(NoPeakError, match="r_max"):
            first_peak(iterate(uniform(1000), 1, 3))

    def test_peak_formula_holds_for_all_uniform_sizes(self):
        for n in range(4, 1025):
            p_abs = 1 / math.sqrt(n)
            expected = oracle_peak(p_abs)
            traj = iterate(uniform(n), 1, expected + 2)
            assert first_peak(traj)[0] == expected, f"N={n}"

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(min_value=0.02, max_value=0.9999))
    @example(p=0.9)
    @example(p=0.9999)
    def test_scan_agrees_with_trajectory_peak(self, p):
        amps = np.array([p, math.sqrt(1 - p * p)], dtype=np.complex128)
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)
        limit = peak_bracket(p, 10)
        r_scan, prob_scan = scan_first_peak(dist, 1, limit)
        r_traj, prob_traj = first_peak(iterate(dist, 1, limit))
        assert r_scan == r_traj
        # the scan reports the closed-form probability, the trajectory the
        # recurrence's; they differ by rounding only
        assert prob_scan == pytest.approx(prob_traj, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.8, 1.6, 2.4, 3.2])
    def test_scan_matches_recurrence_on_every_figure_label(self, alpha):
        dist = truncated_coherent(alpha, 1, 20)
        checked = 0
        for k in dist.labels:
            p_abs = abs(dist.amplitude(k))
            if crest_estimate(p_abs) + 2 > DEFAULT_PEAK_BUDGET:
                continue
            r_traj, _ = first_peak(iterate(dist, k, peak_bracket(p_abs, 3)))
            assert scan_first_peak(dist, k, DEFAULT_PEAK_BUDGET)[0] == r_traj, f"alpha={alpha} k={k}"
            checked += 1
        assert checked == {0.8: 11, 1.6: 18, 2.4: 21, 3.2: 21}[alpha]

    @pytest.mark.parametrize("p", [1 / math.sqrt(20), 0.9999])
    def test_r_limit_is_exclusive(self, p):
        amps = np.array([p, math.sqrt(1 - p * p)], dtype=np.complex128)
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)
        r_star, _ = scan_first_peak(dist, 1, 1000)
        assert scan_first_peak(dist, 1, r_star + 1)[0] == r_star
        with pytest.raises(NoPeakError, match="r_max"):
            scan_first_peak(dist, 1, r_star)

    @pytest.mark.parametrize("p_abs", [2.4e-10, 4.4e-11, 1.4e-12, 1e-12])
    def test_deep_tail_peak_is_the_integer_nearest_the_crest(self, p_abs):
        # sin^2 is flat to rounding around these crests (r ~ 1e9..1e12, down
        # to |P|^2 = 1e-24), so the 50-digit crest is the oracle; float64 x*
        # is good to ~1e-4 here, and each 50-digit x* is 0.03 or more from a half
        amps = np.array([p_abs, math.sqrt(1 - p_abs * p_abs)], dtype=np.complex128)
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)
        r_scan, prob = scan_first_peak(dist, 1, 10**15)
        with mp.workdps(50):
            x_star = mp.pi / (4 * mp.asin(mp.mpf(p_abs))) - mp.mpf("0.5")
            assert r_scan == int(mp.ceil(x_star - mp.mpf("0.5")))
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_target_rejected(self):
        # |P(1)| = 1e-170 squares to 0: every probability would be 0
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=[1e-170, 1.0])
        with pytest.raises(DomainError, match=r"\|P\(1\)\|\^2 = 0.0 is degenerate"):
            iterate(dist, 1, 10)
        with pytest.raises(DomainError, match=r"\|P\(1\)\|\^2 = 0.0 is degenerate"):
            scan_first_peak(dist, 1, MAX_RMAX)

    @pytest.mark.parametrize("p_abs", [1e-10, 2.3e-162], ids=["square-1e-20", "square-subnormal"])
    def test_smallest_targets_pass_but_peak_beyond_max_rmax(self, p_abs):
        # |P|^2 = 1e-20 is below 2^-56, so 1 - 4|P|^2 rounds to 1; 2.3e-162
        # squares to the smallest positive double.  Both are valid targets
        # whose first peak (r ~ 7.9e9, 3.4e161) lies past any allowed --rmax.
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=[p_abs, 1.0])
        prop = target_proportions(abs(dist.amplitude(1)))
        assert 0.0 < prop < 1.0 and 1.0 - 4.0 * prop == 1.0
        with pytest.raises(NoPeakError, match="r_max"):
            scan_first_peak(dist, 1, MAX_RMAX)

    def test_r_limit_below_two_cannot_bracket(self):
        with pytest.raises(NoPeakError):
            scan_first_peak(uniform(4), 1, 1)


class TestDenseOracle:
    def test_database_state_one_step_n4(self):
        dist = uniform(4)
        out = dense_apply_G(np.asarray(dist.amplitudes), dist, 2)
        expected = np.zeros(4, dtype=np.complex128)
        expected[1] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_database_state_one_step_n20(self):
        dist = uniform(20)
        out = dense_apply_G(np.asarray(dist.amplitudes), dist, 1)
        expected = 0.8 * np.asarray(dist.amplitudes)
        expected[0] += 0.4472135954999579
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_target_basis_state_reflects_with_conjugate(self):
        rng = np.random.default_rng(3)
        dist = random_distribution(rng, 8)
        k = 5
        e_k = np.zeros(8, dtype=np.complex128)
        e_k[dist.index_of(k)] = 1.0
        out = dense_apply_G(e_k, dist, k)
        expected = -2 * np.conj(dist.amplitude(k)) * np.asarray(dist.amplitudes) + e_k
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_over_200_steps(self):
        rng = np.random.default_rng(11)
        dist = random_distribution(rng, 32)
        state = np.asarray(dist.amplitudes).copy()
        for _ in range(200):
            state = dense_apply_G(state, dist, 9)
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            dense_apply_G(np.ones(3) / math.sqrt(3), uniform(4), 1)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(DomainError):
            dense_apply_G(np.ones(4, dtype=complex), uniform(4), 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [4, TILED_N], ids=["one-tile", "eight-tiles"])
    def test_non_finite_state_rejected(self, n, bad):
        # a NaN or infinite norm fails the check; no NaN state comes back
        dist = uniform(n)
        state = np.array(dist.amplitudes)
        state[n - 1] = bad
        with pytest.raises(DomainError, match="norm"):
            dense_apply_G(state, dist, 1)


def reference_apply_G(state, dist, k):
    """G v written out literally: copy v, flip v_k, then 2 <D|v> D - v."""
    v = np.array(state, dtype=np.complex128)
    i = dist.index_of(k)
    v[i] = -v[i]
    d = np.asarray(dist.amplitudes)
    return 2.0 * np.vdot(d, v) * d - v


class TestFusedDenseStep:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=64),
        coherent=st.booleans(),
        where=st.sampled_from(["first", "middle", "last"]),
    )
    def test_matches_literal_reference(self, seed, n, coherent, where):
        rng = np.random.default_rng(seed)
        if coherent:
            # a window starting at q1 = 5, so labels and positions differ
            alpha = rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            dist = truncated_coherent(alpha, 5, n - 1)
        else:
            dist = random_distribution(rng, n)
        first = dist.labels.start
        k = {"first": first, "middle": first + n // 2, "last": first + n - 1}[where]
        state = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        state /= np.linalg.norm(state)
        before = state.copy()
        out = dense_apply_G(state, dist, k)
        np.testing.assert_allclose(out, reference_apply_G(state, dist, k), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(state, before)


class TestProjection:
    def test_database_state(self):
        dist = uniform(20)
        out = project_onto_subspace(np.asarray(dist.amplitudes), dist, 1)
        assert out.a == pytest.approx(1.0, abs=1e-12)
        assert out.b == pytest.approx(0.0, abs=1e-12)

    def test_target_state(self):
        dist = uniform(20)
        e_k = np.zeros(20, dtype=np.complex128)
        e_k[0] = 1.0
        out = project_onto_subspace(e_k, dist, 1)
        assert out.a == pytest.approx(0.0, abs=1e-12)
        assert out.b == pytest.approx(1.0, abs=1e-12)

    def test_one_application_matches_recurrence(self):
        dist = uniform(20)
        state = dense_apply_G(np.asarray(dist.amplitudes), dist, 1)
        out = project_onto_subspace(state, dist, 1)
        assert out.a == pytest.approx(0.8, abs=1e-12)
        assert out.b == pytest.approx(0.4472135954999579, abs=1e-12)

    def test_absent_target_rejected(self):
        dist = AmplitudeDistribution(labels=range(1, 4), amplitudes=[0.0, 0.6, 0.8])
        with pytest.raises(DomainError, match="degenerate"):
            project_onto_subspace(np.asarray(dist.amplitudes), dist, 1)

    def test_state_outside_subspace_raises(self):
        dist = uniform(4)
        v = np.zeros(4, dtype=np.complex128)
        v[2], v[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        with pytest.raises(ConsistencyError, match="subspace"):
            project_onto_subspace(v, dist, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [4, TILED_N], ids=["one-tile", "eight-tiles"])
    def test_non_finite_state_raises(self, n, bad):
        dist = uniform(n)
        state = np.array(dist.amplitudes)
        state[n - 1] = bad
        with pytest.raises(ConsistencyError, match="subspace"):
            project_onto_subspace(state, dist, 1)


@st.composite
def distribution_and_target(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    re = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    amps = np.array(re, dtype=np.complex128) + 1j * np.array(im)
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps = amps + (1.0 + 0.5j)
        norm = np.linalg.norm(amps)
    amps = amps / norm
    k = draw(st.integers(min_value=1, max_value=n))
    mag = abs(amps[k - 1])
    if not 1e-3 < mag < 0.999:
        amps = np.full(n, 1 / math.sqrt(n), dtype=np.complex128)
    dist = AmplitudeDistribution(labels=range(1, n + 1), amplitudes=amps)
    return dist, k


class TestRecurrenceOracleEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(args=distribution_and_target())
    def test_projected_dense_state_matches_recurrence(self, args):
        dist, k = args
        traj = iterate(dist, k, 25)
        state = np.asarray(dist.amplitudes).copy()
        for r in range(1, 26):
            state = dense_apply_G(state, dist, k)
            coeffs = project_onto_subspace(state, dist, k)
            assert abs(coeffs.a - traj.points[r].state.a) <= 1e-9
            assert abs(coeffs.b - traj.points[r].state.b) <= 1e-9

    def test_subspace_residual_stays_negligible(self):
        rng = np.random.default_rng(23)
        dist = random_distribution(rng, 24)
        k = 7
        d = np.asarray(dist.amplitudes)
        e_k = np.zeros(24, dtype=np.complex128)
        e_k[dist.index_of(k)] = 1.0
        state = d.copy()
        for _ in range(100):
            state = dense_apply_G(state, dist, k)
            coeffs = project_onto_subspace(state, dist, k)
            recon = coeffs.a * d + coeffs.b * e_k
            assert np.linalg.norm(recon - state) <= 1e-10


@pytest.fixture(scope="module")
def tiled():
    """A random complex database over eight tiles, and a random unit state."""
    rng = np.random.default_rng(31)
    dist = random_distribution(rng, TILED_N)
    state = rng.standard_normal(TILED_N) + 1j * rng.standard_normal(TILED_N)
    state /= np.linalg.norm(state)
    return dist, state


def g_applied(dist, k, r):
    """G^r |D> by r dense steps."""
    state = dist.amplitudes
    for _ in range(r):
        state = dense_apply_G(state, dist, k)
    return state


def step_in_forked_child(state, dist, k, want):
    if not np.array_equal(dense_apply_G(state, dist, k), want):
        raise SystemExit(3)


class TestTiledDenseStep:
    """dense_apply_G and project_onto_subspace over several tiles of DENSE_TILE."""

    @pytest.mark.parametrize("index", EDGES.values(), ids=EDGES.keys())
    def test_matches_literal_reference(self, tiled, index):
        dist, state = tiled
        k = dist.labels[index]
        before = state.copy()
        out = dense_apply_G(state, dist, k)
        np.testing.assert_allclose(out, reference_apply_G(state, dist, k), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(state, before)

    @pytest.mark.parametrize("index", [EDGES["mid-start"], EDGES["partial-start"]],
                             ids=["mid-start", "partial-start"])
    def test_results_do_not_depend_on_the_worker_count(self, tiled, monkeypatch, index):
        dist, state = tiled
        k = dist.labels[index]
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(grover_core, "_usable_cpus", lambda: workers)
            twice = g_applied(dist, k, 2)
            results.append((dense_apply_G(state, dist, k), twice,
                            project_onto_subspace(twice, dist, k)))
        (step1, twice1, coeffs1), *others = results
        for step_w, twice_w, coeffs_w in others:
            assert np.array_equal(step_w, step1) and np.array_equal(twice_w, twice1)
            assert coeffs_w == coeffs1

    def test_projection_matches_recurrence_without_mutating(self, tiled):
        dist, _ = tiled
        k = dist.labels[-1]
        state = g_applied(dist, k, 3)
        before = state.copy()
        coeffs = project_onto_subspace(state, dist, k)
        want = iterate(dist, k, 3).points[3].state
        assert abs(coeffs.a - want.a) <= 1e-9 and abs(coeffs.b - want.b) <= 1e-9
        np.testing.assert_array_equal(state, before)

    def test_dimension_mismatch(self, tiled):
        dist, state = tiled
        short = state[:-1] / np.linalg.norm(state[:-1])
        with pytest.raises(DomainError, match="shape"):
            dense_apply_G(short, dist, 1)
        with pytest.raises(DomainError, match="shape"):
            project_onto_subspace(short, dist, 1)

    def test_unnormalized_state_rejected(self, tiled):
        dist, state = tiled
        with pytest.raises(DomainError, match="norm"):
            dense_apply_G(2.0 * state, dist, 1)

    def test_state_outside_subspace_raises(self, tiled):
        dist, state = tiled
        with pytest.raises(ConsistencyError, match="subspace"):
            project_onto_subspace(state, dist, dist.labels[TILE])

    # not "first": a change to the target's own element stays in span{D, e_k}
    @pytest.mark.parametrize("index", list(EDGES.values())[1:], ids=list(EDGES)[1:])
    def test_departure_in_one_element_raises(self, tiled, index):
        dist, _ = tiled
        state = np.array(dist.amplitudes)
        state[index] += 1e-6
        with pytest.raises(ConsistencyError, match="subspace"):
            project_onto_subspace(state, dist, dist.labels[0])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork start method")
    def test_forked_child_steps_after_the_parent_used_the_pool(self, tiled, monkeypatch):
        # the child inherits the pool but none of its threads
        monkeypatch.setattr(grover_core, "_usable_cpus", lambda: 2)
        dist, state = tiled
        k = dist.labels[1]
        want = dense_apply_G(state, dist, k)
        child = multiprocessing.get_context("fork").Process(
            target=step_in_forked_child, args=(state, dist, k, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child hung on a dense step")
        assert child.exitcode == 0

    def test_import_starts_no_thread(self):
        code = ("import sys, threading, wgrover; "
                "print('concurrent.futures' in sys.modules, threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60).stdout
        assert out.split() == ["False", "1"]


class TestDenseErrorBudget:
    # The worst |prob - exact| / (r eps) seen over r = 1..30, by |P(k)|^2 =
    # 1e-6, 1e-3, 0.25, 0.49: 0.27, 21, 412, 389 with OpenBLAS's AVX-512
    # zdot kernel on 2 threads, 0.26, 37, 716, 920 on one
    # (OPENBLAS_NUM_THREADS=1), and 0.16, 585, 1476, 3557 with its SSE2
    # kernel (OPENBLAS_CORETYPE=Nehalem).  At 30 * 2^15 + 5 elements the
    # SSE2 kernel's worst were 1.3, 683, 2713, 1782.
    C = 30000

    @pytest.mark.parametrize("proportion", [1e-6, 1e-3, 0.25, 0.49])
    def test_thirty_steps_against_50_digit_closed_form(self, proportion):
        index = 12 * TILE  # a tile's first element
        amps = np.full(BUDGET_N, math.sqrt((1 - proportion) / (BUDGET_N - 1)), np.complex128)
        amps[index] = math.sqrt(proportion)
        dist = AmplitudeDistribution(labels=range(1, BUDGET_N + 1), amplitudes=amps)
        k = dist.labels[index]
        p_k = dist.amplitude(k)
        eps = np.finfo(float).eps
        state = dist.amplitudes
        with mp.workdps(50):
            theta = mp.asin(mp.mpf(abs(p_k)))
            for r in range(1, 31):
                state = dense_apply_G(state, dist, k)
                coeffs = project_onto_subspace(state, dist, k)
                prob = abs(coeffs.a * p_k + coeffs.b) ** 2
                err = abs(mp.mpf(prob) - mp.sin((2 * r + 1) * theta) ** 2)
                assert err <= self.C * r * eps, f"r = {r}"


class TestRecurrenceErrorBudget:
    # The error against sin^2((2r + 1) theta), cos((2r + 1) theta) / cos(theta)
    # and b_r = sin((2r + 1) theta) - |P| a_r at 50 digits, theta = asin|P(k)|,
    # for r = 1..30 and 61 checkpoints up to 10^6, in units of r eps.  The worst
    # seen: iterate's probability 0.74 / cos(theta) and its a_r, b_r 0.50 /
    # cos(theta)^2 (at |P|^2 = 0.51; 0.47 and 0.46 at 0.9999^2, where
    # 1 / cos(theta) is 71), and the libm closed form 1.92 (at 0.9999^2).
    CHECKPOINTS = sorted({*range(1, 31),
                          *np.round(np.geomspace(1, 10**6, 61)).astype(int).tolist()})

    @pytest.mark.parametrize("proportion", [1e-12, 1e-6, 1e-3, 0.25, 0.49, 0.51, 0.9999**2])
    def test_iterate_and_the_float_closed_form_against_50_digits(self, proportion):
        dist = load_spec({"kind": "weights", "weights": [proportion, 1 - proportion]})
        mag = abs(dist.amplitude(1))
        traj = iterate(dist, 1, 10**6)
        eps = np.finfo(float).eps
        cos_theta = math.sqrt(1 - mag * mag)
        with mp.workdps(50):
            theta = mp.asin(mp.mpf(mag))
            for r in self.CHECKPOINTS:
                angle = (2 * r + 1) * theta
                a = mp.cos(angle) / mp.cos(theta)
                b = mp.sin(angle) - mp.mpf(mag) * a
                prob = mp.sin(angle) ** 2
                closed = math.sin((2 * r + 1) * math.asin(mag)) ** 2
                got = mp.mpf(float(traj.prob[r]))
                assert abs(got - prob) <= 2 * r * eps / cos_theta, f"r = {r}"
                assert abs(mp.mpc(complex(traj.a[r])) - a) <= 2 * r * eps / cos_theta**2, f"r = {r}"
                assert abs(mp.mpc(complex(traj.b[r])) - b) <= 2 * r * eps / cos_theta**2, f"r = {r}"
                assert abs(closed - prob) <= 4 * r * eps, f"r = {r}"
