"""Tests for the damped-oscillation approximation layer.

Finite differences on the closed form act as the independent check: the
fitted curves must satisfy the original first- and second-order systems,
not merely their own evaluation formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgrover import csvio
from wgrover.amplitudes import AmplitudeDistribution, load_spec, truncated_coherent, uniform
from wgrover.continuum import (
    ContinuumSolution,
    _libm_exp,
    delta_tilde,
    eval_fa,
    eval_fb,
    fit_one_step_solution,
    period,
    predicted_peak_step,
)
from wgrover.errors import DomainError
from wgrover.grover_core import first_crests, first_peak, first_peaks, iterate

P20 = 1 / math.sqrt(20)


def two_label_dist(p: float) -> AmplitudeDistribution:
    amps = np.array([p, math.sqrt(1 - p * p)], dtype=np.complex128)
    return AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)


class TestDeltaTilde:
    def test_maximum_at_equal_split(self):
        assert delta_tilde(1 / math.sqrt(2)) == pytest.approx(0.5, abs=1e-15)

    def test_n20_value(self):
        assert delta_tilde(P20) == pytest.approx(0.21794494717703367, abs=1e-15)
        assert delta_tilde(P20) == pytest.approx(0.217945, abs=1e-6)

    def test_large_database_limit(self):
        n = 10**6
        p = 1 / math.sqrt(n)
        assert delta_tilde(p) == pytest.approx(p, rel=1e-3)

    def test_degenerate_rejected(self):
        # |P| = 1e-170 squares to 0; the rule tests the square
        for p in (0.0, 1.0, 1e-170):
            with pytest.raises(DomainError, match="degenerate"):
                delta_tilde(p)
            with pytest.raises(DomainError, match="degenerate"):
                period(p)

    def test_array_matches_scalar(self):
        amps = truncated_coherent(0.8 * np.exp(0.3j), 1, 20).amplitudes
        mag = np.hypot(amps.real, amps.imag)
        assert delta_tilde(mag).tolist() == [delta_tilde(p) for p in amps.tolist()]
        with pytest.raises(DomainError, match="degenerate"):
            delta_tilde(np.array([0.5, 0.0]))


class TestFitSolution:
    def test_n20_one_step_conditions(self):
        sol = fit_one_step_solution(P20)
        assert sol.c1 == 0.8
        assert sol.c2 == pytest.approx(-0.6423640548375729, abs=1e-15)
        assert sol.gamma == pytest.approx(-0.1, abs=1e-15)
        assert sol.beta == pytest.approx(2 * 0.21794494717703367, abs=1e-15)

    def test_starts_at_the_recurrence_one_step_values(self):
        # f_a(0) = a_1 bit for bit, f_b(0) = b_1 to rounding
        traj = iterate(uniform(20), 1, 1)
        sol = fit_one_step_solution(P20)
        assert complex(sol.c1) == traj.a[1]
        assert eval_fb(sol, 0.0) == pytest.approx(traj.b[1].real, abs=1e-15)

    def test_zero_c1_gives_pure_sine(self):
        # |P| = 1/2: a_1 = 0, b_1 = 1, characteristic roots -1/2 +- i sqrt(3)/2
        sol = fit_one_step_solution(0.5)
        assert sol.c1 == 0.0
        assert sol.c2 == pytest.approx(-1.1547005383792517, abs=1e-15)
        assert (sol.gamma, sol.beta) == (-0.5, pytest.approx(0.8660254037844386, abs=1e-15))

    def test_every_database_amplitude_is_oscillatory(self):
        # Delta = 16|P|^4 - 16|P|^2 < 0: roots gamma +- i beta with gamma < 0 < beta
        for dist in (uniform(2), uniform(50), truncated_coherent(0.8, 1, 20)):
            for k in dist.labels:
                sol = fit_one_step_solution(dist.amplitude(k))
                assert sol.gamma < 0 < sol.beta

    def test_complex_amplitude_uses_rotated_real_part(self):
        p = 0.3 * np.exp(1.1j)
        sol = fit_one_step_solution(p)
        ref = fit_one_step_solution(0.3)
        assert sol.c1 == ref.c1
        assert sol.c2 == pytest.approx(ref.c2, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, 1e-170, math.nan],
                             ids=["zero", "unit", "beyond-unit", "underflow", "nan"])
    def test_degenerate_rejected(self, p):
        with pytest.raises(DomainError, match="degenerate"):
            fit_one_step_solution(p)


class TestEvaluation:
    def test_fa_at_zero_is_c1(self):
        sol = fit_one_step_solution(P20)
        assert eval_fa(sol, 0.0) == sol.c1

    def test_fa_after_one_period_is_damped_c1(self):
        sol = fit_one_step_solution(P20)
        t = period(P20)
        assert eval_fa(sol, t) == pytest.approx(sol.c1 * math.exp(sol.gamma * t), abs=1e-12)

    def test_fa_zero_crossing_near_discrete_peak(self):
        sol = fit_one_step_solution(P20)
        x0 = predicted_peak_step(sol) - 1.0
        assert eval_fa(sol, x0) == pytest.approx(0.0, abs=1e-12)
        assert x0 + 1 == pytest.approx(3.0, abs=1.0)

    def test_fb_at_zero_recovers_initial_condition(self):
        sol = fit_one_step_solution(P20)
        assert eval_fb(sol, 0.0) == pytest.approx(2 * P20, abs=1e-12)
        sol2 = fit_one_step_solution(0.5)
        assert eval_fb(sol2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fb_peaks_where_fa_vanishes(self):
        sol = fit_one_step_solution(P20)
        x0 = predicted_peak_step(sol) - 1.0
        peak = eval_fb(sol, x0)
        for dx in (0.05, 0.2, 0.7):
            assert eval_fb(sol, x0 - dx) < peak
            assert eval_fb(sol, x0 + dx) < peak

    @pytest.mark.parametrize("p", [P20, 0.22076174600131218, 0.08, 0.4])
    def test_first_order_system_holds(self, p):
        # f_b' = 2 |P| f_a under the real convention, checked by central differences
        sol = fit_one_step_solution(p)
        h = 1e-4
        t = period(p)
        for x in np.linspace(0.0, 3 * t, 120):
            deriv = (eval_fb(sol, x + h) - eval_fb(sol, x - h)) / (2 * h)
            assert deriv == pytest.approx(2 * p * eval_fa(sol, x), abs=1e-6)

    @pytest.mark.parametrize("p", [P20, 0.22076174600131218, 0.08, 0.4])
    def test_second_order_equation_residual(self, p):
        sol = fit_one_step_solution(p)
        h = 1e-4
        t = period(p)
        for x in np.linspace(h, 3 * t, 120):
            fa = eval_fa(sol, x)
            fa_p = (eval_fa(sol, x + h) - eval_fa(sol, x - h)) / (2 * h)
            fa_pp = (eval_fa(sol, x + h) - 2 * fa + eval_fa(sol, x - h)) / h**2
            assert abs(fa_pp + 4 * p * p * fa_p + 4 * p * p * fa) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.05, max_value=0.6), x=st.floats(min_value=0.0, max_value=40.0))
    def test_envelope_identity(self, p, x):
        sol = fit_one_step_solution(p)
        t = period(p)
        damping = math.exp(-2 * p * p * t)
        assert eval_fa(sol, x + t) == pytest.approx(damping * eval_fa(sol, x), abs=1e-12)


class TestLibmExp:
    def test_matches_math_exp_bit_for_bit(self):
        # a seeded sweep of [-745, 0], both zeros, and arguments whose exp is subnormal
        rng = np.random.default_rng(28)
        values = np.concatenate([rng.uniform(-745.0, 0.0, 200_001),
                                 [0.0, -0.0, -708.4, -709.0, -730.0, -744.4, -745.0]])
        expected = np.array([math.exp(v) for v in values.tolist()])
        assert 0.0 < expected[-1] < expected[-5] < np.finfo(np.float64).smallest_normal
        got = _libm_exp(values.reshape(2, -1))
        assert got.shape == (2, values.size // 2)
        assert got.ravel().tobytes() == expected.tobytes()


class TestContinuumGrid:
    def test_three_periods_at_step_0_01(self):
        for proportion in np.logspace(-6, math.log10(0.99), 25):
            p = math.sqrt(proportion)
            expected = np.arange(round(3.0 * period(p) / 0.01) + 1) * 0.01
            grid = csvio.continuum_grid(fit_one_step_solution(p))
            assert grid.tobytes() == expected.tobytes(), proportion

    def test_deep_tail_target_refused(self):
        # k = 21 of the alpha = 0.8 window: [0, 3T] at step 0.01 is ~7e14 rows
        p_k = truncated_coherent(0.8, 1, 20).amplitude(21)
        with pytest.raises(DomainError, match="above the limit of 1000000"):
            csvio.continuum_grid(fit_one_step_solution(p_k))


class TestPeriod:
    def test_equal_split(self):
        assert period(1 / math.sqrt(2)) == pytest.approx(2 * math.pi, abs=1e-15)

    def test_n20(self):
        assert period(P20) == pytest.approx(14.41461568291336, abs=1e-12)
        assert period(P20) == pytest.approx(14.415, abs=1e-3)

    def test_grover_scaling(self):
        n = 10**6
        assert period(1 / math.sqrt(n)) == pytest.approx(math.pi * math.sqrt(n), rel=1e-3)


class TestPredictedPeak:
    def test_n20(self):
        sol = fit_one_step_solution(P20)
        pred = predicted_peak_step(sol)
        assert pred == pytest.approx(3.0515642153752505, abs=1e-12)
        assert abs(pred - 3) <= 1.0

    def test_n4_one_iteration(self):
        sol = fit_one_step_solution(0.5)
        assert predicted_peak_step(sol) == 1.0

    def test_coherent_target_agrees_with_recurrence(self):
        dist = truncated_coherent(0.8, 1, 20)
        p_k = dist.amplitude(3)
        pred = predicted_peak_step(fit_one_step_solution(p_k))
        r_star, _ = first_peak(iterate(dist, 3, 20))
        assert abs(pred - r_star) <= 1.0
        assert pred == pytest.approx(3.09695056509053, abs=1e-12)

    def test_degenerate_constants_rejected(self):
        sol = ContinuumSolution(p_k=0.5, gamma=-0.5, beta=0.8660254037844386, c1=0.0, c2=0.0)
        with pytest.raises(DomainError):
            predicted_peak_step(sol)

    def test_agreement_with_discrete_peak_below_p03(self):
        for p in np.arange(0.01, 0.301, 0.005):
            p = float(p)
            dist = two_label_dist(p)
            pred = predicted_peak_step(fit_one_step_solution(p))
            limit = int(math.pi / (4.0 * math.asin(abs(p))) - 0.5) + 5
            r_star, _ = first_peak(iterate(dist, 1, limit))
            assert abs(pred - r_star) <= 1.0, f"p={p}: pred={pred}, discrete={r_star}"


def weights_target(proportion: float):
    """The distribution of weights [proportion, 1 - proportion] and its |P(1)|."""
    dist = load_spec({"kind": "weights", "weights": [proportion, 1 - proportion]})
    return dist, abs(dist.amplitude(1))


class TestAgainstTheRecurrence:
    """Where the continuum stands in for the exact dynamics, and where it does not."""

    # fig2's target (uniform N = 20) and fig4's (alpha = 0.8, q1 = 1, N = 20, k = 3)
    FIGURE_TARGETS = [0.05, abs(truncated_coherent(0.8, 1, 20).amplitude(3)) ** 2]

    def test_peak_prediction_within_0_6_of_the_first_peak_up_to_a_quarter(self):
        # worst seen 0.564, at |P|^2 = 0.067
        for proportion in [*np.geomspace(1e-12, 0.25, 441).tolist(), *self.FIGURE_TARGETS]:
            _, mag = weights_target(proportion)
            r_star = float(first_peaks(first_crests(mag)))
            pred = predicted_peak_step(fit_one_step_solution(mag))
            assert abs(pred - r_star) <= 0.6, f"|P|^2 = {proportion}"

    def test_peak_prediction_a_whole_period_late_above_a_quarter(self):
        # c1 = 1 - 4|P|^2 < 0: f_b first falls, and its first crest comes a
        # period after the recurrence's peak; pred - T - r* lies in
        # [-0.79, -0.01] (-pi/4 at |P|^2 = 1/2, where r* = 1 is a tie)
        for proportion in np.linspace(0.25, 0.5, 101)[1:].tolist():
            _, mag = weights_target(proportion)
            r_star = float(first_peaks(first_crests(mag)))
            pred = predicted_peak_step(fit_one_step_solution(mag))
            assert -0.8 <= pred - period(mag) - r_star <= 0.0, f"|P|^2 = {proportion}"

    @pytest.mark.parametrize("proportion", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_first_period_gap_tracks_two_pi_p(self, proportion):
        # f_a decays by 1 - e^(-2 pi |P|) over a period and a_r does not:
        # the gap / (2 pi |P|) is 0.9997 at 1e-8 and 0.968 at 1e-4
        dist, mag = weights_target(proportion)
        t_period = period(mag)
        xs = np.arange(math.floor(t_period) + 1, dtype=np.float64)
        a = iterate(dist, 1, len(xs)).a
        gap = np.abs(eval_fa(fit_one_step_solution(mag), xs) - a.real[1:]).max()
        assert gap == pytest.approx(2 * math.pi * mag, rel=0.05)

    @pytest.mark.parametrize("phase", [0.0, 2.5])
    @pytest.mark.parametrize("proportion", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_first_period_gap_of_f_b(self, proportion, phase):
        # f_b is the phase-rotated b_r, b_r conj(P)/|P|, whose imaginary part
        # is rounding (seen up to 6.7e-15).  With u = 2|P| x, f_b decays off a
        # sine of u by 1 - e^(-|P| u) ~ |P| u, so the gap over the first
        # period is |P| max u|sin u| = 4.81 |P|; gap / (4.81 |P|) is 0.9997
        # at 1e-8 and 0.971 at 1e-4
        mag = math.sqrt(proportion)
        p = mag * complex(math.cos(phase), math.sin(phase))
        dist = AmplitudeDistribution(labels=range(1, 3), amplitudes=[p, math.sqrt(1 - proportion)])
        p = dist.amplitude(1)
        xs = np.arange(math.floor(period(p)) + 1, dtype=np.float64)
        rotated = iterate(dist, 1, len(xs)).b[1:] * p.conjugate() / abs(p)
        assert np.abs(rotated.imag).max() < 1e-13
        u = np.linspace(0.0, 2 * math.pi, 100_001)
        gap = np.abs(eval_fb(fit_one_step_solution(p), xs) - rotated.real).max()
        assert gap == pytest.approx((u * np.abs(np.sin(u))).max() * abs(p), rel=0.05)

    def test_aliased_branch_predicts_after_the_first_peak(self):
        # above |P| = 1/sqrt(2) the recurrence's crest aliases to an early r*
        # (grover_core.first_crests) and the prediction lags it by 0 to 0.72 T
        # (seen 8e-5 T at |P|^2 = 1 - 1e-8, 0.714 T just above |P|^2 = 1/2);
        # on fig4's window, k = 1, |P|^2 = 0.714, `wgrover continuum` prints
        # x*=6.34887 and `wgrover simulate` r*=2
        dist = truncated_coherent(0.8, 1, 20)
        mag = abs(dist.amplitude(1))
        assert mag > 1 / math.sqrt(2)
        assert predicted_peak_step(fit_one_step_solution(mag)) == pytest.approx(6.34887, abs=5e-6)
        assert first_peak(iterate(dist, 1, 10))[0] == 2
        for above in np.geomspace(0.5, 1e-8, 201)[1:].tolist():
            _, mag = weights_target(1 - above)
            assert mag > 1 / math.sqrt(2)
            r_star = float(first_peaks(first_crests(mag)))
            lag = predicted_peak_step(fit_one_step_solution(mag)) - r_star
            assert 0.0 < lag < 0.72 * period(mag), f"|P|^2 = 1 - {above}"


class TestSolutionType:
    def test_only_oscillatory_parameters_accepted(self):
        with pytest.raises(DomainError):
            ContinuumSolution(p_k=0.5, gamma=0.1, beta=1.0, c1=1.0, c2=0.0)
        with pytest.raises(DomainError):
            ContinuumSolution(p_k=0.5, gamma=-0.1, beta=0.0, c1=1.0, c2=0.0)
