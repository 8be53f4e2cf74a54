"""Tests for distribution construction, normalization, and queries."""

import cmath
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from wgrover import amplitudes
from wgrover.amplitudes import (
    MAX_ENTRIES,
    NORM_PIECE,
    AmplitudeDistribution,
    load_spec,
    truncated_coherent,
    uniform,
)
from wgrover.csvio import write_distribution
from wgrover.errors import DomainError, LabelNotFoundError


TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps


def naive_coherent_magnitudes(alpha_abs: float, q1: int, n: int) -> list[float]:
    """Direct evaluation with exact integer factorials; overflows for huge k."""
    lam = alpha_abs**2
    norm = sum(
        math.exp(-lam) * lam**q / math.factorial(q) for q in range(q1, q1 + n + 1)
    ) ** -0.5
    return [
        norm * math.exp(-lam / 2) * alpha_abs**k / math.sqrt(math.factorial(k))
        for k in range(q1, q1 + n + 1)
    ]


def poisson_window_errors(alpha: complex, q1: int, n: int) -> tuple[list, list]:
    """The coherent window's |P(k)|^2 against the Poisson window lam^k / k!, lam = |alpha|^2,
    renormalized over the same labels in 60-digit mpmath: relative errors where the reference
    is at least the smallest normal double, absolute errors where it is below."""
    spec = {"kind": "coherent", "alpha_re": alpha.real, "alpha_im": alpha.imag, "q1": q1, "n": n}
    got = load_spec(spec).proportions().tolist()
    with mp.workdps(60):
        log_lam = mp.log(mp.mpf(alpha.real) ** 2 + mp.mpf(alpha.imag) ** 2)
        logs = [k * log_lam - mp.loggamma(k + 1) for k in range(q1, q1 + n + 1)]
        weights = [mp.exp(v - max(logs)) for v in logs]
        want = [w / mp.fsum(weights) for w in weights]
        rel = [float(abs(mp.mpf(g) / w - 1)) for g, w in zip(got, want) if w >= TINY]
        far = [abs(g - float(w)) for g, w in zip(got, want) if w < TINY]
    return rel, far


def weights_dist(weights) -> AmplitudeDistribution:
    return load_spec({"kind": "weights", "weights": weights})


def _forbid_building(monkeypatch):
    """Make every distribution builder behind load_spec fail if it is reached."""
    def build(*args):
        raise AssertionError("load_spec built a distribution past MAX_ENTRIES")
    for name in ("uniform", "truncated_coherent", "_weights_distribution"):
        monkeypatch.setattr(amplitudes, name, build)


class TestUniform:
    def test_n4_amplitudes_exact(self):
        dist = uniform(4)
        np.testing.assert_array_equal(dist.amplitudes, np.full(4, 0.5 + 0j))
        assert dist.labels == range(1, 5)

    def test_n20_amplitude_value(self):
        dist = uniform(20)
        assert dist.amplitude(7) == pytest.approx(1 / math.sqrt(20), abs=0)
        assert abs(dist.amplitude(7)) == pytest.approx(0.223607, abs=1e-6)

    def test_trivial_sizes_rejected(self):
        with pytest.raises(DomainError):
            uniform(1)
        with pytest.raises(DomainError):
            uniform(0)


class TestTruncatedCoherent:
    def test_normalization_factor_against_naive_sum(self):
        lam = 0.64
        naive = sum(
            math.exp(-lam) * lam**q / math.factorial(q) for q in range(1, 22)
        ) ** -0.5
        # P(1) = N_q e^{-|a|^2/2} a / sqrt(1!), so N_q = |P(1)| e^{|a|^2/2} / |a|
        n_q = abs(truncated_coherent(0.8, 1, 20).amplitude(1)) * math.exp(lam / 2) / 0.8
        assert n_q == pytest.approx(naive, rel=1e-12)
        assert n_q == pytest.approx(1.4545, abs=1e-4)

    def test_reference_amplitudes(self):
        dist = truncated_coherent(0.8, 1, 20)
        mags = naive_coherent_magnitudes(0.8, 1, 20)
        assert abs(dist.amplitude(3)) == pytest.approx(mags[2], rel=1e-12)
        assert abs(dist.amplitude(3)) == pytest.approx(0.2208, abs=1e-4)
        assert abs(dist.amplitude(1)) == pytest.approx(0.845, abs=1e-3)
        assert dist.proportions()[0] == pytest.approx(0.714, abs=1e-3)

    def test_window_is_n_plus_one_labels(self):
        dist = truncated_coherent(0.8, 1, 20)
        assert dist.labels == range(1, 22)
        assert dist.size == 21

    def test_q1_zero_window(self):
        dist = truncated_coherent(1.2, 0, 5)
        assert dist.labels == range(0, 6)
        assert np.sum(dist.proportions()) == pytest.approx(1.0, abs=1e-12)

    # at q1 = 10^16, arg(alpha) * k as one double would lose the step between labels
    @pytest.mark.parametrize("mag, q1", [(0.8, 1), (1e8, 10**16)])
    def test_complex_alpha_carries_phase_k_minus_q1_arg_alpha(self, mag, q1):
        alpha = mag * np.exp(0.3j)
        dist = truncated_coherent(alpha, q1, 10)
        for k in dist.labels:
            expected_phase = 0.3 * (k - q1)
            actual = np.angle(dist.amplitude(k))
            assert np.exp(1j * actual) == pytest.approx(np.exp(1j * expected_phase), abs=1e-12)
        # magnitudes are phase-independent
        ref = truncated_coherent(mag, q1, 10)
        np.testing.assert_allclose(
            np.abs(dist.amplitudes), np.abs(ref.amplitudes), rtol=1e-12
        )

    def test_degenerate_alpha_rejected(self):
        with pytest.raises(DomainError):
            truncated_coherent(0.0, 1, 20)
        with pytest.raises(DomainError):
            truncated_coherent(0.8, -1, 20)
        with pytest.raises(DomainError):
            truncated_coherent(0.8, 1, 1)

    def test_log_domain_survives_deep_tails(self):
        # naive evaluation of these would overflow the factorial
        dist = truncated_coherent(2.0, 280, 40)
        assert np.sum(dist.proportions()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(dist.amplitudes) > 0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        q1=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=2, max_value=40),
    )
    def test_log_domain_matches_naive_where_naive_is_finite(self, alpha, q1, n):
        if q1 + n > 100:
            n = 100 - q1
            if n < 2:
                return
        dist = truncated_coherent(alpha, q1, n)
        naive = naive_coherent_magnitudes(alpha, q1, n)
        np.testing.assert_allclose(np.abs(dist.amplitudes), naive, rtol=1e-10)

    @pytest.mark.xfail(
        reason="a fixed-size window far above |alpha|^2 concentrates its weight on "
        "the first label (each successive amplitude shrinks by |alpha|/sqrt(k)), so "
        "the stated near-uniform band is unreachable for q1=200, alpha=0.8",
        strict=True,
    )
    def test_large_q1_near_uniform_as_stated(self):
        dist = truncated_coherent(0.8, 200, 20)
        mags = np.abs(dist.amplitudes)
        assert mags.max() / mags.min() < 1.05

    def test_window_at_poisson_mode_is_near_uniform(self):
        # the unstructured limit that does hold: window centered on a large mode
        dist = truncated_coherent(math.sqrt(800.0), 790, 20)
        mags = np.abs(dist.amplitudes)
        assert mags.max() / mags.min() < 1.05

    @pytest.mark.parametrize("q1", [0, 100, 1000, 10_000, 10**8, 10**12, 10**14, 10**16,
                                    2**63 - 21])
    @pytest.mark.parametrize("alpha", [0.8, 3.2, 100.0, 1e-100, 1e100])
    def test_deep_tails_against_mpmath_poisson_window(self, alpha, q1):
        # |P(k)|^2 is lam^k / k! renormalized over the window.  The running sum
        # adds N log-ratios ln(lam) - ln j, each within a few eps of its size,
        # and the shift, exp and norm add a few eps each, so the bound scales
        # with N + 1 plus the sum of their sizes.  A |P(k)|^2 below the
        # smallest normal double keeps no relative precision, so there it
        # only has to be within that of the reference.
        labels = range(q1, q1 + 21)
        got = truncated_coherent(alpha, q1, 20).proportions()
        with mp.workdps(60):
            logs = [k * mp.log(mp.mpf(alpha) ** 2) - mp.loggamma(k + 1) for k in labels]
            weights = [mp.exp(v - max(logs)) for v in logs]
            want = [w / mp.fsum(weights) for w in weights]
            rel = [abs(mp.mpf(g) / w - 1) for g, w in zip(got.tolist(), want) if w >= TINY]
            far = [abs(g - float(w)) for g, w in zip(got.tolist(), want) if w < TINY]
        scale = 21 + sum(abs(2 * math.log(alpha) - math.log(j)) for j in labels[1:])
        assert float(max(rel)) <= 4 * np.finfo(float).eps * scale
        assert max(far, default=0.0) <= TINY

    # Off the grid above, the bound needs two more terms (first-order rounding analysis).
    # Each log-ratio ln|alpha|^2 - ln j is the difference of two logarithms, each rounded
    # relative to its own size, so |ln|alpha|^2| + ln j replaces |ln|alpha|^2 - ln j|; the
    # two cancel for a window at the Poisson mode.  And the running sum rounds each partial
    # sum relative to its size (Higham, Accuracy and Stability of Numerical Algorithms,
    # section 4.2), which adds the sum over k of |sum_{j <= k} (ln|alpha|^2 - ln j)|.
    # The first example, far above its mode, is 4.07 eps times the grid's scale; the second,
    # at its mode, is 15 eps times the grid's scale plus the partial sums.
    @settings(deadline=None)
    @given(
        alpha=st.builds(cmath.rect,
                        st.floats(math.log(2.2e-162), math.log(1.3e154)).map(math.exp),
                        st.floats(-math.pi, math.pi)),
        q1=st.integers(0, 62).flatmap(lambda b: st.integers(2**b - 1, 2**(b + 1) - 2)),
        n=st.integers(2, 64),
    )
    @example(alpha=complex(2.3538526683702e17), q1=686_636_838_866_726, n=58)
    @example(alpha=complex(-61189555.74409499, 936362630.5490599), q1=880_519_137_620_914_688,
             n=63)
    def test_any_admitted_window_against_mpmath_poisson_window(self, alpha, q1, n):
        q1 = min(q1, 2**63 - n - 1)
        rel, far = poisson_window_errors(alpha, q1, n)
        log_lam = 2 * math.log(abs(alpha))
        logs = [math.log(j) for j in range(q1 + 1, q1 + n + 1)]
        scale = (n + 1 + sum(abs(log_lam) + v for v in logs)
                 + sum(map(abs, itertools.accumulate(log_lam - v for v in logs))))
        assert max(rel) <= 4 * EPS * scale
        assert max(far, default=0.0) <= TINY


class TestFromWeights:
    """A weights spec, built through load_spec."""

    def test_symmetric_pair(self):
        dist = weights_dist([0.5, 0.5])
        np.testing.assert_allclose(
            dist.amplitudes, np.full(2, 1 / math.sqrt(2)), rtol=1e-15
        )

    def test_asymmetric_pair(self):
        dist = weights_dist([0.25, 0.75])
        assert dist.amplitude(1) == pytest.approx(0.5, abs=0)
        assert dist.amplitude(2) == pytest.approx(0.8660254037844386, abs=1e-15)

    def test_phases_are_zero(self):
        dist = weights_dist([0.1, 0.2, 0.3, 0.4])
        assert np.all(dist.amplitudes.imag == 0)
        assert np.all(dist.amplitudes.real > 0)

    def test_single_entry_rejected(self):
        with pytest.raises(DomainError, match="at least 2 entries"):
            weights_dist([1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=30)
    )
    def test_proportion_round_trip(self, raw):
        total = sum(raw)
        weights = [w / total for w in raw]
        dist = weights_dist(weights)
        for k, w in zip(dist.labels, weights):
            assert abs(dist.amplitude(k)) ** 2 == pytest.approx(w, abs=1e-12)


# A weight that spans the 300 decades below 1, or a subnormal.
SPREAD_WEIGHT = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 0)),
    st.floats(min_value=5e-324, max_value=2.0**-1022, allow_subnormal=True),
)


def assert_renormalized(weights):
    """weights that pass the 1e-6 window and the positivity check load, and w / fsum w sums to 1."""
    total = math.fsum(weights)
    props = np.array(weights, dtype=np.float64) / total
    assert abs(total - 1.0) <= amplitudes.WEIGHT_SUM_TOL and (props > 0).all()
    assert abs(math.fsum(props.tolist()) - 1.0) <= 4 * np.finfo(float).eps
    assert load_spec({"kind": "weights", "weights": weights}).size == len(weights)


class TestRenormalizedWeights:
    """Why _weights_distribution needs no second sum check: w / fsum w sums to 1 within 4 eps."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(SPREAD_WEIGHT, min_size=1, max_size=60),
        st.floats(min_value=1 - 9e-7, max_value=1 + 9e-7),
    )
    def test_accepted_weights_sum_to_one(self, raw, drift):
        total = math.fsum(raw)
        # 0.5 keeps at least two entries; the others share the rest and the drift
        weights = [0.5 * drift] + [0.5 * x / total * drift for x in raw]
        assume(all(w > 0 for w in weights))
        assert_renormalized(weights)

    def test_a_million_weights_over_300_decades(self):
        w = 10.0 ** np.random.default_rng(7).uniform(-300, 0, MAX_ENTRIES)
        assert_renormalized((w / math.fsum(w.tolist()) * (1 + 8e-7)).tolist())

    def test_subnormal_tail(self):
        tail = [5e-324] * 1000 + [1e-310, 2.0**-1050, 3e-320]
        assert_renormalized([0.25, 0.75 - 5e-7] + tail)


class TestProportion:
    def test_uniform_everywhere(self):
        props = uniform(20).proportions()
        assert props.shape == (20,)
        assert all(p == pytest.approx(0.05, abs=1e-15) for p in props)

    def test_unknown_label(self):
        with pytest.raises(LabelNotFoundError):
            uniform(4).amplitude(5)
        with pytest.raises(LabelNotFoundError):
            uniform(4).amplitude(0)


class TestIndexOf:
    def test_window_ends_and_neighbours(self):
        dist = truncated_coherent(0.8, 5, 9)  # labels 5..14
        assert dist.index_of(5) == 0
        assert dist.index_of(14) == 9
        assert dist.index_of(np.int64(6)) == 1
        for k in (4, 15):
            with pytest.raises(LabelNotFoundError, match=r"label \d+ not in distribution \(labels 5\.\.14\)"):
                dist.index_of(k)

    @pytest.mark.parametrize("k", [6.0, 6.5, "6", None])
    def test_non_integer_label_not_found(self, k):
        with pytest.raises(LabelNotFoundError):
            truncated_coherent(0.8, 5, 9).index_of(k)


# Names the OpenBLAS kernels that numpy loaded and, if they are just Nehalem
# (SSE2), builds uniform(786437) and uniform(10^6) and prints "built".
SSE2_CHILD = """
import ctypes
import wgrover

cores = set()
for path in {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}:
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        getter = getattr(ctypes.CDLL(path), name, None)
        if getter is not None:
            getter.restype = ctypes.c_char_p
            cores.add(getter().decode())
print(*sorted(cores), end=" ")
if cores == {"Nehalem"}:
    wgrover.amplitudes.uniform(786437)
    wgrover.amplitudes.uniform(10**6)
    print("built", end="")
"""


# Prints the sha256 of the coherent window alpha = 1000, q1 = 0, N = 10^6.
THREADS_CHILD = """
import hashlib
from wgrover.amplitudes import load_spec

dist = load_spec({"kind": "coherent", "alpha_re": 1000.0, "q1": 0, "n": 10**6})
print(hashlib.sha256(dist.amplitudes.tobytes()).hexdigest())
"""


class TestInvariants:
    @pytest.mark.parametrize(
        "dist",
        [
            uniform(2),
            uniform(97),
            truncated_coherent(0.8, 1, 20),
            truncated_coherent(3.2, 1, 20),
            truncated_coherent(1.5, 12, 7),
            weights_dist([0.3, 0.2, 0.5]),
        ],
        ids=["u2", "u97", "coh08", "coh32", "coh-window", "weights"],
    )
    def test_unit_total_probability(self, dist):
        assert abs(float(np.sum(dist.proportions())) - 1.0) <= 1e-12

    @pytest.mark.parametrize("amps", [1.0, [[0.6, 0.8]], np.zeros((2, 2))],
                             ids=["scalar", "row", "matrix"])
    def test_amplitudes_must_be_one_dimensional(self, amps):
        with pytest.raises(DomainError, match="1-d"):
            AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(DomainError):
            AmplitudeDistribution(labels=range(1, 3), amplitudes=np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "labels", [(1, 3, 4), (1, 3, 3), (3, 2, 1), range(1, 7, 2), range(3, 0, -1),
                   (1.5, 2.5, 3.5), (4, 5, 6), [4, 5, 6], np.arange(4, 7)],
        ids=["gap", "repeat", "descending", "step-2", "step-minus-1", "float",
             "tuple", "list", "array"]
    )
    def test_labels_must_be_a_step_1_range(self, labels):
        amps = np.full(3, 1 / math.sqrt(3))
        with pytest.raises(DomainError, match="labels must be a range with step 1"):
            AmplitudeDistribution(labels=labels, amplitudes=amps)

    def test_labels_stored_as_given(self):
        amps = np.full(3, 1 / math.sqrt(3))
        labels = range(4, 7)
        assert AmplitudeDistribution(labels=labels, amplitudes=amps).labels is labels

    @pytest.mark.parametrize(
        "start", [2**70, 2**63 - 1, -2**63 - 1, -2**70], ids=["2^70", "past-top", "past-bottom",
                                                           "-2^70"])
    def test_labels_must_fit_in_int64(self, start):
        # the CSV writers hold labels as int64; a wider label used to pass here
        # and raise OverflowError from write_distribution
        with pytest.raises(DomainError, match=re.escape("labels must lie in [-2^63, 2^63)")):
            AmplitudeDistribution(labels=range(start, start + 2), amplitudes=[0.6, 0.8])

    @pytest.mark.parametrize("start", [2**63 - 2, -2**63], ids=["top", "bottom"])
    def test_int64_edge_labels_are_written(self, start, tmp_path):
        dist = AmplitudeDistribution(labels=range(start, start + 2), amplitudes=[0.6, 0.8])
        path = tmp_path / "dist.csv"
        write_distribution(path, dist.labels, dist.proportions())
        rows = path.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [start, start + 1]

    def test_immutable_amplitudes(self):
        dist = uniform(4)
        with pytest.raises(ValueError):
            dist.amplitudes[0] = 1.0

    def test_weighted_database_validation(self):
        with pytest.raises(DomainError, match="all proportions must be positive"):
            weights_dist([0.5, -0.5, 1.0])
        with pytest.raises(DomainError, match="must be within 1e-06 of 1"):
            weights_dist([0.5, 0.6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_non_finite_amplitudes_rejected(self, bad):
        amps = np.array([bad, 0.5, 0.5], dtype=np.complex128)
        with pytest.raises(DomainError, match="finite"):
            AmplitudeDistribution(labels=range(1, 4), amplitudes=amps)

    @pytest.mark.parametrize("bad, match", [(math.nan, "finite"), (math.inf, "finite"),
                                            (1e155, "finite"), (1 + 2e-12, "normalized"),
                                            (1 - 2e-12, "normalized")],
                             ids=["nan", "inf", "overflow", "2e-12-over", "2e-12-under"])
    def test_one_bad_amplitude_or_sum_in_a_million_rejected(self, bad, match):
        amps = np.full(10**6, 1e-3, dtype=np.complex128)
        if match == "normalized":
            amps *= math.sqrt(bad)
        else:
            amps[654_321] = bad
        with pytest.raises(DomainError, match=match):
            AmplitudeDistribution(labels=range(1, 10**6 + 1), amplitudes=amps)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_unit_sum_holds_on_the_sse2_blas_kernel(self):
        # one np.vdot over all of uniform(10^6) on OpenBLAS's SSE2 kernel sums
        # |P|^2 to 1 - 1.3e-11, past NORM_TOL; the check sums it in pieces
        env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
               "PYTHONPATH": str(Path(amplitudes.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", SSE2_CHILD], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        if not out.endswith("built"):
            pytest.skip(f"numpy's BLAS did not run OpenBLAS's Nehalem kernel: {out!r}")

    def test_coherent_window_bits_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits one dot over a whole 10^6-label window among its threads, which
        # changes the norm's last bits; a NORM_PIECE piece is too short to split
        def window_hash(threads):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(amplitudes.__file__).parents[1])}
            return subprocess.run([sys.executable, "-c", THREADS_CHILD], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout
        assert window_hash("1") == window_hash("2")

    def test_one_piece_sums_as_the_vector_norm(self):
        # so a window of at most NORM_PIECE labels, each golden one among them, is
        # divided by the same norm as by np.linalg.norm, bit for bit
        rng = np.random.default_rng(30)
        for n in range(1, NORM_PIECE + 1):
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3)
            assert math.sqrt(amplitudes._sum_of_squares(x)) == np.linalg.norm(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_proportions_rejected(self, bad):
        # a non-finite weight makes the sum non-finite, which the 1e-6 window rejects first
        with pytest.raises(DomainError, match=f"weights sum to {bad!r}"):
            weights_dist([bad, 0.5, 0.5])


class TestLoadSpec:
    def test_uniform_kind(self):
        dist = load_spec({"kind": "uniform", "n": 20})
        assert dist.size == 20
        assert dist.proportions()[2] == pytest.approx(0.05)

    def test_coherent_kind(self):
        dist = load_spec(
            {"kind": "coherent", "alpha_re": 0.8, "alpha_im": 0.0, "q1": 1, "n": 20}
        )
        assert dist.size == 21
        assert abs(dist.amplitude(3)) == pytest.approx(0.2208, abs=1e-4)

    def test_coherent_kind_defaults_imag_to_zero(self):
        a = load_spec({"kind": "coherent", "alpha_re": 0.8, "q1": 1, "n": 5})
        b = load_spec({"kind": "coherent", "alpha_re": 0.8, "alpha_im": 0.0, "q1": 1, "n": 5})
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=0)

    def test_weights_kind_renormalizes_small_drift(self):
        drifted = [0.25, 0.75 + 5e-7]
        dist = load_spec({"kind": "weights", "weights": drifted})
        assert float(np.sum(dist.proportions())) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("weights", [[0.25, 0.75 + 5e-7], [0.1, 0.2, 0.3, 0.4], [1, 1e-9]])
    def test_weights_kind_matches_weighted_database_path(self, weights):
        # the weighted-database encoding: amplitude sqrt(p_n), phase 0
        dist = load_spec({"kind": "weights", "weights": weights})
        ref = np.sqrt(np.array(weights, dtype=np.float64) / math.fsum(weights))
        assert dist.labels == range(1, len(weights) + 1)
        assert np.array_equal(dist.amplitudes, ref)

    @pytest.mark.parametrize("weights", [[0.5, "0.5"], [True, 0.0], [0.5, False, 0.5], [[0.5], [0.5]],
                                         [0.5, None]])
    def test_weights_must_be_numbers(self, weights):
        with pytest.raises(DomainError, match="list of numbers"):
            load_spec({"kind": "weights", "weights": weights})

    @pytest.mark.parametrize("weights", [[0.5, 0.5 + 2e-6], [0.0, 1.0], [-0.5, 1.5], [1.0], []])
    def test_weights_kind_checks(self, weights):
        with pytest.raises(DomainError):
            load_spec({"kind": "weights", "weights": weights})

    def test_weights_kind_rejects_large_drift(self):
        with pytest.raises(DomainError):
            load_spec({"kind": "weights", "weights": [0.25, 0.751]})

    @pytest.mark.parametrize("n", [MAX_ENTRIES + 1, 10**12])
    @pytest.mark.parametrize("kind, fields", [("uniform", {}),
                                              ("coherent", {"alpha_re": 0.8, "q1": 1})])
    def test_n_above_cap_rejected_before_allocation(self, monkeypatch, kind, fields, n):
        _forbid_building(monkeypatch)
        with pytest.raises(DomainError, match=f"'n' must be <= {MAX_ENTRIES}, got {n}"):
            load_spec({"kind": kind, "n": n, **fields})

    def test_weights_above_cap_rejected_before_building(self, monkeypatch):
        _forbid_building(monkeypatch)
        with pytest.raises(DomainError, match=f"at most {MAX_ENTRIES} entries"):
            load_spec({"kind": "weights", "weights": [1.0 / MAX_ENTRIES] * (MAX_ENTRIES + 1)})

    def test_n_at_cap_accepted(self):
        assert load_spec({"kind": "uniform", "n": MAX_ENTRIES}).size == MAX_ENTRIES

    @pytest.mark.parametrize("spec, unknown", [
        ({"kind": "uniform", "n": 4, "q1": 1}, "'q1'"),
        ({"kind": "coherent", "alpha_re": 0.8, "alpha_img": 0.5, "q1": 1, "n": 4}, "'alpha_img'"),
        ({"kind": "weights", "weights": [0.5, 0.5], "n": 2, "N": 2}, "'N', 'n'"),
    ])
    def test_field_the_kind_does_not_read_rejected_before_building(self, monkeypatch, spec,
                                                                   unknown):
        _forbid_building(monkeypatch)
        with pytest.raises(DomainError, match=f"unknown field\\(s\\) {unknown} in a {spec['kind']}"):
            load_spec(spec)

    @pytest.mark.parametrize("kind", [["uniform"], {"a": 1}, None, 1.5])
    def test_unhashable_or_non_string_kind_is_unknown(self, kind):
        with pytest.raises(DomainError, match="unknown distribution kind"):
            load_spec({"kind": kind, "n": 4})

    def test_bad_specs(self):
        with pytest.raises(DomainError):
            load_spec({"kind": "nope"})
        with pytest.raises(DomainError):
            load_spec({"kind": "uniform"})
        with pytest.raises(DomainError):
            load_spec({"kind": "weights", "weights": "x"})
        with pytest.raises(DomainError):
            load_spec([1, 2, 3])

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "weights", "weights": [math.nan, 0.5, 0.5]},
            {"kind": "weights", "weights": [math.inf, 0.5, 0.5]},
            {"kind": "coherent", "alpha_re": math.nan, "q1": 1, "n": 20},
            {"kind": "coherent", "alpha_re": 0.8, "alpha_im": math.inf, "q1": 1, "n": 20},
            {"kind": "coherent", "alpha_re": 1e200, "q1": 1, "n": 20},
        ],
        ids=["weights-nan", "weights-inf", "alpha-nan", "alpha-inf", "alpha-overflow"],
    )
    def test_non_finite_inputs_rejected(self, spec):
        with pytest.raises(DomainError):
            load_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "uniform", "n": 20.9},
            {"kind": "uniform", "n": 20.0},
            {"kind": "uniform", "n": True},
            {"kind": "uniform", "n": "20"},
            {"kind": "coherent", "alpha_re": 0.8, "q1": 1.5, "n": 20},
            {"kind": "coherent", "alpha_re": 0.8, "q1": 1, "n": 20.0},
            {"kind": "coherent", "alpha_re": 0.8, "q1": False, "n": 20},
        ],
    )
    def test_integer_fields_must_be_integers(self, spec):
        with pytest.raises(DomainError, match="must be an integer"):
            load_spec(spec)
