"""Exact discrete Grover evolution on a weighted database.

Two independent realizations of the same dynamics live here:

* the 2-d coefficient recurrence
      a_r = (1 - 4|P(k)|^2) a_{r-1} - 2 conj(P(k)) b_{r-1}
      b_r = b_{r-1} + 2 P(k) a_{r-1}
  tracking the state G^r|D> = a_r|D> + b_r|k>, and

* a matrix-free dense oracle applying G = U_D U_k to a full state vector
  (one component flip, one rank-1 reflection, O(N) per step).

Because |D> and |k> are not orthogonal, the measurable success amplitude
is a*P(k) + b rather than b alone; all probabilities reported here use
that projection, which keeps them in [0, 1] and in exact agreement with
the dense oracle.

That probability is exactly sin^2((2r + 1) asin|P(k)|), which is how
first_crests and first_peaks find the first peak of any number of targets
without stepping.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeDistribution, target_proportions
from .errors import ConsistencyError, DomainError, NoPeakError

PROB_OVERSHOOT_TOL = 1e-9
SUBSPACE_RESIDUAL_TOL = 1e-8
STATE_NORM_TOL = 1e-9
# Above this |P(k)| one step turns sin^2((2r + 1) theta) past its crest.
ALIAS_EDGE = math.sqrt(0.5)
# iterate collects this many steps in Python lists before it copies them
# into its preallocated arrays.
BLOCK_STEPS = 4096


@dataclass(frozen=True)
class TwoDState:
    """Coefficient pair (a, b) of the non-orthogonal decomposition a|D> + b|k>."""

    a: complex
    b: complex


@dataclass(frozen=True)
class TrajectoryPoint:
    r: int
    state: TwoDState
    success_prob: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """History of the recurrence for one target label, as arrays over r.

    a[r], b[r] (complex128) are the coefficients (a_r, b_r) and prob[r]
    (float64) the success probability |a_r P(k) + b_r|^2; r = 0 is always
    (1, 0) with probability |P(k)|^2.  The arrays are read-only.
    """

    a: np.ndarray
    b: np.ndarray
    prob: np.ndarray

    @property
    def points(self) -> TrajectoryPoints:
        return TrajectoryPoints(self)


class TrajectoryPoints(Sequence):
    """Read-only sequence view of a Trajectory, one TrajectoryPoint per r.

    Each index builds its point on demand; len() builds none.
    """

    __slots__ = ("_traj",)

    def __init__(self, traj: Trajectory) -> None:
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.prob)

    def __getitem__(self, r: int) -> TrajectoryPoint:
        n = len(self)
        r = operator.index(r)
        if r < 0:
            r += n
        if not 0 <= r < n:
            raise IndexError(f"trajectory index out of range for {n} points")
        t = self._traj
        return TrajectoryPoint(r, TwoDState(a=complex(t.a[r]), b=complex(t.b[r])), float(t.prob[r]))


def step(state: TwoDState, p_k: complex) -> TwoDState:
    """One application of G to a|D> + b|k> in the 2-d subspace.

    With success_probability, the per-step oracle that iterate must match
    bit for bit.
    """
    p = complex(p_k)
    # abs() of a complex NaN can raise a spurious OverflowError; a NaN
    # |P(k)| is degenerate under target_proportions.
    factor = 1.0 - 4.0 * float(target_proportions(abs(p) if cmath.isfinite(p) else math.nan))
    a, b = complex(state.a), complex(state.b)
    return TwoDState(a=factor * a - 2.0 * p.conjugate() * b, b=b + 2.0 * p * a)


def success_probability(state: TwoDState, p_k: complex) -> float:
    """Probability of measuring the target: |a P(k) + b|^2.

    Values within 1e-9 above 1 are clamped (floating drift); anything
    larger, and a NaN or infinite amplitude, means the evolution code is
    broken and raises.
    """
    amp = complex(state.a) * complex(p_k) + complex(state.b)
    if not cmath.isfinite(amp):
        raise ConsistencyError(
            f"success amplitude {amp!r} is not finite; the recurrence state is inconsistent"
        )
    try:
        prob = abs(amp) ** 2
    except OverflowError:
        prob = math.inf
    if not prob <= 1.0 + PROB_OVERSHOOT_TOL:
        raise ConsistencyError(
            f"success probability {prob!r} exceeds 1 beyond tolerance; "
            "the recurrence state is inconsistent"
        )
    return min(max(prob, 0.0), 1.0)


def iterate(dist: AmplitudeDistribution, k: int, r_max: int) -> Trajectory:
    """Run the recurrence from (a, b) = (1, 0) for r_max steps.

    The same scalar complex arithmetic as step, with P(k) checked once and
    the step's constants hoisted; the probabilities follow from the arrays
    after the loop, in success_probability's operation order.  The results
    are bit-identical to repeated step and success_probability calls.  Steps
    are collected BLOCK_STEPS at a time into preallocated arrays, so a long
    run holds 40 bytes per step, not one Python object per value.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    p = dist.amplitude(k)
    factor = 1.0 - 4.0 * float(target_proportions(abs(p), (k,)))
    two_pc, two_p = 2.0 * p.conjugate(), 2.0 * p
    a_arr = np.empty(r_max + 1, np.complex128)
    b_arr = np.empty(r_max + 1, np.complex128)
    a, b = 1.0 + 0.0j, 0.0 + 0.0j
    a_arr[0], b_arr[0] = a, b
    for lo in range(1, r_max + 1, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, r_max + 1)
        a_s, b_s = [], []
        for _ in range(lo, hi):
            a, b = factor * a - two_pc * b, b + two_p * a
            a_s.append(a)
            b_s.append(b)
        a_arr[lo:hi], b_arr[lo:hi] = a_s, b_s
    # abs(a * p + b) ** 2 with Python's complex product, which numpy's
    # complex multiply does not round the same way
    with np.errstate(invalid="ignore", over="ignore"):
        re = a_arr.real * p.real - a_arr.imag * p.imag + b_arr.real
        im = a_arr.real * p.imag + a_arr.imag * p.real + b_arr.imag
        prob = np.float_power(np.hypot(re, im, out=re), 2, out=re)
    bad = ~(prob <= 1.0 + PROB_OVERSHOOT_TOL)
    if bad.any():
        r = int(bad.argmax())
        raise ConsistencyError(
            f"success probability {float(prob[r])!r} at r = {r} is NaN, infinite or exceeds 1 "
            "beyond tolerance; the recurrence state is inconsistent"
        )
    np.clip(prob, 0.0, 1.0, out=prob)
    for arr in (a_arr, b_arr, prob):
        arr.setflags(write=False)
    return Trajectory(a=a_arr, b=b_arr, prob=prob)


def first_peak(traj: Trajectory) -> tuple[int, float]:
    """First local maximum of the success probability over integer r.

    The first interior r with prob[r] >= both neighbours; ties go to the
    smaller r.
    """
    prob = traj.prob
    if len(prob) < 3:
        raise NoPeakError(
            f"trajectory has only {len(prob)} points; need at least 3 "
            "to bracket a peak (increase r_max)"
        )
    mid = prob[1:-1]
    peaks = (mid >= prob[:-2]) & (mid >= prob[2:])
    if not peaks.any():
        raise NoPeakError(
            f"no success-probability peak within r_max = {len(prob) - 1}; "
            "rerun with a larger r_max"
        )
    r = int(peaks.argmax()) + 1
    return r, float(prob[r])


def first_crests(mag) -> np.ndarray:
    """Continuous first crest x* > 0 of sin^2((2x + 1) theta), theta = asin(mag).

    mag holds |P(k)| values in (0, 1).  One step advances the angle by
    2 theta.  Up to mag = 1/sqrt(2) that is at most half the period pi of
    sin^2, so the samples climb straight to the crest at
    (2x + 1) theta = pi/2.  Above it the samples alias: a step of 2 theta
    equals a step back by pi - 2 theta = 2 acos(mag), and the first crest
    lies far away (x ~ 110.6 at mag = 0.9999).
    """
    mag = np.asarray(mag, dtype=np.float64)
    return np.where(mag <= ALIAS_EDGE, np.pi / (4.0 * np.arcsin(mag)),
                    np.pi / (2.0 * np.arccos(mag))) - 0.5


def first_peaks(crests) -> np.ndarray:
    """First peak r* of the success probability for each first crest x*.

    sin^2((2x + 1) theta) is symmetric about its crest, so the first
    interior local maximum over integer r is the integer nearest x*, exact
    halves going down (to the smaller r), and at least 1:
    r* = max(1, ceil(x* - 1/2)) (Boyer, Brassard, Hoyer and Tapp 1998).
    The values are whole float64 numbers, so a deep coherent tail with
    x* ~ 1e100 does not overflow an integer type.
    """
    return np.maximum(np.ceil(np.asarray(crests) - 0.5), 1.0)


def scan_first_peak(dist: AmplitudeDistribution, k: int, r_limit: int) -> tuple[int, float]:
    """First peak (r, probability) of the success probability, in O(1).

    The recurrence's success probability is exactly sin^2((2r + 1) theta)
    with theta = asin|P(k)|, and r is first_peaks of its first crest: the
    same r as first_peak(iterate(dist, k, r_max)) for any r_max > r, except
    where neighbouring r tie to rounding (|P(k)|^2 = 1/2 exactly, deep
    tails).  The probability is the closed-form value.  A peak at or beyond
    r_limit raises NoPeakError.
    """
    if r_limit < 2:
        raise NoPeakError(f"r_limit = {r_limit} cannot bracket a peak")
    mag = abs(dist.amplitude(k))
    target_proportions(mag, (k,))
    r = int(first_peaks(first_crests(mag)))
    if r >= r_limit:
        raise NoPeakError(
            f"no success-probability peak within r_max = {r_limit}; rerun with a larger r_max"
        )
    return r, math.sin((2 * r + 1) * math.asin(mag)) ** 2


def dense_apply_G(state: np.ndarray, dist: AmplitudeDistribution, k: int) -> np.ndarray:
    """Apply G = U_D U_k to a dense state vector, matrix-free.

    U_k flips the target component; U_D reflects about |D>, realized as
    2 <D|w> D - w with w = U_k v.  Fused so w is never built:
    <D|w> = <D|v> - 2 conj(D_k) v_k, and G v = 2 <D|w> D - v + 2 v_k e_k,
    computed into one new array.  Norm is preserved to rounding.
    """
    v = np.asarray(state, dtype=np.complex128)
    if v.shape != dist.amplitudes.shape:
        raise DomainError(
            f"state has shape {v.shape}, distribution has {dist.amplitudes.shape}"
        )
    norm = math.sqrt(np.vdot(v, v).real)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise DomainError(f"state norm {norm!r} is not 1 within {STATE_NORM_TOL}")
    idx = dist.index_of(k)
    d = dist.amplitudes
    v_k = v[idx]
    out = 2.0 * (np.vdot(d, v) - 2.0 * d[idx].conjugate() * v_k) * d
    out -= v
    out[idx] += 2.0 * v_k
    return out


def project_onto_subspace(
    state: np.ndarray, dist: AmplitudeDistribution, k: int
) -> TwoDState:
    """Recover (a, b) with state = a|D> + b|e_k> by solving the 2x2 Gram system.

    The pair {|D>, |e_k>} is not orthogonal (overlap P(k)), so this is a
    least-squares solve; a residual above 1e-8 means the state left the
    2-d subspace, which G can never do, and raises.
    """
    v = np.asarray(state, dtype=np.complex128)
    if v.shape != dist.amplitudes.shape:
        raise DomainError(
            f"state has shape {v.shape}, distribution has {dist.amplitudes.shape}"
        )
    idx = dist.index_of(k)
    p_k = complex(dist.amplitudes[idx])
    # |P(k)| = 1 would make {D, e_k} colinear and the Gram system singular
    det = 1.0 - float(target_proportions(abs(p_k), (k,)))
    d = dist.amplitudes
    rhs_d = np.vdot(d, v)  # <D|v>
    rhs_k = complex(v[idx])  # <e_k|v>
    a = (rhs_d - p_k.conjugate() * rhs_k) / det
    b = (rhs_k - p_k * rhs_d) / det
    recon = a * d
    recon[idx] += b
    residual = float(np.linalg.norm(recon - v))
    if residual > SUBSPACE_RESIDUAL_TOL:
        raise ConsistencyError(
            f"state left the 2-d subspace span{{D, e_k}}: residual {residual!r}"
        )
    return TwoDState(a=complex(a), b=complex(b))
