"""Exact discrete Grover evolution on a weighted database.

Two independent realizations of the same dynamics live here:

* the 2-d coefficient recurrence
      a_r = (1 - 4|P(k)|^2) a_{r-1} - 2 conj(P(k)) b_{r-1}
      b_r = b_{r-1} + 2 P(k) a_{r-1}
  tracking the state G^r|D> = a_r|D> + b_r|k>, and

* a matrix-free dense oracle applying G = U_D U_k to a full state vector
  (one component flip, one rank-1 reflection, O(N) per step).  It sweeps
  fixed tiles of DENSE_TILE elements, shared out among a thread per usable
  CPU, and its results do not depend on how many threads ran them.  The
  sweep that writes a step's read-only result also sums it, so a step or
  projection on that result makes one sweep where any other state takes two.

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
import itertools
import math
import os
import threading
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitudes import AmplitudeDistribution, target_proportions
from .errors import ConsistencyError, DomainError, NoPeakError

PROB_OVERSHOOT_TOL = 1e-9
SUBSPACE_RESIDUAL_TOL = 1e-8
STATE_NORM_TOL = 1e-9
# Above this |P(k)| one step turns sin^2((2r + 1) theta) past its crest.
ALIAS_EDGE = math.sqrt(0.5)
# dense_apply_G and project_onto_subspace sweep tiles of this many elements:
# a step's v, d and out tiles (512 KB each) fit in a 2 MB L2.  The tiles alone
# fix every sum's order, so results depend on neither the thread count nor L2.
DENSE_TILE = 1 << 15


class TwoDState(NamedTuple):
    """Coefficient pair (a, b) of the non-orthogonal decomposition a|D> + b|k>."""

    a: complex
    b: complex


class TrajectoryPoint(NamedTuple):
    r: int
    state: TwoDState
    success_prob: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """History of the recurrence for one target label, as arrays over r.

    a[r], b[r] (complex128) are the coefficients (a_r, b_r) and prob[r]
    (float64) the success probability |a_r P(k) + b_r|^2; r = 0 is always
    (1, 0) with probability |P(k)|^2.  a and b are strided views of one
    array a_0, b_0, a_1, b_1, ...; the arrays and that base are read-only.
    As a sequence, traj[r] builds one TrajectoryPoint (r < 0 counts back).
    """

    a: np.ndarray
    b: np.ndarray
    prob: np.ndarray

    def __len__(self) -> int:
        return len(self.prob)

    def __getitem__(self, r: int) -> TrajectoryPoint:
        r = range(len(self))[r]
        return TrajectoryPoint(r, TwoDState(complex(self.a[r]), complex(self.b[r])),
                               float(self.prob[r]))

    @property
    def points(self) -> Trajectory:
        # itself, for perfbench/tracing.py::_count_iterate and the oracle_xcheck workload
        return self


def step(state: tuple[complex, complex], p_k: complex) -> TwoDState:
    """One application of G to a|D> + b|k>, given as any pair (a, b).

    With success_probability, the per-step oracle that iterate must match
    bit for bit.
    """
    p = complex(p_k)
    # abs() of a complex NaN can raise a spurious OverflowError; a NaN
    # |P(k)| is degenerate under target_proportions.
    factor = 1.0 - 4.0 * float(target_proportions(abs(p) if cmath.isfinite(p) else math.nan))
    a, b = map(complex, state)
    return TwoDState(complex(factor) * a - 2.0 * p.conjugate() * b, b + 2.0 * p * a)


def success_probability(state: tuple[complex, complex], p_k: complex) -> float:
    """Probability of measuring the target in the pair (a, b): |a P(k) + b|^2.

    Values within 1e-9 above 1 are clamped (floating drift); anything
    larger, and a NaN or infinite amplitude, means the evolution code is
    broken and raises.
    """
    a, b = state
    amp = complex(a) * complex(p_k) + complex(b)
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
    are bit-identical to repeated step and success_probability calls.  The
    steps stream into one array a_0, b_0, a_1, b_1, ..., so a long run
    holds 40 bytes per step and keeps no Python object per step.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    p = dist.amplitude(k)
    # complex(f, 0.0), the operand CPython promotes a float to before a
    # complex product, without float.__mul__ declining first
    factor = complex(1.0 - 4.0 * float(target_proportions(abs(p), (k,))))
    two_pc, two_p = 2.0 * p.conjugate(), 2.0 * p

    # the constants as arguments, the generator's fast locals, not closure cells
    def states(factor, two_pc, two_p):
        a, b = 1.0 + 0.0j, 0.0 + 0.0j
        for _ in itertools.repeat(None, r_max + 1):
            yield a
            yield b
            a, b = factor * a - two_pc * b, b + two_p * a

    ab = np.fromiter(states(factor, two_pc, two_p), np.complex128, 2 * (r_max + 1))
    # the views taken below inherit the read-only flag
    ab.setflags(write=False)
    a_arr, b_arr = ab[0::2], ab[1::2]
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
    prob.setflags(write=False)
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# (pid, executor) of the pool _map_tiles built, or None before its first use.  Two
# threads that both make the first call may build two pools; the spare one idles.
_pool = None


def _map_tiles(fn, n: int) -> list:
    """fn(s) for the slices s of DENSE_TILE elements that tile range(n), in tile order.

    The caller and a pool thread per other usable CPU take tiles from a shared
    counter, so none waits on tiles a busy CPU holds; numpy frees the GIL on them.
    The pool is built on first use and keyed by the pid, as a fork drops its threads.
    """
    global _pool
    tiles = [slice(lo, min(lo + DENSE_TILE, n)) for lo in range(0, n, DENSE_TILE)]
    parts, order, cpus = [None] * len(tiles), itertools.count(), _usable_cpus()
    helpers = range(min(cpus, len(tiles)) - 1)

    def work(_=None):
        while (i := next(order)) < len(tiles):  # next() on a count is atomic under the GIL
            parts[i] = fn(tiles[i])

    if helpers and (_pool is None or _pool[0] != os.getpid()):
        from concurrent.futures import ThreadPoolExecutor  # 8 ms of import, paid on first use

        _pool = (os.getpid(), ThreadPoolExecutor(cpus - 1, thread_name_prefix="wgrover-dense"))
    done = _pool[1].map(work, helpers) if helpers else ()
    work()
    list(done)  # waits for the helpers, and raises what they raised
    return parts


def _in_tile_order(parts):
    """Sum of parts, left to right from the first (0 + -0.0 would drop a sign)."""
    return sum(parts[1:], parts[0])


def _dense_state(state, dist: AmplitudeDistribution) -> np.ndarray:
    """state as a complex128 array; raises unless its shape is dist's."""
    v = np.asarray(state, dtype=np.complex128)
    if v.shape != dist.amplitudes.shape:
        raise DomainError(f"state has shape {v.shape}, distribution has {dist.amplitudes.shape}")
    return v


# (weak references to dense_apply_G's last result and its D, <out|out>, <D|out>),
# the sums its writing sweep took, or None.  Sums of the same tiles in the same
# order as a sweep's, so no result depends on whether they were reused.
_last_sums = None


def _reused_sums(v: np.ndarray, d: np.ndarray):
    """(<v|v>, <D|v>) if v is dense_apply_G's last result over d and still read-only."""
    last = _last_sums
    if last is not None and last[0]() is v and last[1]() is d and not v.flags.writeable:
        return last[2:]
    return None


def dense_apply_G(state: np.ndarray, dist: AmplitudeDistribution, k: int) -> np.ndarray:
    """Apply G = U_D U_k to a dense state vector, matrix-free.

    U_k flips the target component; U_D reflects about |D>, realized as
    2 <D|w> D - w with w = U_k v.  Fused so w is never built:
    <D|w> = <D|v> - 2 conj(D_k) v_k, and G v = c D - v + 2 v_k e_k with
    c = 2 <D|w>.  Over tiles of DENSE_TILE elements, one sweep takes <v|v>
    and <D|v> of each tile while it is in cache, and a second writes G v
    into one new array and takes the same sums of each tile it has written.
    The result is read-only, and the next step on it skips the first sweep
    while it stays so.  Norm is preserved to rounding.
    """
    global _last_sums
    v = _dense_state(state, dist)
    d = dist.amplitudes

    def sums(s, vs):
        return np.vdot(vs, vs).real, np.vdot(d[s], vs)

    reused = _reused_sums(v, d)
    vv, dv = reused or map(_in_tile_order, zip(*_map_tiles(lambda s: sums(s, v[s]), v.size)))
    norm = math.sqrt(vv)
    # not (x <= tol), so that a NaN norm fails the check too
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise DomainError(f"state norm {norm!r} is not 1 within {STATE_NORM_TOL}")
    idx = dist.index_of(k)
    v_k = v[idx]
    c = 2.0 * (dv - 2.0 * d[idx].conjugate() * v_k)
    out = np.empty_like(v)

    def reflect(s):
        tile = np.multiply(c, d[s], out=out[s])
        np.subtract(tile, v[s], out=tile)
        if s.start <= idx < s.stop:
            tile[idx - s.start] += 2.0 * v_k
        return sums(s, tile)

    vv, dv = zip(*_map_tiles(reflect, v.size))
    out.setflags(write=False)
    _last_sums = (weakref.ref(out), weakref.ref(d), _in_tile_order(vv), _in_tile_order(dv))
    return out


def project_onto_subspace(
    state: np.ndarray, dist: AmplitudeDistribution, k: int
) -> TwoDState:
    """Recover (a, b) with state = a|D> + b|e_k> by solving the 2x2 Gram system.

    The pair {|D>, |e_k>} is not orthogonal (overlap P(k)), so this is a
    least-squares solve; a residual above 1e-8, or a NaN one, means the
    state left the 2-d subspace, which G can never do, and raises.  <D|v>
    and the squared residual are summed over tiles of DENSE_TILE elements,
    as in dense_apply_G; <D|v> of dense_apply_G's read-only result is the
    one its writing sweep took.
    """
    v = _dense_state(state, dist)
    idx = dist.index_of(k)
    p_k = complex(dist.amplitudes[idx])
    # |P(k)| = 1 would make {D, e_k} colinear and the Gram system singular
    det = 1.0 - float(target_proportions(abs(p_k), (k,)))
    d = dist.amplitudes
    reused = _reused_sums(v, d)
    rhs_d = reused[1] if reused else _in_tile_order(  # <D|v>
        _map_tiles(lambda s: np.vdot(d[s], v[s]), v.size))
    rhs_k = complex(v[idx])  # <e_k|v>
    a = (rhs_d - p_k.conjugate() * rhs_k) / det
    b = (rhs_k - p_k * rhs_d) / det
    buffers = threading.local()  # a residual tile per thread, reused tile after tile

    def squared_residual(s):
        if not hasattr(buffers, "tile"):
            buffers.tile = np.empty(DENSE_TILE, np.complex128)
        # errstate is per thread; a NaN or infinite state fails the check below
        with np.errstate(invalid="ignore", over="ignore"):
            recon = np.multiply(a, d[s], out=buffers.tile[:s.stop - s.start])
            if s.start <= idx < s.stop:
                recon[idx - s.start] += b
            recon -= v[s]
            return np.vdot(recon, recon).real

    residual = math.sqrt(_in_tile_order(_map_tiles(squared_residual, v.size)))
    if not residual <= SUBSPACE_RESIDUAL_TOL:
        raise ConsistencyError(
            f"state left the 2-d subspace span{{D, e_k}}: residual {residual!r}"
        )
    return TwoDState(complex(a), complex(b))
