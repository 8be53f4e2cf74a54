"""Continuum approximation of the Grover recurrence.

Replacing the difference equations by derivatives turns the coefficient
pair into the linear system

    f_a' = -4 |P|^2 f_a - 2 P* f_b,      f_b' = 2 P f_a,

whose second-order form f_a'' + 4|P|^2 f_a' + 4|P|^2 f_a = 0 has the
discriminant Delta = 16|P|^4 - 16|P|^2.  For every non-degenerate target
(0 < |P|^2 < 1, amplitudes.target_proportions) the discriminant is
negative and the solution is a damped oscillation

    f_a(x) = e^{-2|P|^2 x} (C1 cos(2 dt x) + C2 sin(2 dt x)),

with dt = sqrt(|P|^2 - |P|^4) and period T = pi/dt.  For complex P the
pair (a_r, b_r) is phase-rotated so that the system above becomes exactly
real (b replaced by b conj(P)/|P|); everything here operates on that real
convention.

The continuum clock starts one iteration in, at f_a(0) = a_1 = 1 - 4|P|^2
and f_b(0) = b_1 = 2P (fit_one_step_solution), so continuum coordinate x
maps to discrete iteration r = x + 1; predicted_peak_step applies that
offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import target_proportions
from .errors import DomainError


@dataclass(frozen=True)
class ContinuumSolution:
    """Fitted damped oscillation for one target amplitude.

    gamma = -2|P|^2 is the damping rate per step, beta = 2 dt the angular
    frequency; fit_one_step_solution fits c1 and c2 to f_a(0) = a_1,
    f_b(0) = b_1.  Only the oscillatory branch ever instantiates this type.
    """

    p_k: complex
    gamma: float
    beta: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (self.gamma < 0 and self.beta > 0):
            raise DomainError(
                f"not an oscillatory solution: gamma={self.gamma!r}, beta={self.beta!r}"
            )


def delta_tilde(p_k):
    """Half angular frequency sqrt(|P|^2 - |P|^4); its reciprocal is the Grover step scale.

    p_k is one amplitude (a float comes back) or an array of them (an
    array comes back, entry for entry the same bits).
    """
    mag = abs(p_k)
    dt = np.sqrt(target_proportions(mag) - np.float_power(mag, 4))
    return dt if dt.ndim else float(dt)


def period(p_k: complex) -> float:
    """Full oscillation period T = pi / delta_tilde."""
    return math.pi / delta_tilde(p_k)


def fit_one_step_solution(p_k: complex) -> ContinuumSolution:
    """Fit C1, C2 to the after-one-application values f_a(0) = a_1, f_b(0) = b_1.

    C1 = a_1 = 1 - 4|P|^2; C2 follows from the derivative constraint
    f_a'(0) = -4 f_a(0)|P|^2 - 2 Re(P* f_b(0)) with b_1 = 2P, the real part
    implementing the phase-rotated convention for complex amplitudes.
    """
    beta = 2.0 * delta_tilde(p_k)
    mag2 = abs(p_k) ** 2
    gamma = -2.0 * mag2
    c1 = 1.0 - 4.0 * mag2
    fb0 = 2.0 * complex(p_k)
    fa_prime0 = -4.0 * c1 * mag2 - 2.0 * (complex(p_k).conjugate() * fb0).real
    c2 = (fa_prime0 + 2.0 * mag2 * c1) / beta
    return ContinuumSolution(p_k=complex(p_k), gamma=gamma, beta=beta, c1=c1, c2=c2)


def _libm_exp(values: np.ndarray) -> np.ndarray:
    """exp of each entry through math.exp; np.exp differs from it in the last bit."""
    return np.fromiter(map(math.exp, values.ravel().tolist()), np.float64,
                       values.size).reshape(values.shape)


def eval_fa(sol: ContinuumSolution, x):
    """f_a(x) = e^{gamma x} (c1 cos(beta x) + c2 sin(beta x)), x a float or an array."""
    x = np.asarray(x, dtype=np.float64)
    return _libm_exp(sol.gamma * x) * (
        sol.c1 * np.cos(sol.beta * x) + sol.c2 * np.sin(sol.beta * x)
    )


def eval_fb(sol: ContinuumSolution, x):
    """Closed-form f_b(x) of the real-convention system, x a float or an array.

    Derived from f_b = -(f_a' + 4|P|^2 f_a) / (2|P|); satisfies
    f_b' = 2 |P| f_a exactly, so f_b is stationary wherever f_a vanishes.
    """
    x = np.asarray(x, dtype=np.float64)
    mag = abs(sol.p_k)
    cos_term = sol.beta * sol.c2 - sol.gamma * sol.c1
    sin_term = sol.beta * sol.c1 + sol.gamma * sol.c2
    return (
        -_libm_exp(sol.gamma * x)
        * (cos_term * np.cos(sol.beta * x) - sin_term * np.sin(sol.beta * x))
        / (2.0 * mag)
    )


def predicted_peak_step(sol: ContinuumSolution) -> float:
    """Analytic location (in discrete-step units) of the first maximum of f_b.

    The trigonometric factor of f_a is R cos(beta x - phi) with
    phi = atan2(c2, c1); f_b peaks at the first x >= 0 where that factor
    crosses zero downward, i.e. beta x = phi + pi/2 (mod 2 pi).  The x = 0
    root counts when c1 = 0 and f_b starts at its crest.  The +1 converts
    the continuum clock (which starts at iteration 1) to iteration count.
    """
    if sol.c1 == 0.0 and sol.c2 == 0.0:
        raise DomainError("zero solution has no peak")
    phi = math.atan2(sol.c2, sol.c1)
    x0 = (phi + 0.5 * math.pi) / sol.beta
    if x0 < -1e-12:
        x0 += 2.0 * math.pi / sol.beta
    return max(x0, 0.0) + 1.0
