"""Machine-speed reference for normalizing times measured on a shared host.

On a small shared machine the same code runs up to twice as slowly for
stretches of a second to minutes, because of neighbours on the host. A fixed
reference kernel, timed between the steps of every op, measures that speed:
a step that took t seconds between two timings r0 and r1 of the kernel
counts as t * NOMINAL_S / mean(r0, r1), the time it would take on a
machine where the kernel takes NOMINAL_S (about its time on an uncontended
core of the 2-vCPU Xeon host the benchmark was written on).

The kernel is pure Python of the kind wgrover's recurrence, scans and
writers spend their time in: frozen dataclasses, complex arithmetic, float
formatting. Bandwidth-bound numpy steps slow down by a different amount, and
no small kernel tracked the dense oracle's steps better than the raw clock
did, so such steps are marked RAW and counted at their measured time.

The kernel never calls wgrover, so no change to wgrover can move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# How an op step's time is counted: scaled by the reference, or as measured.
SCALED, RAW = "scaled", "raw"
NOMINAL_S = 0.012
_STEPS = 6000


@dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex


def reference() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    p = 0.01 + 0.002j
    factor = 1.0 - 4.0 * abs(p) ** 2
    state = _Pair(1 + 0j, 0j)
    rows = []
    for _ in range(_STEPS):
        state = _Pair(factor * state.a - 2.0 * p.conjugate() * state.b, state.b + 2.0 * p * state.a)
        rows.append(format(abs(state.a * p + state.b) ** 2, ".17g"))
    return time.perf_counter() - start
