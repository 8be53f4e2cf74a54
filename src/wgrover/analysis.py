"""Classical versus Grover step-count comparison.

Classical search for label k needs about 1/p_k queries; Grover search
needs about 1/delta_tilde(k) applications of G (the constant pi/4 is
dropped since only the order matters).  Comparing reciprocals gives the
two speedup predicates:

  local   delta_tilde(k)^-1 < 1/p_k           (one chosen target)
  global  max_k delta_tilde(k)^-1 < min_j 1/p_j   (uniformly over targets)

The local inequality is equivalent to |P(k)| < sqrt(1 - |P(k)|^2), i.e.
it flips exactly at |P| = 1/sqrt(2) and always holds below |P| = 1/2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import grover_core
from .amplitudes import AmplitudeDistribution, target_proportions
from .continuum import delta_tilde
from .errors import DomainError

# Rows whose first crest x* lies beyond this budget (x* + 2 > budget) report
# no discrete peak (0 in the column, an empty CSV cell): the table's contract,
# not a cost limit (every peak is found in O(1)).  Tail labels of a coherent
# window would peak at ~1e12.
DEFAULT_PEAK_BUDGET = 100_000


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """The comparison as read-only columns, in the column order of the comparison CSV.

    k is the label range, discrete_peak is int64 with 0 for no peak within
    DEFAULT_PEAK_BUDGET (an empty CSV cell), and the other columns are
    float64.  len() is the label count, and iterating builds ComparisonRows
    on demand, with discrete_peak None for an empty cell.
    """

    k: range
    p_k: np.ndarray
    classical_steps: np.ndarray
    grover_scale: np.ndarray
    discrete_peak: np.ndarray
    recip_classical: np.ndarray
    recip_grover: np.ndarray
    ln_classical: np.ndarray
    ln_grover: np.ndarray

    @property
    def columns(self) -> tuple:
        """The nine columns, k first, in CSV order."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self):
        cells = [col.tolist() for col in self.columns[1:]]
        cells[3] = [peak or None for peak in cells[3]]  # discrete_peak: 0 is empty
        return map(ComparisonRow, self.k, *cells)


ComparisonRow = namedtuple("ComparisonRow", [f.name for f in fields(ComparisonTable)])


@dataclass(frozen=True)
class SpeedupVerdict:
    """Outcome of the global condition with its witness labels.

    grover_witness maximizes delta_tilde^-1 (the slowest Grover target);
    classical_witness minimizes 1/p_j (the easiest classical target).
    """

    holds: bool
    grover_witness: int
    classical_witness: int
    max_grover_scale: float
    min_classical_steps: float


def global_speedup(table: ComparisonTable) -> SpeedupVerdict:
    """Does Grover beat classical search for every target of the table simultaneously?"""
    g = int(np.argmax(table.grover_scale))
    c = int(np.argmin(table.classical_steps))
    return SpeedupVerdict(
        holds=bool(table.grover_scale[g] < table.classical_steps[c]),
        grover_witness=table.k[g],
        classical_witness=table.k[c],
        max_grover_scale=float(table.grover_scale[g]),
        min_classical_steps=float(table.classical_steps[c]),
    )


def comparison_table(dist: AmplitudeDistribution) -> ComparisonTable:
    """Classical and Grover step metrics of every label, as columns, in one pass.

    discrete_peak is the first peak of the exact recurrence, the integer
    nearest the first crest x* of sin^2((2r + 1) asin|P(k)|)
    (grover_core.first_peaks); labels with x* + 2 > DEFAULT_PEAK_BUDGET get 0.
    The log columns use math.log, since np.log differs from it in the last
    bit on some inputs.  A |P(k)|^2 below about 5.6e-309, whose classical
    step count 1/|P(k)|^2 overflows, raises DomainError.
    """
    amps = dist.amplitudes
    # np.hypot calls the same libm routine as abs() on a Python complex, so
    # each |P(k)| equals abs(P(k)) bit for bit (np.abs rounds differently)
    mag = np.hypot(amps.real, amps.imag)
    props, dts = target_proportions(mag, dist.labels), delta_tilde(mag)
    crests = grover_core.first_crests(mag)
    filled = crests + 2 <= DEFAULT_PEAK_BUDGET
    peaks = np.zeros(len(props), dtype=np.int64)
    peaks[filled] = grover_core.first_peaks(crests[filled])
    with np.errstate(over="ignore"):
        classical = 1.0 / props
    if np.isinf(classical).any():
        i = int(np.argmax(np.isinf(classical)))
        raise DomainError(f"classical steps 1/|P({dist.labels[i]})|^2 overflow: "
                          f"|P({dist.labels[i]})|^2 = {float(props[i])!r}")
    grover = 1.0 / dts
    logs = [np.fromiter(map(math.log, col.tolist()), np.float64, len(col))
            for col in (classical, grover)]
    for col in (props, dts, classical, grover, peaks, *logs):
        col.setflags(write=False)
    return ComparisonTable(dist.labels, props, classical, grover, peaks, props, dts, *logs)


def local_failures(table: ComparisonTable) -> list[int]:
    """Labels of the table for which the local speedup condition fails."""
    fails = ~(table.grover_scale < table.classical_steps)
    return [table.k[i] for i in np.flatnonzero(fails).tolist()]
