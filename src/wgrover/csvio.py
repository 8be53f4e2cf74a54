"""Deterministic CSV schemas for every artifact the tool emits.

Floats are printed with 17 significant digits so a written file parses
back to bit-identical values; no timestamps or environment data ever go
into a data file, which makes reproduction runs byte-comparable.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import numtext
from .analysis import ComparisonRow, ComparisonTable
from .continuum import ContinuumSolution, eval_fa, eval_fb, period
from .errors import DomainError
from .grover_core import Trajectory

DISTRIBUTION_HEADER = ["k", "p_k"]
TRAJECTORY_HEADER = ["r", "a_re", "a_im", "b_re", "b_im", "success_prob"]
CONTINUUM_HEADER = ["x", "f_a", "f_b"]
COMPARISON_HEADER = list(ComparisonRow._fields)


# Continuum sample spacing in x.
CONTINUUM_STEP = 0.01
# Upper bound on continuum samples: [0, 3T] at CONTINUUM_STEP grows like 1/|P|,
# past 10^14 rows for the deep coherent tails.
MAX_CONTINUUM_ROWS = 10**6

# "%.17g" is format(x, ".17g"): round-trip-exact floats.  No field ever
# needs CSV quoting, so these row formats write what csv.writer would;
# numtext.format_rows writes their bytes a block of rows at a time.
TRAJECTORY_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
CONTINUUM_ROW = "%.17g,%.17g,%.17g\n"
DISTRIBUTION_ROW = "%d,%.17g\n"
COMPARISON_ROW = "%d,%.17g,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"


def _write(path: Path, header: list[str], row_format: str, *columns, empty=None) -> None:
    """Write the header, then the columns' rows through row_format, streamed."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(numtext.format_rows(row_format, *columns, empty=empty))


def write_distribution(path: Path, labels, proportions) -> None:
    _write(path, DISTRIBUTION_HEADER, DISTRIBUTION_ROW, labels, proportions)


def write_trajectory(path: Path, traj: Trajectory) -> None:
    _write(path, TRAJECTORY_HEADER, TRAJECTORY_ROW, range(len(traj.prob)), traj.a.real,
           traj.a.imag, traj.b.real, traj.b.imag, traj.prob)


def continuum_grid(sol: ContinuumSolution) -> np.ndarray:
    """Three periods [0, 3T] at CONTINUUM_STEP; above MAX_CONTINUUM_ROWS raises DomainError."""
    x_max = 3.0 * period(sol.p_k)
    steps = x_max / CONTINUUM_STEP
    if not (math.isfinite(steps) and round(steps) + 1 <= MAX_CONTINUUM_ROWS):
        raise DomainError(
            f"continuum sampling of [0, {x_max:.6g}] at step {CONTINUUM_STEP} needs "
            f"{steps + 1:.3g} rows, above the limit of {MAX_CONTINUUM_ROWS}"
        )
    return np.arange(round(steps) + 1) * CONTINUUM_STEP


def write_continuum(path: Path, sol: ContinuumSolution, xs) -> tuple[np.ndarray, np.ndarray]:
    """Sample f_a, f_b on the grid xs (continuum_grid), write them and return (f_a, f_b)."""
    fa, fb = eval_fa(sol, xs), eval_fb(sol, xs)
    _write(path, CONTINUUM_HEADER, CONTINUUM_ROW, xs, fa, fb)
    return fa, fb


def write_comparison(path: Path, table: ComparisonTable) -> None:
    """A row without a discrete peak (0 in the column) gets an empty cell."""
    _write(path, COMPARISON_HEADER, COMPARISON_ROW, *table.columns,
           empty=table.discrete_peak == 0)

