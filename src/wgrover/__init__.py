"""Grover amplitude amplification over weighted databases.

Simulates the exact discrete evolution, its damped-oscillation continuum
approximation, and the classical-vs-Grover step-count comparison for
databases whose elements carry unequal proportions.
"""

from .amplitudes import (
    AmplitudeDistribution,
    load_spec,
    truncated_coherent,
)
from .analysis import (
    ComparisonTable,
    SpeedupVerdict,
    comparison_table,
    global_speedup,
    local_failures,
)
from .continuum import (
    ContinuumSolution,
    fit_one_step_solution,
    predicted_peak_step,
)
from .errors import ConsistencyError, DomainError, LabelNotFoundError, NoPeakError
from .grover_core import (
    Trajectory,
    first_peak,
    iterate,
)

__all__ = [
    "AmplitudeDistribution",
    "ComparisonTable",
    "SpeedupVerdict",
    "ContinuumSolution",
    "Trajectory",
    "DomainError",
    "LabelNotFoundError",
    "NoPeakError",
    "ConsistencyError",
    "truncated_coherent",
    "load_spec",
    "iterate",
    "first_peak",
    "fit_one_step_solution",
    "predicted_peak_step",
    "local_failures",
    "global_speedup",
    "comparison_table",
]

__version__ = "0.1.0"
