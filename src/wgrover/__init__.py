"""Grover amplitude amplification over weighted databases.

Simulates the exact discrete evolution, its damped-oscillation continuum
approximation, and the classical-vs-Grover step-count comparison for
databases whose elements carry unequal proportions.
"""

from .amplitudes import (
    AmplitudeDistribution,
    load_spec,
    truncated_coherent,
    uniform,
)
from .analysis import (
    ComparisonRow,
    ComparisonTable,
    SpeedupVerdict,
    comparison_table,
    global_speedup,
    local_failures,
)
from .continuum import (
    ContinuumSolution,
    delta_tilde,
    eval_fa,
    eval_fb,
    fit_one_step_solution,
    period,
    predicted_peak_step,
)
from .errors import ConsistencyError, DomainError, LabelNotFoundError, NoPeakError
from .grover_core import (
    Trajectory,
    TrajectoryPoint,
    TwoDState,
    dense_apply_G,
    first_peak,
    iterate,
    project_onto_subspace,
    scan_first_peak,
    step,
    success_probability,
)

__all__ = [
    "AmplitudeDistribution",
    "ComparisonRow",
    "ComparisonTable",
    "SpeedupVerdict",
    "ContinuumSolution",
    "Trajectory",
    "TrajectoryPoint",
    "TwoDState",
    "DomainError",
    "LabelNotFoundError",
    "NoPeakError",
    "ConsistencyError",
    "uniform",
    "truncated_coherent",
    "load_spec",
    "step",
    "iterate",
    "success_probability",
    "first_peak",
    "scan_first_peak",
    "dense_apply_G",
    "project_onto_subspace",
    "delta_tilde",
    "fit_one_step_solution",
    "eval_fa",
    "eval_fb",
    "period",
    "predicted_peak_step",
    "local_failures",
    "global_speedup",
    "comparison_table",
]

__version__ = "0.1.0"
