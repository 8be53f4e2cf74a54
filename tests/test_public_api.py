"""The package's public surface: `__all__` is exactly the names below.

A name added to or dropped from the package changes this list on purpose.
Helpers that only tests used were deleted; none of them may come back under
the package or any of its modules.
"""

import importlib
import pkgutil

import wgrover

PUBLIC = [
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

DELETED = [
    "WeightedDatabase",
    "from_weights",
    "weights_from_list",
    "classical_bounds",
    "coherent_normalization",
    "proportion",
    "Branch",
    "_renormalized",
    "_check_proportions",
    "_check_target_amplitude",
    "_check_nondegenerate",
    "_scale",
    "RunConfig",
    "_load_config",
    "_require_target",
    "add_common",
    "read_distribution",
    "read_trajectory",
    "read_continuum",
    "read_comparison",
    "_read",
    "DiscriminantClass",
    "classify",
    "fit_solution",
    "local_speedup",
    "_label_range",
    "_label_metrics",
    "_coherent_figure_dist",
    "_repro_check",
    "_trajectory_svg",
    "_comparison_svg",
    "FIG2_N",
    "FIG2_TARGET",
    "FIG4_ALPHA",
    "FIG4_TARGET",
    "FIGURE_Q1",
    "FIGURE_N",
    "_tallest",
    "_TIE",
]


def test_public_surface():
    namespace = {}
    exec("from wgrover import *", namespace)
    assert wgrover.__all__ == PUBLIC
    assert set(PUBLIC) <= set(namespace)
    modules = [wgrover] + [importlib.import_module(f"wgrover.{info.name}")
                           for info in pkgutil.iter_modules(wgrover.__path__)]
    present = [(m.__name__, name) for m in modules for name in DELETED if hasattr(m, name)]
    assert present == []
