"""The package's public surface: `__all__` is exactly the names below.

A name added to or dropped from the package changes this list on purpose.
`__all__` holds what the README's library example calls or gets back; the
other entry points stay in their modules.  Helpers that only tests used were
deleted; none of them may come back under the package or any of its modules.
"""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import wgrover

PUBLIC = [
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

# Names kept out of the package namespace but still defined in their module,
# where the CLI, the tests and the benchmark import them.
MODULE_ONLY = {
    "uniform": "amplitudes",
    "step": "grover_core",
    "success_probability": "grover_core",
    "scan_first_peak": "grover_core",
    "dense_apply_G": "grover_core",
    "project_onto_subspace": "grover_core",
    "TwoDState": "grover_core",
    "TrajectoryPoint": "grover_core",
    "ComparisonRow": "analysis",
    "delta_tilde": "continuum",
    "period": "continuum",
    "eval_fa": "continuum",
    "eval_fb": "continuum",
}

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
    "_log_sum_exp",
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


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_names(name):
    # not even an attribute, so neither `from wgrover import *` nor `wgrover.name` finds it
    assert not hasattr(wgrover, name)
    assert hasattr(importlib.import_module(f"wgrover.{MODULE_ONLY[name]}"), name)


def test_readme_library_example():
    # run the README's "Library" block and check what its comments state
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    ns = {}
    exec(block, ns)
    w, traj = ns["w"], ns["traj"]
    assert ns["r_star"] == 3 and f"{ns['prob']:.5f}" == "0.99984"
    assert [(x.dtype.name, len(x)) for x in (traj.a, traj.b, traj.prob)] == [
        ("complex128", 21), ("complex128", 21), ("float64", 21)]
    assert abs(w.predicted_peak_step(ns["sol"]) - ns["r_star"]) <= 1
    assert isinstance(ns["table"], w.ComparisonTable)
    assert w.local_failures(ns["table"]) == [1]
    assert ns["db"].amplitudes.tolist() == [0.5, math.sqrt(0.75)]
    verdict = w.global_speedup(w.comparison_table(ns["db"]))
    assert math.isclose(verdict.min_classical_steps, 4 / 3, rel_tol=1e-15)
