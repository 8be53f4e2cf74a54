"""The names perfbench's tracer patches must keep existing and keep working.

perfbench/tracing.py wraps wgrover's layer entry points from outside, by the
names their callers look up (for example `grover_core.scan_first_peak` and
`csvio.eval_fa`).  Renaming one of them breaks every `--trace 1` run, so this
test installs the tracer, runs the commands the benchmark traces, and checks
that each left its counts.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from wgrover import cli
from wgrover.amplitudes import AmplitudeDistribution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_run_and_count(tmp_path, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, SimpleNamespace(AmplitudeDistribution=AmplitudeDistribution))
    try:
        weights = json.dumps({"kind": "weights", "weights": [0.02] * 50})
        assert cli.main(["compare", "--inline", weights, "--out", str(tmp_path / "c")]) == 0
        assert cli.main(["repro", "fig2", "--out", str(tmp_path)]) == 0
        assert cli.main(["simulate", "--inline", '{"kind":"uniform","n":20}', "--target", "1",
                         "--rmax", "6", "--out", str(tmp_path / "s")]) == 0
    finally:
        restore()
    counts = tracer.counts
    assert counts["analysis.labels"] == 50
    assert counts["analysis.peaks_resolved"] == 50
    assert counts["continuum.samples"] > 0
    assert counts["grover_core.iterate.steps"] == 40 + 6
    assert counts["csvio.rows"] > 0 and counts["svg.points"] > 0
    assert counts["amplitudes.labels_built"] == 50 + 20 + 20
    assert {span[0] for span in tracer.spans} >= {
        "cli", "amplitudes", "analysis", "grover_core.iterate", "grover_core.first_peak",
        "continuum", "csvio", "svg"}
    assert cli.main is not None and "wrapper" not in cli.main.__qualname__
