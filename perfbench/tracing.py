"""Spans and counts at wgrover's layer boundaries, recorded from outside.

`install` replaces each layer entry point with a wrapper under the name its
caller looks up -- `cli.load_spec`, `grover_core.scan_first_peak` as
`analysis` reaches it through the module, `eval_fa`/`eval_fb` as `csvio`
imported them -- so wgrover's own files stay untouched. Inner per-step
helpers such as `grover_core.step` are not wrapped.

A span is [name, start, end, parent span id, op id]. Spans stay in memory and
are written out once the run ends. A layer's busy time is the self time of
its spans: duration minus the time covered by child spans. Counts are taken
at the same boundaries, per op, so the benchmark can assert that they repeat.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from wgrover import amplitudes, analysis, cli, continuum, csvio, grover_core, svg

# Complex vector passes one dense step needs: the unit-norm check reads v,
# <D|v> reads D and v, and 2<D|v>D - v reads D and v and writes the result.
DENSE_PASSES = 6
COMPLEX_BYTES = 16

# Span name -> layer that owns its self time.
LAYER = {"amplitudes.index": "amplitudes"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counts = defaultdict(int)

    def call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _count_built(counts, dist, args, kwargs):
    counts["amplitudes.labels_built"] += dist.size


def _count_peak(counts, result, args, kwargs):
    counts["grover_core.scan.peak_r_total"] += result[0]


def _count_iterate(counts, traj, args, kwargs):
    counts["grover_core.iterate.steps"] += len(traj.points) - 1


def _count_dense(counts, state, args, kwargs):
    counts["grover_core.dense.steps"] += 1
    counts["grover_core.dense.elements"] += state.size


def _count_table(counts, rows, args, kwargs):
    counts["analysis.labels"] += len(rows)
    counts["analysis.peaks_resolved"] += sum(row.discrete_peak is not None for row in rows)


def _count_sample(counts, result, args, kwargs):
    counts["continuum.samples"] += 1


def _count_csv(counts, result, args, kwargs):
    path = _path_arg(args, kwargs)
    with open(path, "rb") as fh:
        data = fh.read()
    counts["csvio.rows"] += data.count(b"\n") - 1
    counts["csvio.bytes"] += len(data)


def _count_line_plot(counts, result, args, kwargs):
    series = kwargs["series"] if "series" in kwargs else args[1]
    counts["svg.points"] += sum(len(xs) for _, xs, _ in series)
    counts["svg.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _count_bar_plot(counts, result, args, kwargs):
    labels = kwargs["labels"] if "labels" in kwargs else args[1]
    counts["svg.points"] += len(labels)
    counts["svg.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _entry_points(bench_module):
    """(owner, attribute, span name, counter, counter reads files)."""
    return [
        (cli, "main", "cli", None, False),
        (bench_module, "AmplitudeDistribution", "amplitudes", _count_built, False),
        (cli, "load_spec", "amplitudes", _count_built, False),
        (grover_core, "scan_first_peak", "grover_core.scan", _count_peak, False),
        (grover_core, "iterate", "grover_core.iterate", _count_iterate, False),
        (grover_core, "first_peak", "grover_core.first_peak", None, False),
        (grover_core, "dense_apply_G", "grover_core.dense", _count_dense, False),
        (grover_core, "project_onto_subspace", "grover_core.project", None, False),
        (analysis, "comparison_table", "analysis", _count_table, False),
        (analysis, "global_speedup", "analysis", None, False),
        (analysis, "local_failures", "analysis", None, False),
        (analysis, "delta_tilde", "continuum", None, False),
        (continuum, "fit_one_step_solution", "continuum", None, False),
        (continuum, "period", "continuum", None, False),
        (continuum, "predicted_peak_step", "continuum", None, False),
        (csvio, "eval_fa", "continuum", _count_sample, False),
        (csvio, "eval_fb", "continuum", None, False),
        (csvio, "write_distribution", "csvio", _count_csv, True),
        (csvio, "write_trajectory", "csvio", _count_csv, True),
        (csvio, "write_continuum", "csvio", _count_csv, True),
        (csvio, "write_comparison", "csvio", _count_csv, True),
        (svg, "line_plot", "svg", _count_line_plot, True),
        (svg, "bar_plot", "svg", _count_bar_plot, True),
    ]


def _wrap(tracer, name, fn, counter, reads_files):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if counter is not None:
            if reads_files:
                # a span of its own keeps file reads out of the caller's self time
                tracer.call("trace", counter, (tracer.counts, result, args, kwargs), {})
            else:
                counter(tracer.counts, result, args, kwargs)
        return result
    return wrapper


def install(tracer: Tracer, bench_module):
    """Patch every entry point; returns a function that restores them all."""
    saved = []
    for owner, attr, name, counter, reads_files in _entry_points(bench_module):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrap(tracer, name, fn, counter, reads_files))

    # index_of builds the label dict on first use; only that call is a span.
    Dist = amplitudes.AmplitudeDistribution
    index_of = Dist.index_of

    def traced_index_of(self, k):
        if "_index" in self.__dict__:
            return index_of(self, k)
        return tracer.call("amplitudes.index", index_of, (self, k), {})

    saved.append((Dist, "index_of", index_of))
    Dist.index_of = traced_index_of

    def restore():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
    return restore


def layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(self time per layer, total duration per span name), summed over spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        busy[LAYER.get(name, name)] += (end - start) - covered[i]
        total[name] += end - start
    return busy, total


def per_layer(busy, total, counts, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from summed busy times and one op's counts."""

    def per_op(seconds):
        return seconds / ops

    def ratio(num, den):
        return num / den if den else 0.0

    c = defaultdict(int, counts)
    r_total = c["grover_core.scan.peak_r_total"]
    steps = c["grover_core.iterate.steps"]
    rows = c["csvio.rows"]
    dense_steps, elements = c["grover_core.dense.steps"], c["grover_core.dense.elements"]
    return {
        "grover_core.scan.busy_s": (per_op(busy["grover_core.scan"]), "s"),
        "grover_core.scan.peak_r_total": (r_total, "count"),
        "grover_core.scan.ns_per_r": (ratio(per_op(busy["grover_core.scan"]) * 1e9, r_total), "ns"),
        "analysis.busy_s": (per_op(busy["analysis"]), "s"),
        "analysis.labels": (c["analysis.labels"], "count"),
        "analysis.peaks_resolved_ratio": (ratio(c["analysis.peaks_resolved"], c["analysis.labels"]), "ratio"),
        "grover_core.iterate.busy_s": (per_op(busy["grover_core.iterate"]), "s"),
        "grover_core.iterate.steps": (steps, "count"),
        "grover_core.iterate.ns_per_step": (ratio(per_op(busy["grover_core.iterate"]) * 1e9, steps), "ns"),
        "csvio.busy_s": (per_op(busy["csvio"]), "s"),
        "csvio.rows": (rows, "count"),
        "csvio.bytes": (c["csvio.bytes"], "B"),
        "csvio.us_per_row": (ratio(per_op(busy["csvio"]) * 1e6, rows), "us"),
        "svg.busy_s": (per_op(busy["svg"]), "s"),
        "svg.points": (c["svg.points"], "count"),
        "svg.bytes": (c["svg.bytes"], "B"),
        "continuum.busy_s": (per_op(busy["continuum"]), "s"),
        "continuum.samples": (c["continuum.samples"], "count"),
        "amplitudes.busy_s": (per_op(busy["amplitudes"]), "s"),
        "amplitudes.labels_built": (c["amplitudes.labels_built"], "count"),
        "amplitudes.index_s": (per_op(total["amplitudes.index"]), "s"),
        "grover_core.dense.busy_s": (per_op(busy["grover_core.dense"]), "s"),
        "grover_core.dense.steps": (dense_steps, "count"),
        "grover_core.dense.ns_per_element": (ratio(per_op(busy["grover_core.dense"]) * 1e9, elements), "ns"),
        "grover_core.dense.bytes_computed": (elements * COMPLEX_BYTES * DENSE_PASSES, "B"),
        "grover_core.project.busy_s": (per_op(busy["grover_core.project"]), "s"),
        "cli.self_s": (per_op(busy["cli"]), "s"),
    }
