"""One workload in one fresh process: a checked warm-up op, then closed loops.

run.py starts this with BLAS/OpenMP threads pinned to 1 and the checkout's
`src` first on the path, and reads back the JSON it writes to --result.

A closed loop has one client: the next op starts when the previous one has
returned. Every op after the warm-up must write artifacts byte-identical to
the warm-up's, which passed the full output check. With --trace 1 the loop
runs twice, untraced and then traced, for half of --seconds each.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import wgrover

import checks
import speed
import tracing
import workloads


def fingerprint(out: Path, result) -> dict[str, str]:
    """sha256 of every CSV and SVG an op wrote, plus the op's return value."""
    prints = {str(path.relative_to(out)): checks.sha256(path)
              for path in sorted(out.rglob("*")) if path.suffix in (".csv", ".svg")}
    if result is not None:
        prints["result"] = repr(result)
    return prints


def run_op(workload, out: Path, before: float | None):
    """One op, step by step, with the speed reference timed after every SCALED step.

    `before` is the latest reference timing, or None when there is none
    since the last RAW step. A SCALED step's nominal time uses the mean of
    the timings on either side of it. Returns (result, error or None,
    seconds, nominal seconds, latest reference timing).
    """
    result, error, seconds, nominal = None, None, 0.0, 0.0
    for timing, step in workload.steps(out):
        if timing == speed.SCALED and before is None:
            before = speed.reference()
        start = time.perf_counter()
        try:
            result = step()
        except Exception as exc:  # an op that raised is a failed op; the loop goes on
            traceback.print_exc(file=sys.stderr)
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        seconds += elapsed
        if timing == speed.SCALED:
            after = speed.reference()
            nominal += elapsed * 2.0 * speed.NOMINAL_S / (before + after)
            before = after
        else:
            nominal += elapsed
            before = None
        if error is not None:
            break
    return result, error, seconds, nominal, before


def check(workload, out: Path, result) -> list[str]:
    try:
        return workload.check(out, result)
    except Exception as exc:  # unreadable output fails the check, it does not end the run
        traceback.print_exc(file=sys.stderr)
        return [f"output check raised {type(exc).__name__}: {exc}"]


def closed_loop(workload, seconds: float, work: Path, expected, tracer=None) -> dict:
    latencies, nominal, failures, counts = [], [], [], []
    before = None
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        op = len(latencies)
        out = work / f"op{op}"
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.begin_op(op)
        result, error, elapsed, at_nominal, before = run_op(workload, out, before)
        latencies.append(elapsed)
        nominal.append(at_nominal)
        if tracer is not None:
            counts.append(dict(tracer.counts))
        if error is None and fingerprint(out, result) != expected:
            error = "artifacts differ from the warm-up op's"
        if error is not None:
            failures.append(error)
        shutil.rmtree(out)
    return {"latencies": latencies, "nominal": nominal, "failures": failures, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    src = Path.cwd().resolve() / "src"
    if Path(wgrover.__file__).resolve().parent.parent != src:
        print(f"worker: imported wgrover from {wgrover.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    warm = args.work / "warmup"
    warm.mkdir()
    result, error, *_ = run_op(workload, warm, None)
    problems = [error] if error else check(workload, warm, result)
    artifacts = fingerprint(warm, result)
    shutil.rmtree(warm)
    record = {"numpy": np.__version__, "problems": problems, "artifacts": artifacts}

    if not problems:
        seconds = args.seconds / 2 if args.trace else args.seconds
        record["untraced"] = closed_loop(workload, seconds, args.work / "untraced", artifacts)
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, workloads)
            try:
                traced = closed_loop(workload, seconds, args.work / "traced", artifacts, tracer)
            finally:
                restore()
            busy, total = tracing.layer_times(tracer.spans)
            traced["layers"] = tracing.per_layer(busy, total, traced["counts"][0],
                                                 len(traced["latencies"]))
            record["traced"] = traced
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)

    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
