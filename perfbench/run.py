"""wgrover benchmark: one workload, one seed, measured in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wgrover checkout; it imports wgrover from `src`.
Workloads: figures, compare_weights, simulate_long, oracle_xcheck (see
workloads.py and README.md).

With --trace 0 it first times SETUP_LAUNCHES fresh interpreters that import
`wgrover.cli` and build its parser (setup_s, the median), then runs the
workload untraced in a worker process for S seconds. With --trace 1 the worker
runs S/2 seconds untraced and S/2 seconds traced, and the per-layer metrics
come from the traced half. Times are reported at the nominal machine speed
of speed.py; the raw ones are printed next to them.

It prints every metric with its name and unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. It exits 0
when every output check passed, 1 when one failed or the run could not
finish, 2 when the current directory holds no wgrover checkout. Everything it keeps (results, spans,
counts) goes under .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
# The keys of workloads.WORKLOADS, repeated because this process never imports wgrover.
WORKLOADS = ("figures", "compare_weights", "simulate_long", "oracle_xcheck")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 7
# The child times the speed reference itself, right after its set-up.
SETUP_CODE = ("import time, wgrover.cli as cli; cli.build_parser(); "
              "end = time.clock_gettime(time.CLOCK_MONOTONIC); "
              "import sys; sys.path.insert(0, {here!r}); import speed; "
              "print(end, speed.reference())")
TAIL_BEYOND = 10
TIME_UNITS = ("s", "ms", "us", "ns")
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(root: Path, env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until build_parser() returned,
    and the speed reference each interpreter timed next.

    The first launch only warms the file cache and writes bytecode; the
    clock is CLOCK_MONOTONIC, which parent and child share.
    """
    times, refs = [], []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(here=str(HERE))],
                              cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import wgrover.cli failed:\n{proc.stderr}")
        end, ref = (float(x) for x in proc.stdout.split())
        times.append(end - start)
        refs.append(ref)
    return times[1:], refs[1:]


def run_worker(root: Path, env, args, work: Path, spans: Path, timeout: float) -> dict:
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    With too few samples for that, the maximum, with fewer beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def llc() -> str:
    """Size and level of the largest CPU cache, from sysfs."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(build: Path, key: str, counts: list[dict]) -> list[str]:
    """Computed counts must repeat across the ops of a run and across runs."""
    if any(c != counts[0] for c in counts):
        return ["per-op counts differ between ops of one run"]
    store = build / "counts.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if key in known and known[key] != counts[0]:
        return [f"counts differ from an earlier run of {key}: {known[key]} vs {counts[0]}"]
    known[key] = counts[0]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "wgrover" / "__init__.py").is_file():
        print("run.py: no src/wgrover here; run from the root of a wgrover checkout",
              file=sys.stderr)
        return 2
    build = root / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup, setup_refs = ([], []) if args.trace else measure_setup(root, env)
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=build))
        try:
            timeout = DEADLINE_S - (time.monotonic() - started)
            record = run_worker(root, env, args, work, build / "spans" / f"{name}.json", timeout)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    problems = list(record["problems"])
    empty = {"latencies": [], "nominal": [], "failures": [], "counts": []}
    untraced, traced = record.get("untraced", empty), record.get("traced", empty)
    attempted = 1 + len(untraced["latencies"]) + len(traced["latencies"])
    failed = int(bool(problems)) + len(untraced["failures"]) + len(traced["failures"])
    problems += untraced["failures"] + traced["failures"]

    lat = untraced["nominal"]
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if lat and not args.trace:
        raw = untraced["latencies"]
        setup_nominal = [t * speed.NOMINAL_S / ref for t, ref in zip(setup, setup_refs)]
        tail_s, tail_pct, beyond = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setup_nominal), "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
            "op_ms_tail": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters; raw {statistics.median(setup):.4g} s",
            "ops_per_s": f"one client, seconds inside ops; raw {len(raw) / sum(raw):.4g}",
            "op_ms_p50": f"{len(lat)} ops; raw {1e3 * statistics.median(raw):.4g} ms",
            "op_ms_tail": f"p{tail_pct:.1f} of {len(lat)} ops, {beyond} beyond it",
            "peak_rss_mb": "ru_maxrss of the worker, not normalized",
        }
    elif traced["latencies"]:
        problems += check_counts_repeat(build, f"{args.workload}/seed{args.seed}/{src_digest(root)}",
                                        traced["counts"])
        traced_lat = traced["nominal"]
        # layer busy times are sums over the traced ops; scale them like the ops
        to_nominal = sum(traced_lat) / sum(traced["latencies"])
        metrics = {k: (v * to_nominal if u in TIME_UNITS else v, u)
                   for k, (v, u) in traced["layers"].items()}
        ratio = statistics.median(traced_lat) / statistics.median(lat)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        notes["trace.overhead_ratio"] = (f"median traced op / median untraced op, "
                                         f"{len(traced_lat)} and {len(lat)} ops")

    correct = not problems
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={record['numpy']} llc={llc()} threads={','.join(THREAD_VARS)}=1")
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit:6s} {notes.get(key, '')}")
    print(f"{'error_rate':36s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    results = build / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": record["numpy"], "llc": llc(),
                "threads": {var: "1" for var in THREAD_VARS}},
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")}
                    for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
        "artifacts_sha256": record["artifacts"], "setup_s": setup,
        "latencies_s": untraced["latencies"], "nominal_s": lat,
        "traced_latencies_s": traced["latencies"], "setup_refs_s": setup_refs,
    }, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
