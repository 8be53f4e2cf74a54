"""The wgrover benchmark's runs, summarized in the next BENCH_<n>.json.

    python3 tools/bench.py record --seeds N --seconds S
    python3 tools/bench.py ab --base REV --workload W [--pairs N] [--seconds S]

Run it from the root of a wgrover checkout.

`record` runs every workload of BENCHMARK.json in the working tree itself:

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

for seeds i = 1..N, then once with --seed 1 --trace 1.  For each workload the
file holds every end-to-end metric's per-seed values with their median and
interquartile range (IQR), the share of failed operations over all its runs,
and the traced run's per-layer metrics.  It also holds the git revision, with
a flag for uncommitted changes to tracked files, and the host: CPU count,
PYTHONDONTWRITEBYTECODE, the OPENBLAS_* variables and numpy's enabled CPU
features.  It exits 1 after writing the file when any run reported a failed
output check, counted as a failed operation or not.

`ab` compares a base revision with the working tree.  It extracts REV with
`git archive` into one scratch directory and copies the working tree (tracked
and untracked files, not ignored ones) into another whose path has the same
length, so the two sides differ only in their code.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

in each, the base first in odd pairs and the working tree first in even ones,
and reads the results file that run writes.

For each end-to-end metric of BENCHMARK.json the file holds both sides'
per-pair values with their medians and IQRs, and the paired ratio, working
tree over base, of every pair with its quartiles, as pyperf's compare_to pairs
runs.  Its verdict, taken in this order:

* "worse": the working tree's median is worse than the base's by more than
  the metric's bound (a fraction of the base's median);
* "better": the working tree wins at least 9 in 10 of all pairs, ties counting
  for neither, and the medians differ by more than the base's IQR;
* "unresolved": the base's IQR is wider than the bound, and not every run of
  the working tree reads better than every run of the base;
* "same" otherwise.

The share of failed operations is compared the same way: "worse" when the
working tree's is larger.  Nothing here changes the benchmark or its bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = "perfbench/run.py"
# A gain must win at least this share of all pairs.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, by linear interpolation."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric's per-pair values on both sides, their summary and its verdict.

    base[i] and head[i] come from pair i; better is "lower" or "higher" and bound
    the largest worsening of the median, as a fraction of the base's, that is not
    a regression.
    """
    if len(base) != len(head) or not base:
        raise ValueError("need one value per side for every pair, and at least one pair")
    sign = 1.0 if better == "higher" else -1.0
    b_q, h_q = quartiles(base), quartiles(head)
    b_med, h_med, b_iqr = b_q[1], h_q[1], b_q[2] - b_q[0]
    ratios = [h / b for b, h in zip(base, head)]
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    every_run_better = min(head) > max(base) if sign > 0 else max(head) < min(base)
    if sign * (h_med - b_med) < -bound * abs(b_med):
        verdict = "worse"
    elif wins >= WIN_SHARE * len(base) and sign * (h_med - b_med) > b_iqr:
        verdict = "better"
    elif b_iqr > bound * abs(b_med) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "better": better, "bound": bound,
        "base": base, "head": head,
        "base_median": b_med, "base_iqr": b_iqr,
        "head_median": h_med, "head_iqr": h_q[2] - h_q[0],
        "ratios": ratios, "ratio_quartiles": quartiles(ratios),
        "head_wins": wins, "pairs": len(base), "verdict": verdict,
    }


def summarize(base_runs: list[dict], head_runs: list[dict], end_to_end: list[dict]) -> dict:
    """Every end-to-end metric and the failed share, from the run results of each pair."""
    metrics = {
        m["name"]: compare([r["metrics"][m["name"]]["value"] for r in base_runs],
                           [r["metrics"][m["name"]]["value"] for r in head_runs],
                           m["better"], m["bound"])
        for m in end_to_end
    }
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in (base_runs, head_runs)]
    failed = {"base_share": shares[0], "head_share": shares[1],
              "verdict": "worse" if shares[1] > shares[0] else "same"}
    return {"metrics": metrics, "failed": failed}


def describe(runs: list[dict], traced: dict, end_to_end: list[dict]) -> dict:
    """One workload's record: its untraced runs' end-to-end metrics, one per seed,
    with their medians and IQRs, the failed share over every run, traced one
    included, and the traced run's per-layer metrics."""
    metrics = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q = quartiles(values)
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "values": values,
                              "median": q[1], "iqr": q[2] - q[0]}
    every = [*runs, traced]
    return {"metrics": metrics,
            "failed_share": sum(r["failed"] for r in every) / sum(r["attempted"] for r in every),
            "problems": [p for r in every for p in r["problems"]],
            "layers": traced["metrics"]}


def host(env: dict) -> dict:
    """The machine and the variables that move the benchmark's numbers, with a
    results file's env block."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"nproc": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            **{k: v for k, v in sorted(os.environ.items()) if k.startswith("OPENBLAS_")},
            "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
            **env}


def next_bench_path(root: Path) -> Path:
    """BENCH_<n>.json with n one past the highest already in root."""
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout


def revision(root: Path) -> tuple[str, bool]:
    """HEAD's commit, and whether tracked files differ from it."""
    return (git(root, "rev-parse", "HEAD").strip(),
            bool(git(root, "status", "--porcelain", "--untracked-files=no").strip()))


def extract(root: Path, rev: str, dest: Path) -> None:
    """REV's committed files into dest, by git archive."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_tree(root: Path, dest: Path) -> None:
    """The working tree's tracked and untracked files, not ignored ones, into dest."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(side: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in side; its results file."""
    name = f"{workload}-seed{seed}-trace{trace}.json"
    result = side / ".bench_build" / "perfbench" / "results" / name
    result.unlink(missing_ok=True)  # an earlier run's file must not pass for this one's
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=side, capture_output=True, text=True)
    # run.py exits 1 when an output check failed; its results file counts the failure
    if proc.returncode not in (0, 1) or not result.is_file():
        raise SystemExit(f"bench.py: run.py exited {proc.returncode} in {side}:\n"
                         f"{proc.stderr[-2000:]}")
    return read_result(result)


def read_result(path: Path) -> dict:
    """A run.py results file: its metrics, operation counts and failed checks."""
    record = json.loads(path.read_text(encoding="utf-8"))
    return {"metrics": record["metrics"], "attempted": record["attempted"],
            "failed": record["failed"], "problems": record["problems"], "env": record["env"]}


def record(args: argparse.Namespace) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    head, dirty = revision(root)
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(root, name, seed, args.seconds) for seed in range(1, args.seeds + 1)]
        traced = run_once(root, name, 1, args.seconds, trace=1)
        workloads[name] = describe(runs, traced, spec["end_to_end"])
        print(f"{name} done", file=sys.stderr)
    out = {
        "command": ["python3", "tools/bench.py", *sys.argv[1:]],
        "seeds": args.seeds, "seconds": args.seconds, "head": head, "head_dirty": dirty,
        "host": host(runs[0]["env"]), "workloads": workloads,
    }
    path = next_bench_path(root)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, w in workloads.items():
        print(f"{name}: failed share {w['failed_share']:.3g}")
        for metric, m in w["metrics"].items():
            print(f"  {metric:12s} {m['median']:10.4g} {m['unit']:6s} (IQR {m['iqr']:.3g})")
        for problem in w["problems"][:5]:
            print(f"  FAILED: {problem}")
    print(f"wrote {path.name}")
    # run.py adds the traced run's per-op count check to problems, not to failed
    return 1 if any(w["failed_share"] or w["problems"] for w in workloads.values()) else 0


def ab(args: argparse.Namespace) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_rev = git(root, "rev-parse", "--verify", args.base + "^{commit}").strip()
    head_rev, dirty = revision(root)
    scratch = Path(tempfile.mkdtemp(prefix="wgrover-ab-"))
    try:
        base, head = scratch / "base", scratch / "head"
        extract(root, base_rev, base)
        head.mkdir()
        copy_tree(root, head)
        runs = {base: [], head: []}
        for i in range(1, args.pairs + 1):
            for side in (base, head) if i % 2 else (head, base):
                runs[side].append(run_once(side, args.workload, i, args.seconds))
            print(f"pair {i}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = {
        "command": ["python3", "tools/bench.py", *sys.argv[1:]],
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "base": base_rev, "head": head_rev, "head_dirty": dirty,
        "host": host(runs[base][0]["env"]),
        **summarize(runs[base], runs[head], spec["end_to_end"]),
    }
    path = next_bench_path(root)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, m in out["metrics"].items():
        print(f"{name:12s} {m['base_median']:10.4g} -> {m['head_median']:10.4g} "
              f"(IQR {m['base_iqr']:.3g}; ratio {m['ratio_quartiles'][1]:.4f}; "
              f"{m['head_wins']}/{m['pairs']} won) {m['verdict']}")
    print(f"wrote {path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record", help="runs of every workload in the working tree")
    r.add_argument("--seeds", type=int, default=5)
    r.add_argument("--seconds", type=float, default=25.0)
    p = sub.add_parser("ab", help="paired runs of a base revision against the working tree")
    p.add_argument("--base", required=True, help="the git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.command == "record":
        if args.seeds < 1:
            parser.error("--seeds must be at least 1")
        return record(args)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
