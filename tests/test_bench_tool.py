"""tools/bench.py's records and paired verdicts, on synthetic run.py results files;
nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def results_file(path: Path, values: dict, attempted=100, failed=0, trace=0,
                 problems=None) -> Path:
    """A results file in run.py's layout, with the given metric values; one problem
    per failed operation unless the problems are given."""
    path.write_text(json.dumps({
        "workload": "simulate_long", "seed": 1, "trace": trace,
        "env": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "llc": "L3 300 MiB",
                "threads": {"OPENBLAS_NUM_THREADS": "1"}},
        "metrics": {k: {"value": v, "unit": "", "note": ""} for k, v in values.items()},
        "attempted": attempted, "failed": failed,
        "problems": [f"check {i} failed" for i in range(failed)] if problems is None else problems,
        "latencies_s": [0.03],
    }), encoding="utf-8")
    return path


def runs(tmp_path, side, ops_per_s, failed=0):
    """One results file per pair, every other metric held at a fixed value."""
    return [bench.read_result(results_file(
        tmp_path / f"{side}{i}.json",
        {"setup_s": 0.14, "ops_per_s": v, "op_ms_p50": 1e3 / v, "op_ms_tail": 1.2e3 / v,
         "peak_rss_mb": 50.0}, failed=failed if i == 0 else 0))
        for i, v in enumerate(ops_per_s)]


def test_a_clear_gain_is_better_and_reports_paired_ratios(tmp_path):
    base = [34.0, 34.5, 35.0, 34.2, 34.8, 34.4, 34.6, 34.1, 34.9, 34.3]
    head = [v * 1.05 for v in base]
    got = bench.summarize(runs(tmp_path, "b", base), runs(tmp_path, "h", head), END_TO_END)
    ops = got["metrics"]["ops_per_s"]
    assert ops["verdict"] == "better" and ops["head_wins"] == 10 and ops["pairs"] == 10
    assert ops["base_median"] == pytest.approx(34.45)
    assert ops["base_iqr"] == pytest.approx(34.75 - 34.225)
    assert ops["ratio_quartiles"] == pytest.approx([1.05] * 3)
    assert ops["ratios"] == pytest.approx([1.05] * 10)
    # a latency is better when lower
    assert got["metrics"]["op_ms_p50"]["verdict"] == "better"
    assert got["metrics"]["peak_rss_mb"]["verdict"] == "same"
    assert got["failed"] == {"base_share": 0.0, "head_share": 0.0, "verdict": "same"}


def test_worse_beyond_the_bound_is_worse_whatever_the_wins():
    base = [10.0, 10.1, 9.9, 10.0, 10.2]
    # peak_rss_mb's bound is 0.1: 11.2 MB against 10.0 is worse
    assert bench.compare(base, [11.2] * 5, "lower", 0.1)["verdict"] == "worse"
    assert bench.compare(base, [10.9] * 5, "lower", 0.1)["verdict"] == "same"
    assert bench.compare(base, [8.8] * 5, "higher", 0.1)["verdict"] == "worse"


def test_a_gain_needs_nine_wins_in_ten_and_more_than_the_base_iqr():
    base = [100.0 + i for i in range(10)]
    # eight wins of ten, by far more than the IQR: not a gain
    head = [v + 20.0 for v in base[:8]] + [v - 1.0 for v in base[8:]]
    assert bench.compare(base, head, "higher", 0.25)["head_wins"] == 8
    assert bench.compare(base, head, "higher", 0.25)["verdict"] == "same"
    # every pair won, by less than the base's IQR (4.5): not a gain
    small = [v + 1.0 for v in base]
    assert bench.compare(base, small, "higher", 0.25)["verdict"] == "same"
    # ties count for neither side
    assert bench.compare(base, base, "higher", 0.25)["head_wins"] == 0


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    base = [60.0, 100.0, 140.0, 80.0, 120.0]  # IQR 40 against 0.25 * 100
    mixed = [70.0, 95.0, 150.0, 85.0, 110.0]
    assert bench.compare(base, mixed, "higher", 0.25)["verdict"] == "unresolved"
    assert bench.compare(base, [150.0] * 5, "higher", 0.25)["verdict"] == "better"
    assert bench.compare(base, [50.0, 50.0, 50.0, 50.0, 55.0], "lower", 0.25)["verdict"] == "better"
    assert bench.compare(base, [141.0] * 4 + [59.0], "lower", 0.25)["verdict"] == "worse"


def test_a_larger_share_of_failed_operations_is_worse(tmp_path):
    base, head = runs(tmp_path, "b", [30.0] * 3), runs(tmp_path, "h", [30.0] * 3, failed=2)
    assert bench.summarize(base, head, END_TO_END)["failed"] == {
        "base_share": 0.0, "head_share": 2 / 300, "verdict": "worse"}


def test_pairs_must_match_and_the_next_bench_file_follows_the_highest(tmp_path):
    with pytest.raises(ValueError):
        bench.compare([1.0, 2.0], [1.0], "higher", 0.25)
    assert bench.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_7.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench.next_bench_path(tmp_path).name == "BENCH_8.json"


LAYERS = {"grover_core.iterate.busy_s": 0.0054, "grover_core.iterate.steps": 20000,
          "trace.overhead_ratio": 1.04}


def traced(tmp_path, failed=0):
    return bench.read_result(results_file(tmp_path / "traced.json", LAYERS, attempted=40,
                                          failed=failed, trace=1))


def test_record_summarizes_each_metric_over_the_seeds(tmp_path):
    ops = [30.0, 34.0, 32.0, 31.0, 33.0]
    got = bench.describe(runs(tmp_path, "s", ops), traced(tmp_path), END_TO_END)
    assert list(got["metrics"]) == [m["name"] for m in END_TO_END]
    m = got["metrics"]["ops_per_s"]
    assert m["values"] == ops and m["median"] == 32.0 and m["iqr"] == pytest.approx(2.0)
    assert m["unit"] == "ops/s" and m["better"] == "higher"
    assert got["metrics"]["peak_rss_mb"]["iqr"] == 0.0
    assert got["metrics"]["op_ms_p50"]["median"] == pytest.approx(1e3 / 32.0)
    assert {k: v["value"] for k, v in got["layers"].items()} == LAYERS
    assert got["failed_share"] == 0.0 and got["problems"] == []
    # one seed: its value is the median, with no spread
    one = bench.describe(runs(tmp_path, "o", [30.0]), traced(tmp_path), END_TO_END)
    assert one["metrics"]["ops_per_s"]["median"] == 30.0
    assert one["metrics"]["ops_per_s"]["iqr"] == 0.0


def test_record_counts_failures_of_the_traced_run_too(tmp_path):
    got = bench.describe(runs(tmp_path, "s", [30.0] * 3, failed=1), traced(tmp_path, failed=2),
                         END_TO_END)
    assert got["failed_share"] == 3 / 340
    assert got["problems"] == ["check 0 failed", "check 0 failed", "check 1 failed"]


def test_host_block(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Nehalem")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    got = bench.host({"python": "3.11.7"})
    assert got["OPENBLAS_CORETYPE"] == "Nehalem" and got["PYTHONDONTWRITEBYTECODE"] == "1"
    assert got["python"] == "3.11.7" and got["nproc"] >= 1
    assert got["numpy_cpu_features"] and all(isinstance(f, str) for f in got["numpy_cpu_features"])
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench.host({})["PYTHONDONTWRITEBYTECODE"] is None


@pytest.mark.parametrize("failing", [None, "oracle_xcheck", "counts"])
def test_record_writes_the_file_then_fails_on_a_failed_check(tmp_path, monkeypatch, failing):
    # run.py is replaced by synthetic results: which runs record asks for, and what it writes
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCH_2.json").write_text("{}")
    calls = []

    def run_once(side, workload, seed, seconds, trace=0):
        calls.append((workload, seed, seconds, trace))
        values = LAYERS if trace else {"setup_s": 0.14, "ops_per_s": 30.0 + seed,
                                       "op_ms_p50": 33.0, "op_ms_tail": 40.0, "peak_rss_mb": 50.0}
        path = tmp_path / f"{workload}-{seed}-{trace}.json"
        if failing == "counts":
            # run.py's per-op count check of a traced run fails no operation
            counted = trace and workload == "figures"
            problems = ["per-op counts differ between ops"] if counted else []
            return bench.read_result(results_file(path, values, trace=trace, problems=problems))
        return bench.read_result(results_file(path, values, failed=int(workload == failing),
                                              trace=trace))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "revision", lambda root: ("0" * 40, True))
    code = bench.main(["record", "--seeds", "3", "--seconds", "2"])
    assert code == (1 if failing else 0)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    # seeds 1..3 untraced, then seed 1 traced, workload by workload
    assert calls == [run for w in names
                     for run in [(w, 1, 2.0, 0), (w, 2, 2.0, 0), (w, 3, 2.0, 0), (w, 1, 2.0, 1)]]
    got = json.loads((tmp_path / "BENCH_3.json").read_text())
    assert got["head"] == "0" * 40 and got["head_dirty"] is True
    assert got["seeds"] == 3 and got["seconds"] == 2.0 and "numpy_cpu_features" in got["host"]
    assert list(got["workloads"]) == names
    assert got["workloads"]["figures"]["metrics"]["ops_per_s"]["values"] == [31.0, 32.0, 33.0]
    shares = {w: got["workloads"][w]["failed_share"] for w in names}
    assert shares == {w: (4 / 400 if w == failing else 0.0) for w in names}
    if failing == "counts":
        assert got["workloads"]["figures"]["problems"] == ["per-op counts differ between ops"]


def test_ab_writes_its_pairs_and_verdicts(tmp_path, monkeypatch):
    # git, the two checkouts and run.py are replaced: which runs ab asks for, and what it writes
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_once(side, workload, seed, seconds, trace=0):
        calls.append((side.name, seed, trace))
        values = {"setup_s": 0.14, "ops_per_s": 30.0 + (side.name == "head"), "op_ms_p50": 33.0,
                  "op_ms_tail": 40.0, "peak_rss_mb": 50.0}
        return bench.read_result(results_file(tmp_path / f"{side.name}{seed}.json", values))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "git", lambda root, *args: "1" * 40 + "\n")
    monkeypatch.setattr(bench, "revision", lambda root: ("2" * 40, False))
    monkeypatch.setattr(bench, "extract", lambda root, rev, dest: dest.mkdir())
    monkeypatch.setattr(bench, "copy_tree", lambda root, dest: None)
    assert bench.main(["ab", "--base", "HEAD~1", "--workload", "simulate_long", "--pairs", "3",
                       "--seconds", "2"]) == 0
    # the base runs first in odd pairs, the working tree in even ones
    assert calls == [("base", 1, 0), ("head", 1, 0), ("head", 2, 0), ("base", 2, 0),
                     ("base", 3, 0), ("head", 3, 0)]
    got = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert (got["base"], got["head"], got["head_dirty"]) == ("1" * 40, "2" * 40, False)
    assert got["metrics"]["ops_per_s"]["head"] == [31.0] * 3
    assert got["metrics"]["ops_per_s"]["verdict"] == "better"
    assert "numpy_cpu_features" in got["host"]
