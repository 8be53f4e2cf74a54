"""tools/bench.py's paired verdicts, on synthetic run.py results files; nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def results_file(path: Path, values: dict, attempted=100, failed=0) -> Path:
    """A results file in run.py's layout, with the given end-to-end metric values."""
    path.write_text(json.dumps({
        "workload": "simulate_long", "seed": 1, "trace": 0,
        "env": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "llc": "L3 300 MiB",
                "threads": {"OPENBLAS_NUM_THREADS": "1"}},
        "metrics": {k: {"value": v, "unit": "", "note": ""} for k, v in values.items()},
        "attempted": attempted, "failed": failed, "problems": [], "latencies_s": [0.03],
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
