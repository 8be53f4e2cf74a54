"""End-to-end tests of the command-line interface and its file artifacts."""

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wgrover
from wgrover import amplitudes, analysis, cli, csvio, grover_core
from wgrover.amplitudes import MAX_ENTRIES, load_spec
from wgrover.cli import MAX_RMAX, main

UNIFORM20 = '{"kind":"uniform","n":20}'
UNIFORM4 = '{"kind":"uniform","n":4}'
COHERENT08 = '{"kind":"coherent","alpha_re":0.8,"alpha_im":0.0,"q1":1,"n":20}'
COHERENT32 = '{"kind":"coherent","alpha_re":3.2,"alpha_im":0.0,"q1":1,"n":20}'
# |P(k)| = 1.3e-170 at k = 170; |P(k)|^2 underflows to 0 from k = 164 on
COHERENT08_N200 = '{"kind":"coherent","alpha_re":0.8,"q1":1,"n":200}'


def run(*argv):
    return main(list(argv))


def read_csv(path, header):
    """The rows of a written CSV as dicts, read by the stdlib csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == header
    return rows


class TestDistCommand:
    def test_coherent_rows_sum_to_one(self, tmp_path):
        assert run("dist", "--inline", COHERENT08, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "dist.csv", csvio.DISTRIBUTION_HEADER)
        assert len(rows) == 21
        assert [int(row["k"]) for row in rows] == list(range(1, 22))
        assert abs(sum(float(row["p_k"]) for row in rows) - 1.0) <= 1e-9

    def test_farthest_window_keeps_its_shape(self, tmp_path):
        # each label holds 0.64 / k of the one before, so label q1 holds nearly all the weight
        q1 = 2**63 - 21
        spec = '{"kind":"coherent","alpha_re":0.8,"q1":9223372036854775787,"n":20}'
        assert run("dist", "--inline", spec, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "dist.csv", csvio.DISTRIBUTION_HEADER)
        assert [int(row["k"]) for row in rows] == list(range(q1, q1 + 21))
        assert float(rows[0]["p_k"]) == 1.0
        assert float(rows[1]["p_k"]) == pytest.approx(0.64 / (q1 + 1), rel=1e-12)

    def test_uniform_rows(self, tmp_path):
        assert run("dist", "--inline", UNIFORM20, "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "dist.csv", csvio.DISTRIBUTION_HEADER)
        assert all(float(row["p_k"]) == pytest.approx(0.05, abs=1e-15) for row in rows)

    def test_svg_flag(self, tmp_path):
        run("dist", "--inline", UNIFORM4, "--out", str(tmp_path), "--svg")
        text = (tmp_path / "dist.svg").read_text()
        assert text.startswith("<svg") and "</svg>" in text

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "db.json"
        spec.write_text(COHERENT08)
        assert run("dist", "--spec", str(spec), "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "dist.csv").exists()

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        assert run("dist", "--inline", "{oops", "--out", str(tmp_path)) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_undecodable_spec_file_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "db.json"
        spec.write_bytes(b"\xff\xfe" + UNIFORM4.encode("utf-16-le"))
        assert run("dist", "--spec", str(spec), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not UTF-8" in err
        assert not (tmp_path / "o").exists()

    def test_deeply_nested_json_exits_1(self, tmp_path, capsys):
        # json.loads recurses once per bracket; 100 000 exceed any recursion limit
        assert run("dist", "--inline", "[" * 100_000, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nested too deeply" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["--inline", "--spec"])
    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys, source):
        # json.loads raises a plain ValueError on an integer of more than 4300 digits
        text = '{"kind":"uniform","n":%s}' % ("1" * 4301)
        if source == "--spec":
            (tmp_path / "db.json").write_text(text)
            text = str(tmp_path / "db.json")
        assert run("dist", source, text, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invalid JSON" in err and "more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err
        assert not (tmp_path / "o").exists()

    def test_field_the_kind_does_not_read_exits_1(self, tmp_path, capsys):
        # a typo of alpha_im is named, not read as alpha_im = 0
        typo = '{"kind":"coherent","alpha_re":0.8,"alpha_img":0.5,"q1":1,"n":20}'
        assert run("dist", "--inline", typo, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown field(s) 'alpha_img'" in err
        assert not (tmp_path / "o").exists()

    def test_invalid_spec_exits_1(self, tmp_path):
        assert run("dist", "--inline", '{"kind":"uniform","n":1}', "--out", str(tmp_path)) == 1

    def test_spec_and_inline_are_exclusive(self, tmp_path):
        spec = tmp_path / "db.json"
        spec.write_text(UNIFORM20)
        assert run("dist", "--spec", str(spec), "--inline", UNIFORM20) == 1


class TestSimulateCommand:
    def test_summary_and_csv(self, tmp_path, capsys):
        assert run("simulate", "--inline", UNIFORM20, "--target", "1",
                   "--out", str(tmp_path)) == 0
        assert "r*=3" in capsys.readouterr().out
        rows = read_csv(tmp_path / "trajectory.csv", csvio.TRAJECTORY_HEADER)
        assert len(rows) == 201
        row = rows[3]
        assert row["r"] == "3"
        assert float(row["a_re"]) == pytest.approx(-0.008, abs=1e-12)
        assert float(row["b_re"]) == pytest.approx(1.0017584539199058, abs=1e-12)
        assert float(row["success_prob"]) == pytest.approx(0.9999392, abs=1e-7)

    def test_one_step_certainty(self, tmp_path, capsys):
        assert run("simulate", "--inline", UNIFORM4, "--target", "1",
                   "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "r*=1" in out and "prob=1" in out

    def test_round_trip_is_exact(self, tmp_path):
        run("simulate", "--inline", COHERENT08, "--target", "3", "--rmax", "20",
            "--out", str(tmp_path))
        traj = grover_core.iterate(load_spec(json.loads(COHERENT08)), 3, 20)
        rows = read_csv(tmp_path / "trajectory.csv", csvio.TRAJECTORY_HEADER)
        assert len(rows) == len(traj.points)
        for pt, row in zip(traj.points, rows):
            a = complex(float(row["a_re"]), float(row["a_im"]))
            b = complex(float(row["b_re"]), float(row["b_im"]))
            assert (pt.r, pt.state.a, pt.state.b, pt.success_prob) == (
                int(row["r"]), a, b, float(row["success_prob"]))

    def test_missing_target_exits_1(self, tmp_path, capsys):
        assert run("simulate", "--inline", UNIFORM20, "--out", str(tmp_path)) == 1
        assert "--target" in capsys.readouterr().err

    def test_no_peak_exits_3_with_advice(self, tmp_path, capsys):
        assert run("simulate", "--inline", UNIFORM20, "--target", "1",
                   "--rmax", "1", "--out", str(tmp_path)) == 3
        assert "r_max" in capsys.readouterr().err
        # the peak is found before anything is written
        assert not (tmp_path / "trajectory.csv").exists()


class TestContinuumCommand:
    def test_summary_values(self, tmp_path, capsys):
        assert run("continuum", "--inline", UNIFORM20, "--target", "1",
                   "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "T=14.4146" in out
        assert "x*=3.05156" in out

    def test_curve_samples(self, tmp_path):
        run("continuum", "--inline", UNIFORM20, "--target", "1", "--out", str(tmp_path))
        rows = read_csv(tmp_path / "continuum.csv", csvio.CONTINUUM_HEADER)
        first = tuple(map(float, rows[0].values()))
        assert first == (0.0, pytest.approx(0.8), pytest.approx(2 / math.sqrt(20)))
        xs = [float(row["x"]) for row in rows]
        assert xs[1] == pytest.approx(0.01)
        assert xs[-1] == pytest.approx(3 * 14.41461568291336, abs=0.01)

    def test_equal_split_period(self, tmp_path, capsys):
        run("continuum", "--inline", '{"kind":"weights","weights":[0.5,0.5]}',
            "--target", "1", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert f"T={2 * math.pi:.6g}" in out


class TestCompareCommand:
    def test_coherent_08_flags_first_element(self, tmp_path, capsys):
        assert run("compare", "--inline", COHERENT08, "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "global speedup: False" in out
        assert "fails for k = [1]" in out

    def test_coherent_32_no_failures(self, tmp_path, capsys):
        assert run("compare", "--inline", COHERENT32, "--out", str(tmp_path)) == 0
        assert "holds for every k" in capsys.readouterr().out

    def test_uniform_global_verdict(self, tmp_path, capsys):
        assert run("compare", "--inline", UNIFORM20, "--out", str(tmp_path)) == 0
        assert "global speedup: True" in capsys.readouterr().out

    def test_csv_round_trip(self, tmp_path):
        run("compare", "--inline", COHERENT08, "--out", str(tmp_path))
        rows = read_csv(tmp_path / "comparison.csv", csvio.COMPARISON_HEADER)
        assert len(rows) == 21
        assert rows[0]["discrete_peak"] == "2"
        assert rows[-1]["discrete_peak"] == ""
        for row in rows:
            product = float(row["recip_classical"]) * float(row["classical_steps"])
            assert product == pytest.approx(1.0, abs=1e-12)

    def test_svg_outputs(self, tmp_path):
        run("compare", "--inline", COHERENT32, "--out", str(tmp_path), "--svg")
        assert (tmp_path / "comparison_recip.svg").exists()
        assert (tmp_path / "comparison_log.svg").exists()

    def test_empty_cells_between_filled_ones_match_percent(self, tmp_path):
        # tiny and large weights alternate: every other first crest lies past
        # DEFAULT_PEAK_BUDGET, over several of numtext's blocks of rows
        large = [(i + 1) / 45150 for i in range(300)]  # sums to 1
        weights = json.dumps({"kind": "weights",
                              "weights": [w for big in large for w in (big, 1e-14)]})
        assert run("compare", "--inline", weights, "--out", str(tmp_path)) == 0
        table = analysis.comparison_table(load_spec(json.loads(weights)))
        peaks = [row.discrete_peak for row in table]
        assert peaks[1::2] == [None] * 300 and None not in peaks[::2]
        want = ",".join(csvio.COMPARISON_HEADER) + "\n" + "".join(
            csvio.COMPARISON_ROW % row._replace(discrete_peak="" if row.discrete_peak is None
                                                else row.discrete_peak)
            for row in table)
        assert (tmp_path / "comparison.csv").read_bytes() == want.encode()

    def test_write_and_plot_paths_build_no_rows(self, tmp_path, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a ComparisonRow was built")

        monkeypatch.setattr(analysis, "ComparisonRow", no_rows)
        assert run("compare", "--inline", COHERENT08, "--svg", "--out", str(tmp_path)) == 0
        assert run("repro", "fig5", "--out", str(tmp_path)) == 0
        assert run("repro", "fig6", "--out", str(tmp_path)) == 0
        with pytest.raises(AssertionError, match="ComparisonRow"):
            next(iter(analysis.comparison_table(load_spec(json.loads(COHERENT08)))))

    def test_label_metrics_are_computed_once(self, tmp_path, monkeypatch):
        # the table and both verdicts read one delta_tilde pass over the labels
        calls, delta_tilde = [], analysis.delta_tilde

        def counted(p_abs):
            calls.append(p_abs)
            return delta_tilde(p_abs)

        monkeypatch.setattr(analysis, "delta_tilde", counted)
        assert run("compare", "--inline", COHERENT08, "--svg", "--out", str(tmp_path)) == 0
        assert len(calls) == 1


class TestReproCommand:
    def test_fig2_artifacts(self, tmp_path):
        assert run("repro", "fig2", "--out", str(tmp_path)) == 0
        base = tmp_path / "fig2"
        for name in ("trajectory.csv", "trajectory.svg", "continuum.csv", "continuum.svg"):
            assert (base / name).exists()

    def test_fig3_four_alphas(self, tmp_path):
        assert run("repro", "fig3", "--out", str(tmp_path)) == 0
        for alpha in ("0.8", "1.6", "2.4", "3.2"):
            rows = read_csv(tmp_path / "fig3" / f"alpha_{alpha}.csv", csvio.DISTRIBUTION_HEADER)
            assert len(rows) == 21
            assert abs(sum(float(row["p_k"]) for row in rows) - 1.0) <= 1e-9

    def test_fig4_targets_k3(self, tmp_path):
        assert run("repro", "fig4", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "fig4" / "trajectory.csv", csvio.TRAJECTORY_HEADER)
        probs = [float(row["success_prob"]) for row in rows]
        assert probs[3] == pytest.approx(0.9998405317851912, abs=1e-9)
        assert probs[3] >= probs[2] and probs[3] >= probs[4]

    def test_fig5_fig6_tables(self, tmp_path):
        assert run("repro", "fig5", "--out", str(tmp_path)) == 0
        assert run("repro", "fig6", "--out", str(tmp_path)) == 0
        recip = read_csv(tmp_path / "fig5" / "alpha_0.8.csv", csvio.COMPARISON_HEADER)
        assert [int(row["k"]) for row in recip] == list(range(1, 22))
        assert (tmp_path / "fig5" / "alpha_0.8_recip.svg").exists()
        assert (tmp_path / "fig6" / "alpha_0.8_log.svg").exists()

    def test_all_writes_every_figure_in_one_run(self, tmp_path, capsys):
        # the golden hashes pin the bytes; here each figure is reported once
        assert run("repro", "all", "--out", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"wrote {fig} artifacts under {tmp_path / fig}" for fig in cli.FIGURES]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(cli.FIGURES)

    def test_fig2_byte_determinism(self, tmp_path):
        run("repro", "fig2", "--out", str(tmp_path / "a"))
        run("repro", "fig2", "--out", str(tmp_path / "b"))
        names = ["trajectory.csv", "trajectory.svg", "continuum.csv", "continuum.svg"]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / "fig2", tmp_path / "b" / "fig2", names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert sorted(match) == sorted(names)


class TestExitCodes:
    def test_io_error_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run("dist", "--inline", UNIFORM4, "--out", str(blocker / "sub"))
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_figure_exits_1(self):
        assert run("repro", "fig9") == 1

    def test_successive_calls_share_one_parser(self, tmp_path, capsys):
        # main parses with one parser per process; each call gets its own
        # defaults, whatever the call before it parsed or rejected
        out = str(tmp_path)
        assert run("simulate", "--inline", UNIFORM20, "--target", "1", "--rmax", "3",
                   "--out", out) == 3
        assert run("repro", "fig2", "--svg", "--out", out) == 1
        assert run("simulate", "--inline", UNIFORM20, "--target", "1", "--out", out) == 0
        assert run("dist", "--inline", UNIFORM20, "--target", "1", "--out", out) == 1
        assert run("compare", "--inline", UNIFORM20, "--out", out) == 0
        assert len(read_csv(tmp_path / "trajectory.csv", csvio.TRAJECTORY_HEADER)) == 201
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "command, flag",
        [("dist", "--target 1"), ("dist", "--rmax 5"), ("continuum", "--rmax 5"),
         ("compare", "--target 1"), ("compare", "--rmax 5"), ("repro", "--target 1"),
         ("repro", "--rmax 5"), ("repro", "--svg")],
    )
    def test_option_the_command_does_not_read_exits_1(self, tmp_path, capsys, command, flag):
        if command == "repro":
            argv = ["repro", "fig2"]
        else:
            argv = [command, "--inline", UNIFORM4]
            if command == "continuum":
                argv += ["--target", "1"]
        assert run(*argv, *flag.split(), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"wgrover: validation error: unrecognized arguments: {flag}")
        assert list(tmp_path.iterdir()) == []

    def test_bad_rmax_exits_1(self, tmp_path):
        assert run("simulate", "--inline", UNIFORM4, "--target", "1",
                   "--rmax", "0", "--out", str(tmp_path)) == 1

    def test_rmax_above_cap_exits_1(self, tmp_path, capsys):
        # rejected before the spec is loaded or iterate allocates anything
        assert run("simulate", "--inline", UNIFORM4, "--target", "1",
                   "--rmax", str(MAX_RMAX + 1), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"<= {MAX_RMAX}" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"uniform","n":1000000000000}',
            '{"kind":"coherent","alpha_re":0.8,"q1":1,"n":1000001}',
        ],
        ids=["uniform-1e12", "coherent-cap+1"],
    )
    def test_n_above_cap_exits_1(self, tmp_path, capsys, monkeypatch, spec):
        def build(*args):
            raise AssertionError("built a distribution past MAX_ENTRIES")
        monkeypatch.setattr(amplitudes, "uniform", build)
        monkeypatch.setattr(amplitudes, "truncated_coherent", build)
        assert run("dist", "--inline", spec, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"<= {MAX_ENTRIES}" in err
        assert not (tmp_path / "dist.csv").exists()

    def test_unbounded_continuum_sampling_exits_1(self, tmp_path, capsys):
        # k = 21 of the alpha = 0.8 window: [0, 3T] at step 0.01 is ~7e14 rows
        assert run("continuum", "--inline", COHERENT08, "--target", "21", "--svg",
                   "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "validation error" in err
        assert not (tmp_path / "continuum.csv").exists()
        assert not (tmp_path / "continuum.svg").exists()

    @pytest.mark.parametrize(
        "command, artifact, named",
        [("simulate", "trajectory.csv", "|P(170)|^2"),
         ("continuum", "continuum.csv", "|P(k)|^2"),
         ("compare", "comparison.csv", "|P(164)|^2")],
    )
    def test_underflowing_target_exits_1(self, tmp_path, capsys, command, artifact, named):
        target = [] if command == "compare" else ["--target", "170"]
        assert run(command, "--inline", COHERENT08_N200, *target, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"validation error: {named} = 0.0 is degenerate" in err
        assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize(
        "command, spec, target, code",
        [("simulate", COHERENT08_N200, "170", 1),
         ("continuum", COHERENT08_N200, "170", 1),
         ("compare", COHERENT08_N200, "170", 1),
         ("continuum", COHERENT08, "21", 1),
         ("simulate", COHERENT08, "21", 3)],
        ids=["simulate", "continuum", "compare", "continuum-grid", "simulate-no-peak"],
    )
    def test_failed_run_creates_no_directory(self, tmp_path, command, spec, target, code):
        out = tmp_path / "never"
        target = [] if command == "compare" else ["--target", target]
        assert run(command, "--inline", spec, *target, "--svg", "--out", str(out)) == code
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["1e-20", "5e-324"], ids=["1e-20", "subnormal"])
    def test_smallest_targets_exit_3(self, tmp_path, capsys, weight):
        # valid targets (|P|^2 = 1e-20 and the smallest positive double)
        # whose first peak lies far past --rmax
        spec = f'{{"kind":"weights","weights":[{weight},1.0]}}'
        assert run("simulate", "--inline", spec, "--target", "1", "--rmax", "2000",
                   "--out", str(tmp_path)) == 3
        assert "r_max" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unknown_target_exits_1(self, tmp_path):
        assert run("simulate", "--inline", UNIFORM4, "--target", "9",
                   "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind":"weights","weights":[NaN,0.5,0.5]}',
            '{"kind":"coherent","alpha_re":NaN,"alpha_im":0.0,"q1":1,"n":20}',
            '{"kind":"coherent","alpha_re":0.8,"alpha_im":Infinity,"q1":1,"n":20}',
            '{"kind":"uniform","n":20.9}',
            '{"kind":"coherent","alpha_re":0.8,"q1":1.0,"n":20}',
            '{"kind":"weights","weights":[0.5,"0.5"]}',
            '{"kind":"weights","weights":[true,false]}',
            '{"kind":"coherent","alpha_re":true,"alpha_im":0.0,"q1":1,"n":20}',
            '{"kind":"coherent","alpha_re":"0.8","q1":1,"n":20}',
            '{"kind":"coherent","alpha_re":0.8,"alpha_im":"1","q1":1,"n":20}',
        ],
        ids=["weights-nan", "alpha-nan", "alpha-inf", "n-float", "q1-float", "weights-string",
             "weights-bool", "alpha_re-bool", "alpha_re-string", "alpha_im-string"],
    )
    def test_non_finite_or_fractional_spec_exits_1(self, tmp_path, capsys, command, spec):
        target = [] if command == "compare" else ["--target", "1"]
        assert run(command, "--inline", spec, *target, "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err


def test_dist_and_compare_agree_on_p_k(tmp_path):
    # a complex window: |P(k)|^2 by np.abs(a)**2 differed in 12 of these 21 cells
    spec = '{"kind":"coherent","alpha_re":1.1,"alpha_im":0.9,"q1":1,"n":20}'
    assert run("dist", "--inline", spec, "--out", str(tmp_path)) == 0
    assert run("compare", "--inline", spec, "--out", str(tmp_path)) == 0
    dist = read_csv(tmp_path / "dist.csv", csvio.DISTRIBUTION_HEADER)
    table = read_csv(tmp_path / "comparison.csv", csvio.COMPARISON_HEADER)
    assert [(row["k"], row["p_k"]) for row in dist] == [(row["k"], row["p_k"]) for row in table]


def test_span_of_a_few_ulps_plots_in_bounded_time(tmp_path):
    # the y span of these proportions is a few ulps, so a tick step of the same
    # size no longer moved the tick and the tick loop never ended
    spec = '{"kind":"weights","weights":[0.5000000000000001,0.4999999999999999]}'
    env = dict(os.environ, PYTHONPATH=str(Path(wgrover.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wgrover.cli", "compare", "--inline", spec, "--svg",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("comparison_recip.svg", "comparison_log.svg"):
        assert (tmp_path / name).read_text().endswith("</svg>\n")


@pytest.mark.parametrize("command", ["dist", "compare"])
def test_labels_past_2_53_plot(tmp_path, capsys, command):
    # q1 = 2^62: every label rounds to one x, so a plot would show nothing
    spec = json.dumps({"kind": "coherent", "alpha_re": 0.8, "q1": 2**62, "n": 20})
    assert run(command, "--inline", spec, "--svg", "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2^53" in err and "without --svg the CSV" in err
    assert not (tmp_path / "o").exists()


def test_labels_up_to_2_53_plot(tmp_path):
    # 2^53 is the largest label of a plottable window; past it only the CSV is written
    for q1, code in ((2**53 - 20, 0), (2**53 - 19, 1)):
        spec = json.dumps({"kind": "coherent", "alpha_re": 0.8, "q1": q1, "n": 20})
        assert run("dist", "--inline", spec, "--svg", "--out", str(tmp_path / str(q1))) == code
        assert run("dist", "--inline", spec, "--out", str(tmp_path / "csv")) == 0


@pytest.mark.parametrize(
    "alpha",
    [{"alpha_re": 1e-300}, {"alpha_re": 1e-170}, {"alpha_re": 1e300},
     {"alpha_re": 1.7e308, "alpha_im": 1.7e308}],
    ids=["underflow", "square-underflows", "square-overflows", "abs-overflows"],
)
def test_coherent_alpha_out_of_range_exits_1(tmp_path, capsys, alpha):
    # these exited with "math domain error" or "(34, 'Numerical result out of range')"
    spec = json.dumps({"kind": "coherent", **alpha, "q1": 0, "n": 20})
    assert run("dist", "--inline", spec, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "|alpha_re + i alpha_im|^2" in err and "2.2e-162 to 1.3e154" in err
    assert not (tmp_path / "o").exists()


def test_labels_past_int64_exit_1(tmp_path, capsys):
    spec = json.dumps({"kind": "coherent", "alpha_re": 0.8, "q1": 2**63 - 20, "n": 20})
    assert run("dist", "--inline", spec, "--out", str(tmp_path)) == 1
    assert "must fit in 64 bits" in capsys.readouterr().err


def test_overflowing_classical_steps_exit_1(tmp_path, capsys):
    # 1/|P(3)|^2 overflows a double; the log plot's y range was infinite
    spec = '{"kind":"weights","weights":[0.5,0.5,1e-311]}'
    assert run("compare", "--inline", spec, "--svg", "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1/|P(3)|^2 overflow" in err
    assert not (tmp_path / "o").exists()


class TestOutputDirDefaults:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WGROVER_OUT", str(tmp_path / "envout"))
        assert run("dist", "--inline", UNIFORM4) == 0
        assert (tmp_path / "envout" / "dist.csv").exists()

    def test_cwd_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WGROVER_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run("dist", "--inline", UNIFORM4) == 0
        assert (tmp_path / "out" / "dist.csv").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from Linux's /proc")
@pytest.mark.parametrize(
    "argv,csv_name,rows,max_mb,svg_name",
    [
        # --rmax 10^6 on uniform(4) held ~200 MB of per-step Python objects
        (["simulate", "--inline", UNIFORM4, "--target", "1", "--rmax", str(MAX_RMAX)],
         "trajectory.csv", MAX_RMAX + 1, 120, None),
        # one polyline vertex per step made a 27 MB SVG and a 255 MB peak, and
        # full-length pixel arrays before M4 a 110 MB peak
        (["simulate", "--inline", UNIFORM4, "--target", "1", "--rmax", str(MAX_RMAX), "--svg"],
         "trajectory.csv", MAX_RMAX + 1, 100, "trajectory.svg"),
        # one bar per label made a 107 MB SVG and a 376 MB peak, and
        # full-length label and pixel arrays before the column reduction a
        # 100 MB peak
        (["dist", "--inline", json.dumps({"kind": "uniform", "n": MAX_ENTRIES}), "--svg"],
         "dist.csv", MAX_ENTRIES, 100, "dist.svg"),
        # one comparison row per label; an earlier revision peaked at 566 MB
        (["compare", "--inline", json.dumps({"kind": "uniform", "n": MAX_ENTRIES})],
         "comparison.csv", MAX_ENTRIES, 200, None),
    ],
    ids=["simulate", "simulate-svg", "dist-svg", "compare"],
)
def test_longest_run_memory_is_bounded(tmp_path, argv, csv_name, rows, max_mb, svg_name):
    # the child's own high-water mark: ru_maxrss would carry the forking
    # pytest process's peak across exec
    child = ("import sys\n"
             "from wgrover.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
             "print(code, status.split()[0])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wgrover.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child, *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    code, hwm_kib = proc.stdout.split()[-2:]
    assert code == "0"
    assert int(hwm_kib) / 1024 < max_mb
    assert sum(1 for _ in open(tmp_path / csv_name)) == rows + 1
    if svg_name is not None:
        # a plot holds O(pixels) shapes however long the run
        assert (tmp_path / svg_name).stat().st_size < 100_000
