"""Golden hashes: every reproduction artifact must stay byte-identical.

`test_criterion_8` only compares two fresh runs with each other, so a change
that alters every run the same way would slip past it. Here the sha256 of
each `repro fig2..fig6` artifact (all written by one `repro all`), of the
files and standard output of `compare --svg` on two fixed weight tables, of
the files of `dist --svg` on the heavy table, and of `simulate --svg` (5001
rows with imaginary parts) and `continuum --svg` on a complex-alpha coherent
window, is checked against the manifest `golden_sha256.json`.

A regenerated manifest pins whatever the code wrote, so the same artifacts
also go through the benchmark's math checks (`perfbench/checks.py`, loaded by
path): every CSV against the closed form or the spec's weights, taken from
independent sources, and every SVG as XML.  One `produce` run serves both.

An intended output change must be named in CHANGES.md; regenerate the
manifest with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from functools import partial
from pathlib import Path

import pytest

from wgrover import cli
from wgrover.cli import main

MANIFEST = Path(__file__).with_name("golden_sha256.json")
CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
TABLE_SIZE = 2000
TABLE_PRIME = 2003


def fixed_table() -> list[float]:
    """TABLE_SIZE distinct weights (i * 7919 mod 2003) + 1, normalized.

    Integer numerators and one float division each, so the table is the same
    on every platform; the smallest weight peaks near r = 1112.
    """
    nums = [(i * 7919) % TABLE_PRIME + 1 for i in range(TABLE_SIZE)]
    total = sum(nums)
    return [n / total for n in nums]


# |P| up to 0.9999: the aliased branch, whose first peak lies near r = 111.
HEAVY_TABLE = [0.9998, 0.0001, 0.00005, 0.00005]

# alpha = 1.2 e^{0.7i} (written out, so no platform's libm enters the spec) on
# photon numbers 0..12; P(6) = -0.0266 - 0.0472i, |P|^2 = 2.9e-3, so both
# coefficients carry imaginary parts.
COMPLEX_SPEC = json.dumps({"kind": "coherent", "alpha_re": 0.9178106247413862,
                           "alpha_im": 0.7730612246852292, "q1": 0, "n": 12})
COMPLEX_TARGET = "6"


def run_pinned(out: Path, name: str, *argv: str) -> None:
    """`wgrover ARGV --svg --out out/name`, its standard output kept as stdout.txt."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--svg", "--out", str(out / name)]) == 0
    (out / name / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")


def produce(out: Path) -> dict[str, str]:
    """Run every pinned command under `out`; map relative path to sha256."""
    assert main(["repro", "all", "--out", str(out)]) == 0
    for name, weights in (("compare", fixed_table()), ("compare_heavy", HEAVY_TABLE)):
        spec = json.dumps({"kind": "weights", "weights": weights})
        run_pinned(out, name, "compare", "--inline", spec)
    # dist prints its output path, so only its files are pinned
    heavy = json.dumps({"kind": "weights", "weights": HEAVY_TABLE})
    assert main(["dist", "--inline", heavy, "--svg", "--out", str(out / "dist_heavy")]) == 0
    run_pinned(out, "simulate_complex", "simulate", "--inline", COMPLEX_SPEC,
               "--target", COMPLEX_TARGET, "--rmax", "5000")
    run_pinned(out, "continuum_complex", "continuum", "--inline", COMPLEX_SPEC,
               "--target", COMPLEX_TARGET)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def truth_checks(checks) -> dict:
    """Each CSV's math check, by path under `produce`'s directory.

    The target weights come from the paper's parameters (uniform N = 20,
    coherent windows q1 = 1, N = 20), the Poisson weights of
    `checks.coherent_window` and the weight tables of the specs, never from
    wgrover.
    """
    windows = {a: checks.coherent_window(a, 1, 20) for a in (0.8, 1.6, 2.4, 3.2)}
    spec = json.loads(COMPLEX_SPEC)
    complex_p = checks.coherent_window(abs(complex(spec["alpha_re"], spec["alpha_im"])),
                                       spec["q1"], spec["n"])[int(COMPLEX_TARGET)]
    jobs = {
        "simulate_complex/trajectory.csv": partial(checks.check_trajectory, p=complex_p,
                                                   steps=5000),
        "continuum_complex/continuum.csv": partial(checks.check_continuum, p=complex_p),
        "dist_heavy/dist.csv": partial(checks.check_distribution,
                                       expected=dict(enumerate(HEAVY_TABLE, start=1))),
    }
    for name, weights in (("compare", fixed_table()), ("compare_heavy", HEAVY_TABLE)):
        jobs[f"{name}/comparison.csv"] = partial(checks.check_comparison,
                                                 expected=dict(enumerate(weights, start=1)))
    for fig, p in (("fig2", 1 / 20), ("fig4", windows[0.8][3])):
        jobs[f"{fig}/trajectory.csv"] = partial(checks.check_trajectory, p=p, steps=40)
        jobs[f"{fig}/continuum.csv"] = partial(checks.check_continuum, p=p)
    for alpha, window in windows.items():
        jobs[f"fig3/alpha_{alpha}.csv"] = partial(checks.check_distribution, expected=window)
        for fig in ("fig5", "fig6"):
            jobs[f"{fig}/alpha_{alpha}.csv"] = partial(checks.check_comparison, expected=window)
    return jobs


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The directory `produce` wrote, and its hashes: one run for every test here."""
    out = tmp_path_factory.mktemp("golden")
    return out, produce(out)


def test_every_figure_is_pinned():
    assert list(FIGURES) == list(cli.FIGURES)


def test_artifacts_match_golden_hashes(artifacts):
    _, got = artifacts
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert changed == [], f"artifacts differ from the golden manifest: {changed}"


def test_artifacts_hold_the_math(artifacts):
    out, hashes = artifacts
    checks = load_checks()
    jobs = truth_checks(checks)
    svgs = [name for name in hashes if name.endswith(".svg")]
    # standard output is pinned by its hash alone
    assert sorted([*jobs, *svgs]) == sorted(n for n in hashes if not n.endswith("stdout.txt"))
    problems = [why for name, check in jobs.items() for why in check(out / name)]
    problems += [why for name in svgs for why in checks.check_svg(out / name)]
    assert problems == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = produce(Path(tmp))
    MANIFEST.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}", file=sys.stderr)
