"""Golden hashes: every reproduction artifact must stay byte-identical.

`test_criterion_8` only compares two fresh runs with each other, so a change
that alters every run the same way would slip past it. Here the sha256 of
each `repro fig2..fig6` artifact (all written by one `repro all`), of the
files and standard output of `compare --svg` on two fixed weight tables, of
the files of `dist --svg` on the heavy table, and of `simulate --svg` (5001
rows with imaginary parts) and `continuum --svg` on a complex-alpha coherent
window, is checked against the manifest `golden_sha256.json`.

An intended output change must be named in CHANGES.md; regenerate the
manifest with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wgrover import cli
from wgrover.cli import main

MANIFEST = Path(__file__).with_name("golden_sha256.json")
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


def test_every_figure_is_pinned():
    assert list(FIGURES) == list(cli.FIGURES)


def test_artifacts_match_golden_hashes(tmp_path):
    got = produce(tmp_path)
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert changed == [], f"artifacts differ from the golden manifest: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = produce(Path(tmp))
    MANIFEST.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}", file=sys.stderr)
