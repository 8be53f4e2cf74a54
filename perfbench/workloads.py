"""The benchmark's four workloads: seeded inputs, one op each, its output check.

Each workload generates its inputs from the seed once, before timing; wgrover
only ever receives those inputs. `steps(out)` returns the op as a list of
(timing, call) pairs made in order -- several wgrover commands, or the
phases of one computation -- where timing says how speed.py counts the
call's time; the last call's return value is the op's result. An op writes
its artifacts under `out`. Per-op cost is kept nearly independent of the
seed, so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from wgrover import cli, grover_core
from wgrover.amplitudes import AmplitudeDistribution

import checks
from speed import RAW, SCALED


class OpFailed(Exception):
    """A wgrover command that exited non-zero."""


def run_cli(*argv: str) -> None:
    """`wgrover ARGV` in process, its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"wgrover {' '.join(argv)} exited {code}")


def _missing(out: Path, names: list[str]) -> list[str]:
    return [f"{name}: not written" for name in names if not (out / name).is_file()]


class Figures:
    """`repro fig2` .. `fig6` in sequence: the paper's figures, end to end.

    Inputs are fixed by the paper, so the seed is unused. Deep coherent tails
    in fig5/fig6 make `scan_first_peak` the dominant cost today.
    """

    ALPHAS = (0.8, 1.6, 2.4, 3.2)
    FIGURE_WINDOW = (1, 20)  # q1, N
    FIG2_N, FIG4_ALPHA, FIG4_TARGET = 20, 0.8, 3

    def __init__(self, seed: int, work: Path) -> None:
        q1, n = self.FIGURE_WINDOW
        self.windows = {a: checks.coherent_window(a, q1, n) for a in self.ALPHAS}

    def steps(self, out: Path) -> list:
        return [(SCALED, partial(run_cli, "repro", fig, "--out", str(out)))
                for fig in ("fig2", "fig3", "fig4", "fig5", "fig6")]

    def check(self, out: Path, result) -> list[str]:
        target_p = {"fig2": 1.0 / self.FIG2_N,
                    "fig4": self.windows[self.FIG4_ALPHA][self.FIG4_TARGET]}
        expected = [f"{fig}/{name}" for fig in target_p
                    for name in ("trajectory.csv", "continuum.csv", "trajectory.svg", "continuum.svg")]
        for alpha in self.ALPHAS:
            expected += [f"fig3/alpha_{alpha}.csv", f"fig3/alpha_{alpha}.svg",
                         f"fig5/alpha_{alpha}.csv", f"fig5/alpha_{alpha}_recip.svg",
                         f"fig6/alpha_{alpha}.csv", f"fig6/alpha_{alpha}_log.svg"]
        problems = _missing(out, expected)
        if problems:
            return problems
        for fig, p in target_p.items():
            problems += checks.check_trajectory(out / fig / "trajectory.csv", p)
            problems += checks.check_continuum(out / fig / "continuum.csv", p)
        for alpha, window in self.windows.items():
            problems += checks.check_distribution(out / "fig3" / f"alpha_{alpha}.csv", window)
            for fig in ("fig5", "fig6"):
                problems += checks.check_comparison(out / fig / f"alpha_{alpha}.csv", window)
        return problems + _check_svgs(out)


class CompareWeights:
    """`compare --spec` on a seeded weight table of N = 2000 distinct weights.

    Many short peak scans (about 124k steps over 2000 labels), so the
    per-label overhead of `analysis` matters and the output is small. The
    weights are a stratified Dirichlet(1) draw: normalized Exp(1) quantiles,
    one uniform draw inside the middle half of each of N equal strata, in
    seeded order. That keeps the total scan length within about 1% across
    seeds, which an unstratified draw does not (its smallest weight alone
    moves it by several percent). No two labels share an amplitude, so a cache
    keyed on p_k cannot shorten the work.
    """

    N = 2000

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        u = (rng.permutation(self.N) + 0.25 + 0.5 * rng.random(self.N)) / self.N
        e = -np.log1p(-u)
        weights = (e / e.sum()).tolist()
        if len(set(weights)) != self.N:
            raise ValueError(f"seed {seed}: weight table has repeated values")
        self.spec = work / "weights.json"
        self.spec.write_text(json.dumps({"kind": "weights", "weights": weights}))
        self.expected = {k: w for k, w in enumerate(weights, start=1)}

    def steps(self, out: Path) -> list:
        return [(SCALED, partial(run_cli, "compare", "--spec", str(self.spec), "--out", str(out)))]

    def check(self, out: Path, result) -> list[str]:
        problems = _missing(out, ["comparison.csv"])
        return problems or checks.check_comparison(out / "comparison.csv", self.expected)


class SimulateLong:
    """`simulate --svg --rmax 20000` on a seeded small complex-phase table.

    The write-heavy use of the recurrence: `iterate`, the trajectory CSV and
    its SVG. No `analysis`, no scan. The table is a coherent window with a
    seeded complex alpha (|alpha| in [0.8, 2.4]); the target is a seeded label
    with weight in [1e-4, 0.5], so the first peak lies well inside rmax.
    """

    RMAX = 20_000

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        mag, phase = rng.uniform(0.8, 2.4), rng.uniform(0.0, 2.0 * math.pi)
        q1, n = int(rng.integers(0, 3)), int(rng.integers(8, 17))
        window = checks.coherent_window(mag, q1, n)
        targets = [k for k, p in window.items() if 1e-4 <= p <= 0.5]
        self.target = targets[int(rng.integers(len(targets)))]
        self.p = window[self.target]
        self.spec = json.dumps({"kind": "coherent", "alpha_re": mag * math.cos(phase),
                                "alpha_im": mag * math.sin(phase), "q1": q1, "n": n})

    def steps(self, out: Path) -> list:
        return [(SCALED, partial(run_cli, "simulate", "--inline", self.spec,
                                 "--target", str(self.target), "--rmax", str(self.RMAX),
                                 "--svg", "--out", str(out)))]

    def check(self, out: Path, result) -> list[str]:
        problems = _missing(out, ["trajectory.csv", "trajectory.svg"])
        if problems:
            return problems
        problems = checks.check_trajectory(out / "trajectory.csv", self.p, self.RMAX)
        return problems + _check_svgs(out)


class OracleXcheck:
    """The dense oracle against the recurrence on a random complex database.

    N = 10^6 seeded complex amplitudes and a seeded target; 30 matrix-free
    applications of G, projection back onto span{D, e_k}, and `iterate` for the
    same 30 steps. The only workload where building the distribution and the
    bandwidth-bound dense kernel dominate. It writes nothing.
    """

    N = 1_000_000
    STEPS = 30

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        self.amps = amps / np.linalg.norm(amps)
        self.target = int(rng.integers(1, self.N + 1))

    def steps(self, out: Path) -> list:
        run = {}

        def build():
            run["dist"] = AmplitudeDistribution(labels=range(1, self.N + 1), amplitudes=self.amps)
            run["state"] = run["dist"].amplitudes

        def evolve(steps: int):
            for _ in range(steps):
                run["state"] = grover_core.dense_apply_G(run["state"], run["dist"], self.target)

        def compare() -> tuple[complex, complex, complex, complex]:
            dense = grover_core.project_onto_subspace(run["state"], run["dist"], self.target)
            rec = grover_core.iterate(run["dist"], self.target, self.STEPS).points[-1].state
            return dense.a, dense.b, rec.a, rec.b

        # Building the labels, and the label index that the first dense step
        # builds on first lookup, are interpreter work; later steps stream vectors.
        return [(SCALED, build), (SCALED, partial(evolve, 1)),
                (RAW, partial(evolve, self.STEPS - 1)), (SCALED, compare)]

    def check(self, out: Path, result) -> list[str]:
        a_dense, b_dense, a_rec, b_rec = result
        problems = []
        gap = max(abs(a_dense - a_rec), abs(b_dense - b_rec))
        if not gap <= checks.TOL:
            problems.append(f"dense oracle and recurrence differ by {gap:.3g}")
        p_k = complex(self.amps[self.target - 1])
        prob = abs(a_rec * p_k + b_rec) ** 2
        want = float(checks.closed_form_prob(abs(p_k) ** 2, np.array(self.STEPS)))
        if not abs(prob - want) <= checks.TOL:
            problems.append(f"recurrence probability {prob!r} vs closed form {want!r}")
        return problems


def _check_svgs(out: Path) -> list[str]:
    return [problem for path in sorted(out.rglob("*.svg")) for problem in checks.check_svg(path)]


WORKLOADS = {
    "figures": Figures,
    "compare_weights": CompareWeights,
    "simulate_long": SimulateLong,
    "oracle_xcheck": OracleXcheck,
}
