"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a `criterion N (...): PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`).  Expected values come from
independent oracles: the sin((2r+1) arcsin p) amplitude identity, the
round(pi/(4 theta) - 1/2) peak formula, finite differences, and a
40-digit mpmath evaluation of the truncated coherent amplitudes.
"""

import csv
import filecmp
import functools
import math
import os

import numpy as np
from mpmath import mp

from wgrover import analysis, continuum, grover_core
from wgrover.amplitudes import AmplitudeDistribution, truncated_coherent, uniform
from wgrover.cli import main


def report(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")

        return wrapper

    return deco


def two_label_dist(p: float) -> AmplitudeDistribution:
    amps = np.array([p, math.sqrt(1 - p * p)], dtype=np.complex128)
    return AmplitudeDistribution(labels=range(1, 3), amplitudes=amps)


@report(1, "unstructured N=20 peak")
def test_criterion_1_unstructured_peak():
    dist = uniform(20)
    traj = grover_core.iterate(dist, 1, 20)
    r_star, prob = grover_core.first_peak(traj)
    assert r_star == 3
    assert prob >= 0.999
    oracle = math.sin(7 * math.asin(1 / math.sqrt(20))) ** 2
    assert abs(prob - oracle) <= 1e-3
    predicted = continuum.predicted_peak_step(
        continuum.fit_one_step_solution(dist.amplitude(1))
    )
    assert abs(predicted - 3) <= 1.0


@report(2, "sqrt-N scaling law")
def test_criterion_2_scaling_law():
    for n in (16, 64, 256, 1024, 4096):
        theta = math.asin(1 / math.sqrt(n))
        expected = round(math.pi / (4 * theta) - 0.5)
        traj = grover_core.iterate(uniform(n), 1, expected + 2)
        assert grover_core.first_peak(traj)[0] == expected, f"N={n}"
    ratio = (1 / continuum.delta_tilde(1 / math.sqrt(4096))) / math.sqrt(4096)
    assert abs(ratio - 1.0) <= 0.02


@report(3, "recurrence vs dense oracle, 100 random databases")
def test_criterion_3_recurrence_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    worst_coeff, worst_norm = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amps /= np.linalg.norm(amps)
        dist = AmplitudeDistribution(labels=range(1, n + 1), amplitudes=amps)
        candidates = [k for k in dist.labels if 1e-3 < abs(dist.amplitude(k)) < 0.999]
        k = int(rng.choice(candidates))
        state = np.asarray(dist.amplitudes).copy()
        twod = grover_core.TwoDState(1.0 + 0j, 0.0 + 0j)
        p_k = dist.amplitude(k)
        for _ in range(100):
            state = grover_core.dense_apply_G(state, dist, k)
            twod = grover_core.step(twod, p_k)
            proj = grover_core.project_onto_subspace(state, dist, k)
            worst_coeff = max(worst_coeff, abs(proj.a - twod.a), abs(proj.b - twod.b))
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(state)) - 1.0))
    assert worst_coeff <= 1e-9
    assert worst_norm <= 1e-10


@report(4, "continuum equation and envelope fidelity")
def test_criterion_4_ode_fidelity():
    rng = np.random.default_rng(4)
    p_values = [1 / math.sqrt(20), 0.22076174600131218]
    p_values += list(rng.uniform(0.05, 0.45, size=5))
    h = 1e-4
    for p in p_values:
        sol = continuum.fit_one_step_solution(p)
        t = continuum.period(p)
        for x in np.linspace(h, 3 * t, 150):
            fa = continuum.eval_fa(sol, x)
            fa_p = (continuum.eval_fa(sol, x + h) - continuum.eval_fa(sol, x - h)) / (2 * h)
            fa_pp = (
                continuum.eval_fa(sol, x + h) - 2 * fa + continuum.eval_fa(sol, x - h)
            ) / h**2
            residual = fa_pp + 4 * p * p * fa_p + 4 * p * p * fa
            assert abs(residual) < 1e-6, f"p={p}, x={x}"
        damping = math.exp(-2 * p * p * t)
        for x in np.linspace(0.0, 2 * t, 80):
            assert abs(
                continuum.eval_fa(sol, x + t) - damping * continuum.eval_fa(sol, x)
            ) <= 1e-12


@report(5, "coherent-state example alpha=0.8")
def test_criterion_5_coherent_example(tmp_path):
    code = main([
        "dist", "--inline",
        '{"kind":"coherent","alpha_re":0.8,"alpha_im":0.0,"q1":1,"n":20}',
        "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "dist.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert abs(sum(float(row["p_k"]) for row in rows) - 1.0) <= 1e-9

    mp.dps = 40
    lam = mp.mpf(0.8) ** 2
    norm = sum(mp.e ** -lam * lam**q / mp.factorial(q) for q in range(1, 22)) ** mp.mpf("-0.5")
    oracle_p3 = float(norm * mp.e ** (-lam / 2) * mp.mpf(0.8) ** 3 / mp.sqrt(mp.factorial(3)))
    dist = truncated_coherent(0.8, 1, 20)
    lib_p3 = abs(dist.amplitude(3))
    assert abs(lib_p3 - oracle_p3) / oracle_p3 <= 1e-10

    r_star, _ = grover_core.first_peak(grover_core.iterate(dist, 3, 20))
    predicted = continuum.predicted_peak_step(
        continuum.fit_one_step_solution(dist.amplitude(3))
    )
    assert abs(predicted - r_star) <= 1.0


@report(6, "speedup verdicts over 4x21 targets")
def test_criterion_6_speedup_verdicts():
    failures = {}
    for alpha in (0.8, 1.6, 2.4, 3.2):
        dist = truncated_coherent(alpha, 1, 20)
        assert dist.size == 21
        failures[alpha] = analysis.local_failures(analysis.comparison_table(dist))
    assert failures == {0.8: [1], 1.6: [], 2.4: [], 3.2: []}

    verdict = analysis.global_speedup(analysis.comparison_table(truncated_coherent(0.8, 1, 20)))
    assert verdict.holds is False
    assert verdict.classical_witness == 1


@report(7, "local speedup threshold at 1/sqrt(2)")
def test_criterion_7_threshold_property():
    threshold = 1 / math.sqrt(2)
    for p in np.arange(0.01, 1.0, 0.01):
        p = float(p)
        verdict = 1 not in analysis.local_failures(analysis.comparison_table(two_label_dist(p)))
        assert verdict == (p < threshold), f"p={p}"
        if p < 0.5:
            assert verdict is True


@report(8, "byte-identical figure reproduction")
def test_criterion_8_repro_determinism(tmp_path):
    for figure in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        for run_dir in ("a", "b"):
            assert main(["repro", figure, "--out", str(tmp_path / run_dir)]) == 0
        fig_a, fig_b = tmp_path / "a" / figure, tmp_path / "b" / figure
        names = sorted(os.listdir(fig_a))
        assert names == sorted(os.listdir(fig_b))
        assert names, f"{figure} produced no artifacts"
        match, mismatch, errors = filecmp.cmpfiles(fig_a, fig_b, names, shallow=False)
        assert mismatch == [] and errors == [], f"{figure}: {mismatch} {errors}"
        assert sorted(match) == names
