"""Output checks behind the benchmark's failure count.

Every check is an invariant of the mathematics, never a golden byte string,
so it keeps holding when the program is made faster or its sampling changes:

* the success probability of Grover iteration r on a target of weight p is
  exactly sin^2((2r + 1) asin sqrt(p)), so every trajectory row must match it
  to TOL, row 0 must be (a, b, prob) = (1, 0, p) and every probability must
  lie in [0, 1];
* a filled `discrete_peak` must be the first interior local maximum of that
  closed form (a crest neighbour within TOL counts as a tie);
* the continuum curves must follow the damped-oscillation closed form fitted
  to a_1 = 1 - 4p, b_1 = 2 sqrt(p), wherever they are sampled;
* comparison proportions sum to 1 and ln_classical = -ln p_k;
* every SVG parses as XML.

CSV files are read with the standard library's `csv` module, not with the
program's own readers, so a defect shared by writer and reader still shows.
Each check returns a list of problems; an empty list means the file passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

TOL = 1e-9

TRAJECTORY_HEADER = ["r", "a_re", "a_im", "b_re", "b_im", "success_prob"]
CONTINUUM_HEADER = ["x", "f_a", "f_b"]
DISTRIBUTION_HEADER = ["k", "p_k"]
COMPARISON_HEADER = [
    "k", "p_k", "classical_steps", "grover_scale", "discrete_peak",
    "recip_classical", "recip_grover", "ln_classical", "ln_grover",
]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def coherent_window(alpha_abs: float, q1: int, n: int) -> dict[int, float]:
    """Proportions of a coherent state truncated to photon numbers q1..q1+n.

    Poisson weights lam^k / k! renormalized over the window, in the log domain.
    """
    lam = alpha_abs * alpha_abs
    logs = {k: k * math.log(lam) - math.lgamma(k + 1) for k in range(q1, q1 + n + 1)}
    top = max(logs.values())
    total = math.fsum(math.exp(v - top) for v in logs.values())
    return {k: math.exp(v - top) / total for k, v in logs.items()}


def closed_form_prob(p: float, r: np.ndarray) -> np.ndarray:
    theta = math.asin(math.sqrt(p))
    return np.sin((2 * r + 1) * theta) ** 2


def first_closed_form_peak(p: float) -> int:
    """First interior r with f(r) >= f(r - 1) and f(r) >= f(r + 1)."""
    # The crest of sin^2 lies at r = pi/(4 theta) - 1/2; above |P| = 1/sqrt(2)
    # a step passes the crest, so widen the window until a maximum shows.
    n = int(math.pi / (4.0 * math.asin(math.sqrt(p)))) + 3
    while True:
        f = closed_form_prob(p, np.arange(n))
        interior = (f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:])
        if interior.any():
            return int(np.argmax(interior)) + 1
        n *= 2


def peak_problem(p: float, peak: int) -> str | None:
    """Why `peak` is not the closed form's first interior local maximum, if it is not."""
    want = first_closed_form_peak(p)
    if peak == want:
        return None
    f = closed_form_prob(p, np.array([want, peak], dtype=float))
    if abs(peak - want) == 1 and abs(f[0] - f[1]) <= TOL:
        return None
    return f"discrete_peak {peak} for p={p!r}; the closed form first peaks at r={want}"


def _read(path: Path, header: list[str]) -> tuple[list[list[str]], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{path.name}: header {rows[0] if rows else None!r}, want {header!r}"]
    if len(rows) < 2:
        return [], [f"{path.name}: no data rows"]
    return rows[1:], []


def _floats(rows: list[list[str]], col: int) -> np.ndarray:
    return np.array([float(row[col]) for row in rows])


def check_trajectory(path: Path, p: float, steps: int | None = None) -> list[str]:
    """Rows r = 0, 1, 2, ... (through `steps` when given) of the target with weight p."""
    rows, problems = _read(path, TRAJECTORY_HEADER)
    if problems:
        return problems
    r = np.array([int(row[0]) for row in rows])
    prob = _floats(rows, 5)
    if not np.array_equal(r, np.arange(len(rows) if steps is None else steps + 1)):
        problems.append(f"{path.name}: r column is not 0, 1, 2, ..., {steps or 'n'}")
        return problems
    first = [float(x) for x in rows[0][1:5]]
    if first != [1.0, 0.0, 0.0, 0.0] or not math.isclose(prob[0], p, rel_tol=TOL):
        problems.append(f"{path.name}: row 0 is {rows[0]!r}, want (1, 0, {p!r})")
    if not (np.all(prob >= 0.0) and np.all(prob <= 1.0)):
        problems.append(f"{path.name}: a success probability lies outside [0, 1]")
    dev = float(np.max(np.abs(prob - closed_form_prob(p, r))))
    if not dev <= TOL:
        problems.append(f"{path.name}: success_prob deviates {dev:.3g} from sin^2((2r+1)theta)")
    return problems


def check_continuum(path: Path, p: float) -> list[str]:
    rows, problems = _read(path, CONTINUUM_HEADER)
    if problems:
        return problems
    x, fa, fb = (_floats(rows, c) for c in range(3))
    if x[0] != 0.0 or not np.all(np.diff(x) > 0):
        problems.append(f"{path.name}: x does not start at 0 and increase")
    # f_a = e^{gamma x}(c1 cos(beta x) + c2 sin(beta x)), fitted to a_1 and b_1
    mag = math.sqrt(p)
    gamma, beta = -2.0 * p, 2.0 * math.sqrt(p - p * p)
    c1 = 1.0 - 4.0 * p
    c2 = (-4.0 * c1 * p - 4.0 * p + 2.0 * p * c1) / beta
    decay, cos, sin = np.exp(gamma * x), np.cos(beta * x), np.sin(beta * x)
    want_fa = decay * (c1 * cos + c2 * sin)
    want_fb = -decay * ((beta * c2 - gamma * c1) * cos - (beta * c1 + gamma * c2) * sin) / (2 * mag)
    dev = float(max(np.max(np.abs(fa - want_fa)), np.max(np.abs(fb - want_fb))))
    if not dev <= TOL:
        problems.append(f"{path.name}: f_a/f_b deviate {dev:.3g} from the closed form")
    if not (math.isclose(fa[0], c1, abs_tol=TOL) and math.isclose(fb[0], 2 * mag, abs_tol=TOL)):
        problems.append(f"{path.name}: starts at ({fa[0]:.17g}, {fb[0]:.17g}), want (a_1, b_1)")
    return problems


def check_distribution(path: Path, expected: dict[int, float]) -> list[str]:
    rows, problems = _read(path, DISTRIBUTION_HEADER)
    if problems:
        return problems
    got = {int(row[0]): float(row[1]) for row in rows}
    if set(got) != set(expected):
        return [f"{path.name}: labels {min(got)}..{max(got)} differ from the spec"]
    if not math.isclose(math.fsum(got.values()), 1.0, abs_tol=TOL):
        problems.append(f"{path.name}: p_k sum to {math.fsum(got.values())!r}")
    worst = max(abs(got[k] - expected[k]) for k in expected)
    if not worst <= TOL:
        problems.append(f"{path.name}: p_k deviate {worst:.3g} from the spec's weights")
    return problems


def check_comparison(path: Path, expected: dict[int, float]) -> list[str]:
    rows, problems = _read(path, COMPARISON_HEADER)
    if problems:
        return problems
    labels = [int(row[0]) for row in rows]
    p = _floats(rows, 1)
    if labels != sorted(expected):
        return [f"{path.name}: labels differ from the spec"]
    if not math.isclose(math.fsum(p), 1.0, abs_tol=TOL):
        problems.append(f"{path.name}: p_k sum to {math.fsum(p)!r}")
    worst = float(np.max(np.abs(p - np.array([expected[k] for k in labels]))))
    if not worst <= TOL:
        problems.append(f"{path.name}: p_k deviate {worst:.3g} from the spec's weights")
    ln_classical = _floats(rows, 7)
    worst = float(np.max(np.abs(ln_classical + np.log(p))))
    if not worst <= 1e-12:
        problems.append(f"{path.name}: ln_classical differs from -ln p_k by {worst:.3g}")
    for row, p_k in zip(rows, p):
        if row[4] != "":
            why = peak_problem(float(p_k), int(row[4]))
            if why:
                problems.append(f"{path.name}: k={row[0]}: {why}")
    return problems


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag!r}, not svg"]
    return []
