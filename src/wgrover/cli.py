"""Command-line front end.

    wgrover dist      (--spec FILE | --inline JSON) [--out DIR] [--svg]
    wgrover simulate  (--spec FILE | --inline JSON) --target K [--rmax N] [--out DIR] [--svg]
    wgrover continuum (--spec FILE | --inline JSON) --target K [--out DIR] [--svg]
    wgrover compare   (--spec FILE | --inline JSON) [--out DIR] [--svg]
    wgrover repro     fig2|fig3|fig4|fig5|fig6|all [--out DIR]

Each command accepts only the options it reads.  CSV files are always
written; SVG plots on request (always for repro).  `repro all` writes every
figure in one process, each under DIR/figN as `repro figN` would.  Exit
codes: 0 success, 1 validation error (an unread option included), 2 I/O
error, 3 numeric error (for example no success-probability peak within
--rmax).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import analysis, continuum, csvio, grover_core, svg
from .amplitudes import AmplitudeDistribution, load_spec
from .errors import ConsistencyError, DomainError, NoPeakError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# Upper bound on --rmax; above the first peak even at |P|^2 = 1e-12 (r ~ 785 000).
MAX_RMAX = 10**6

# Figure parameters fixed by the reproduction captions: the coherent window
# (photon numbers 1..21, alpha_re set per figure), its alphas, and the steps
# of each trajectory figure.
FIGURE_WINDOW = {"kind": "coherent", "alpha_im": 0.0, "q1": 1, "n": 20}
FIGURE_ALPHAS = (0.8, 1.6, 2.4, 3.2)
FIG_TRAJECTORY_STEPS = 40


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; keep 2 reserved for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"wgrover: validation error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wgrover", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default $WGROVER_OUT or ./out)")

    def spec_command(name, run, help, *, target=False, rmax=False):
        p = sub.add_parser(name, help=help)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", type=Path, help="JSON distribution spec file")
        group.add_argument("--inline", help="JSON distribution spec string")
        if target:
            p.add_argument("--target", type=int, required=True, help="target basis label k")
        if rmax:
            p.add_argument("--rmax", type=int, default=200, help="iteration budget (default 200)")
        add_out(p)
        p.add_argument("--svg", action="store_true", help="also write SVG plots")
        p.set_defaults(run=run)

    spec_command("dist", cmd_dist, "emit the probability distribution")
    spec_command("simulate", cmd_simulate, "run the discrete recurrence", target=True, rmax=True)
    spec_command("continuum", cmd_continuum, "evaluate the damped-oscillation solution",
                 target=True)
    spec_command("compare", cmd_compare, "classical vs Grover step comparison")
    repro = sub.add_parser("repro", help="reproduce a figure's artifacts")
    repro.add_argument("figure", choices=[*FIGURES, "all"])
    add_out(repro)
    repro.set_defaults(run=cmd_repro)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for main; argparse keeps no state between parses."""
    return build_parser()


def _load_dist(args) -> AmplitudeDistribution:
    """The distribution of the --spec file or --inline JSON string."""
    source, text = "--inline", args.inline
    if args.spec is not None:
        source = str(args.spec)
        try:
            text = args.spec.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"{source}: not UTF-8 text: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{source}: invalid JSON: {exc}") from None
    except ValueError:  # an integer past the interpreter's int-string digit limit
        raise DomainError(f"{source}: invalid JSON: an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise DomainError(f"{source}: JSON nested too deeply") from None
    return load_spec(obj)


def _plottable(dist: AmplitudeDistribution, svg_requested: bool) -> AmplitudeDistribution:
    """dist, unless its labels are to be plotted past 2^53, where doubles merge them."""
    if svg_requested and dist.labels[-1] > 2**53:
        raise DomainError(f"--svg needs labels of at most 2^53, got {dist.labels[-1]}; "
                          "without --svg the CSV holds every label exactly")
    return dist


def _ensure_out(args, *subdirs: str) -> Path:
    path = (args.out or Path(os.environ.get("WGROVER_OUT", "out"))).joinpath(*subdirs)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_dist(args) -> int:
    dist = _plottable(_load_dist(args), args.svg)
    out = _ensure_out(args)
    title = "database distribution" if args.svg else None
    _distribution_artifacts(out, "dist", dist, title)
    print(f"wrote {out / 'dist.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # checked before the spec is loaded, so a bad budget allocates nothing
    if args.rmax < 1:
        raise DomainError(f"--rmax must be >= 1, got {args.rmax}")
    if args.rmax > MAX_RMAX:
        raise DomainError(f"--rmax must be <= {MAX_RMAX}, got {args.rmax}")
    traj = grover_core.iterate(_load_dist(args), args.target, args.rmax)
    # a run without a peak exits 3 before anything is written
    r_star, prob = grover_core.first_peak(traj)
    out = _ensure_out(args)
    title = f"recurrence, target k={args.target}" if args.svg else None
    _trajectory_artifacts(out, traj, title)
    print(f"r*={r_star} prob={prob:.6g}")
    return EXIT_OK


def cmd_continuum(args) -> int:
    # fit and size the grid first: a run that exits 1 writes nothing
    sol = continuum.fit_one_step_solution(_load_dist(args).amplitude(args.target))
    xs = csvio.continuum_grid(sol)
    out = _ensure_out(args)
    title = f"continuum approximation, target k={args.target}" if args.svg else None
    _continuum_artifacts(out, sol, xs, title)
    x_star = continuum.predicted_peak_step(sol)
    print(f"x*={x_star:.6g} T={continuum.period(sol.p_k):.6g}")
    return EXIT_OK


def cmd_compare(args) -> int:
    dist = _plottable(_load_dist(args), args.svg)
    table = analysis.comparison_table(dist)
    out = _ensure_out(args)
    plots = {"recip": "reciprocal step numbers", "log": "log step numbers"} if args.svg else {}
    _comparison_artifacts(out, "comparison", table, plots)
    verdict = analysis.global_speedup(table)
    failures = analysis.local_failures(table)
    print(
        f"global speedup: {verdict.holds} "
        f"(max 1/dt = {verdict.max_grover_scale:.6g} at k={verdict.grover_witness}, "
        f"min 1/p = {verdict.min_classical_steps:.6g} at k={verdict.classical_witness})"
    )
    if failures:
        print(f"local condition fails for k = {failures}")
    else:
        print("local condition holds for every k")
    return EXIT_OK


def _distribution_artifacts(out: Path, stem: str, dist: AmplitudeDistribution,
                            title: str | None) -> None:
    """STEM.csv of the proportions, plus a STEM.svg bar plot when title is given."""
    props = dist.proportions()
    csvio.write_distribution(out / f"{stem}.csv", dist.labels, props)
    if title is not None:
        svg.bar_plot(out / f"{stem}.svg", dist.labels, props, title, "label k", "p_k")


def _continuum_artifacts(out: Path, sol, xs, title: str | None) -> None:
    """continuum.csv on the grid xs, plus continuum.svg when title is given."""
    fa, fb = csvio.write_continuum(out / "continuum.csv", sol, xs)
    if title is not None:
        svg.line_plot(out / "continuum.svg", [("f_a", xs, fa), ("f_b", xs, fb)], title, "x", "f")


def _trajectory_artifacts(out: Path, traj: grover_core.Trajectory, title: str | None) -> None:
    """trajectory.csv, plus trajectory.svg of the real parts when title is given."""
    csvio.write_trajectory(out / "trajectory.csv", traj)
    if title is not None:
        rs = range(len(traj.prob))
        series = [("a_r", rs, traj.a.real), ("b_r", rs, traj.b.real)]
        svg.line_plot(out / "trajectory.svg", series, title, "iteration r", "coefficient")


def _comparison_artifacts(out: Path, stem: str, table: analysis.ComparisonTable,
                          plots: dict[str, str]) -> None:
    """STEM.csv of the table, plus STEM_KIND.svg for each KIND: title in plots.

    KIND "recip" plots the reciprocal step numbers and "log" their logs.  The
    labels lie in [0, 2^53] (_plottable), so each float label is exact.
    """
    csvio.write_comparison(out / f"{stem}.csv", table)
    for kind, title in plots.items():
        if kind == "log":
            series = [("classical", table.k, table.ln_classical),
                      ("grover", table.k, table.ln_grover)]
        else:
            series = [("classical p_k", table.k, table.recip_classical),
                      ("grover dt(k)", table.k, table.recip_grover)]
        svg.line_plot(out / f"{stem}_{kind}.svg", series, title, "label k",
                      "ln(steps)" if kind == "log" else "1/steps")


def _target_figure(spec: dict, k: int, title: str):
    """A figure of target k's trajectory and continuum curves."""
    def write(out: Path) -> None:
        dist = load_spec(spec)
        traj = grover_core.iterate(dist, k, FIG_TRAJECTORY_STEPS)
        _trajectory_artifacts(out, traj, f"{title}: recurrence")
        sol = continuum.fit_one_step_solution(dist.amplitude(k))
        _continuum_artifacts(out, sol, csvio.continuum_grid(sol), f"{title}: continuum")
    return write


def _window_figure(caption: str, write_panel):
    """A figure of write_panel(out, "alpha_A", dist, title) for the window at each alpha A."""
    def write(out: Path) -> None:
        for alpha in FIGURE_ALPHAS:
            dist = load_spec({**FIGURE_WINDOW, "alpha_re": alpha})
            write_panel(out, f"alpha_{alpha}", dist, f"{caption}, alpha={alpha}")
    return write


# repro's figures: each writes its artifacts into the directory it is given.
FIGURES = {
    "fig2": _target_figure({"kind": "uniform", "n": 20}, 1, "uniform N=20"),
    "fig3": _window_figure("coherent distribution", _distribution_artifacts),
    "fig4": _target_figure({**FIGURE_WINDOW, "alpha_re": 0.8}, 3, "coherent alpha=0.8, k=3"),
    "fig5": _window_figure("reciprocal steps", lambda out, stem, dist, title: (
        _comparison_artifacts(out, stem, analysis.comparison_table(dist), {"recip": title}))),
    "fig6": _window_figure("log steps", lambda out, stem, dist, title: (
        _comparison_artifacts(out, stem, analysis.comparison_table(dist), {"log": title}))),
}


def cmd_repro(args) -> int:
    for figure in FIGURES if args.figure == "all" else [args.figure]:
        out = _ensure_out(args, figure)
        FIGURES[figure](out)
        print(f"wrote {figure} artifacts under {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"wgrover: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"wgrover: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NoPeakError, ConsistencyError) as exc:
        print(f"wgrover: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
