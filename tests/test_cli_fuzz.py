"""Fuzzed command lines: every input ends in a clean exit, never a traceback.

Hypothesis draws a command, the options it reads, sometimes one it does not
read, and a JSON spec whose every field may be any JSON value: huge or
negative integers, floats, NaN, booleans, strings, lists or null.  Each run
must exit 0 with nothing on stderr, or exit 1, 2 or 3 with a last stderr
line that starts with `wgrover:`.

Every run is kept small: n is at most 64 or above MAX_ENTRIES (refused
before anything is allocated), --rmax at most 500, and the continuum grid
is capped at CONTINUUM_ROWS_CAP rows in place of MAX_CONTINUUM_ROWS.

    python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=ci

`--hypothesis-show-statistics` lists how often each command exited with
each code.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from wgrover import csvio
from wgrover.amplitudes import MAX_ENTRIES
from wgrover.cli import MAX_RMAX, main

CONTINUUM_ROWS_CAP = 20_000
FIGURES = ["fig2", "fig3", "fig4", "fig5", "fig6"]
# the options besides --spec/--inline and --out that each command reads
READS = {"dist": ["--svg"], "compare": ["--svg"], "continuum": ["--target", "--svg"],
         "simulate": ["--target", "--rmax", "--svg"], "repro": []}

# integers whose float loses the units digit, past int64, or past the caps
HUGE = st.sampled_from([2**53 + 1, 2**62, 2**63, -(2**63), 10**400, MAX_ENTRIES + 1])
INTS = st.integers() | HUGE
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def field(valid):
    """Mostly a valid value, else any JSON value."""
    return st.one_of(valid, valid, valid, JSON_VALUES)


# n of at most 64, or past MAX_ENTRIES so it is refused before anything is built
SIZES = field(st.integers(-2, 64)) | st.integers(min_value=MAX_ENTRIES + 1)
REALS = field(st.floats(-4.0, 4.0))
WEIGHTS = field(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(
    lambda ws: [w / sum(ws) for w in ws] if sum(ws) > 0 else ws))
SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("uniform"), "n": SIZES}),
    st.fixed_dictionaries({"kind": st.just("coherent"), "alpha_re": REALS,
                           "q1": field(st.integers(-2, 40)) | HUGE, "n": SIZES},
                          optional={"alpha_im": REALS}),
    st.fixed_dictionaries({"kind": st.just("weights"), "weights": WEIGHTS}),
    st.fixed_dictionaries({"kind": JSON_VALUES}, optional={
        "n": SIZES, "q1": JSON_VALUES, "alpha_re": JSON_VALUES, "weights": JSON_VALUES}),
    JSON_VALUES,
)
OPTION_VALUES = {
    "--target": st.one_of(st.integers(-2, 66), st.integers(-2, 66), INTS, st.text(max_size=3)),
    "--rmax": st.one_of(st.integers(1, 500), st.integers(1, 500), st.integers(max_value=0),
                        st.sampled_from([MAX_RMAX + 1, 10**30])),
}
# True about one time in five
RARELY = st.sampled_from([False, False, False, False, True])


@st.composite
def command_lines(draw, out: Path):
    """argv for main(), with out as the place for files the run may write."""
    command = draw(st.sampled_from(sorted(READS)))
    if command == "repro":
        argv = ["repro", draw(st.sampled_from(FIGURES))]
    else:
        spec_text = json.dumps(draw(SPECS))
        source = draw(st.sampled_from(["inline", "file", "inline", "missing file"]))
        if source == "inline":
            argv = [command, "--inline", spec_text]
        else:
            path = out / "spec.json"
            if source == "file":
                path.write_text(spec_text, encoding="utf-8")
            argv = [command, "--spec", str(path)]
        for option in READS[command]:
            if option == "--svg":
                argv += ["--svg"] if draw(st.booleans()) else []
            elif option == "--target" or draw(st.booleans()):
                argv += [option, str(draw(OPTION_VALUES[option]))]
    unread = [o for o in ("--target", "--rmax", "--svg") if o not in READS[command]]
    if unread and draw(RARELY):
        option = draw(st.sampled_from(unread))
        argv += [option] if option == "--svg" else [option, "1"]
    # a regular file where the output directory should go is an I/O error
    blocked = draw(RARELY)
    if blocked:
        (out / "file").write_text("not a directory")
    argv += ["--out", str(out / ("file/sub" if blocked else "o"))]
    return argv


@settings(deadline=None)
@given(st.data())
def test_every_command_line_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(command_lines(Path(tmp)), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(csvio, "MAX_CONTINUUM_ROWS", CONTINUUM_ROWS_CAP), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    err = stderr.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.endswith("\n") and err.splitlines()[-1].startswith("wgrover:")
