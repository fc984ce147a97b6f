"""Hostile flag values against the CLI grammar, one hypothesis test per subcommand.

Every value is drawn from non-finite and signed-zero floats, subnormals, the
top of the float range, integers beyond it and floats given to integer
flags, mixed with ordinary values so that some lines get past the checks.
``cli.main`` runs in-process; it must return 0, 2, 3, 4 or 5 and raise
nothing, except argparse's own refusal of a malformed value (``SystemExit(2)``
after its usage text).  A refusal of ``main`` is one stderr line, and a
successful command prints only finite numbers.  Work stays small: at most 5
sweep steps, at most 2000 Monte-Carlo samples and the default time samples.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from holodfs import cli
from holodfs.holonomy import GATE_PRESETS

HOSTILE = ["nan", "-nan", "inf", "-inf", "-0", "-0.0", "5e-324", "-5e-324", "2.2e-308",
           "1e308", "-1e308", "1.7976931348623157e308", str(2**64), str(10**400),
           "-" + str(10**400), "2.0", "1e3", "0.5"]

hostile = st.one_of(st.sampled_from(HOSTILE),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr))
angles = st.floats(0.0, math.pi)
scales = st.floats(1e-3, 1e3).map(repr)


def _line(draw, base, flags):
    # A line that ``base`` draws, then up to two of ``flags`` set (again, so
    # the last value wins) to hostile values.
    argv = list(draw(base))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
        argv += [flag, draw(hostile)]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a malformed value
            lines = err.getvalue().splitlines()
            assert exc.code == 2 and lines[0].startswith("usage: holodfs"), argv
            assert lines[-1].startswith(f"holodfs {argv[0]}: error: "), argv
            assert all(line.startswith(" ") for line in lines[1:-1]), argv
            return "argparse refusal"
    assert code in (0, 2, 3, 4, 5), argv
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    if code == 0:
        text = out.getvalue()
        if argv[0] == "sweep":
            numbers = [float(x) for line in text.splitlines()[1:] for x in line.split(",")]
        else:
            numbers = []
            json.loads(text, parse_float=lambda x: numbers.append(float(x)) or 0.0,
                       parse_constant=lambda x: numbers.append(math.nan))
        assert all(math.isfinite(x) for x in numbers), argv
    return f"exit {code}"


@st.composite
def _target_1q(draw):
    if draw(st.booleans()):
        argv = ["--gate", draw(st.sampled_from(sorted(GATE_PRESETS)))]
    else:
        m = draw(st.integers(1, 3))
        argv = ["--theta", repr(draw(angles)), "--m", str(m),
                "--gamma", repr(draw(st.floats(0.0, 2 * m * math.pi)))]
    return argv + draw(st.sampled_from([[], ["--omega", draw(scales)]]))


@st.composite
def _target_2q(draw):
    return ["--theta-tilde", repr(draw(st.floats(0.01, 1.56))),
            "--m-tilde", draw(st.sampled_from(["1", "3"])), "--omega-tilde", draw(scales)]


_1Q = ["--gate", "--theta", "--gamma", "--m", "--omega", "--samples"]
_2Q = ["--theta-tilde", "--m-tilde", "--omega-tilde"]
# The flags each command is fuzzed on; a time-sample count is only ever refused.
_FLAGS = {
    "synth-1q": _1Q,
    "synth-2q": _2Q + ["--samples", "--mc-samples", "--seed"],
    "verify": _1Q + _2Q,
    "classify": ["--samples", "--seed", "--cnot-tol"],
    "sweep": ["--gate", "--theta", "--gamma", "--theta-tilde", "--m", "--omega", "--min",
              "--max", "--steps"],
}
_MC_SAMPLES = st.integers(1000, 2000).map(str)

fuzz = settings(deadline=None, max_examples=100)


@fuzz
@given(st.data())
def test_synth_1q(data):
    event(_run(["synth-1q"] + _line(data.draw, _target_1q(), _FLAGS["synth-1q"])))


@fuzz
@given(st.data())
def test_synth_2q(data):
    base = st.tuples(_target_2q(), _MC_SAMPLES).map(lambda t: t[0] + ["--mc-samples", t[1]])
    event(_run(["synth-2q"] + _line(data.draw, base, _FLAGS["synth-2q"])))


@fuzz
@given(st.data())
def test_verify(data):
    event(_run(["verify"] + _line(data.draw, st.one_of(_target_1q(), _target_2q()),
                                  _FLAGS["verify"])))


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cnot.json"
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    path.write_text(json.dumps([[[v, 0.0] for v in row] for row in cnot]))
    return str(path)


@fuzz
@given(data=st.data())
def test_classify(matrix_file, data):
    base = _MC_SAMPLES.map(lambda n: [matrix_file, "--samples", n])
    event(_run(["classify"] + _line(data.draw, base, _FLAGS["classify"])))


@st.composite
def _sweep_line(draw):
    gate = draw(st.sampled_from([*sorted(GATE_PRESETS), "custom", "two-qubit"]))
    argv = ["--gate", gate, "--steps", str(draw(st.integers(2, 5)))]
    if gate == "custom":
        argv += ["--theta", repr(draw(angles)),
                 "--gamma", repr(draw(st.floats(0.0, 2 * math.pi)))]
    elif gate == "two-qubit":
        argv += ["--theta-tilde", repr(draw(st.floats(0.01, 1.56)))]
    return argv + draw(st.sampled_from([[], ["--linear"], ["--min", "0.5", "--max", "50"]]))


@fuzz
@given(st.data())
def test_sweep(data):
    event(_run(["sweep"] + _line(data.draw, _sweep_line(), _FLAGS["sweep"])))


# One fixed line per kind of target, with every listed hostile value on every flag.
_LINES = {
    "synth-1q": [["--gate", "hadamard"], ["--theta", "0.3", "--gamma", "1.0"]],
    "synth-2q": [["--theta-tilde", "0.6", "--mc-samples", "1000"]],
    "verify": [["--gate", "pi8"], ["--theta", "1.0", "--gamma", "2.0", "--m", "2"],
               ["--theta-tilde", "0.6"]],
    "classify": [["--samples", "1000"]],
    "sweep": [["--gate", "hadamard", "--steps", "3"],
              ["--gate", "custom", "--theta", "0.3", "--gamma", "1.0", "--steps", "3"],
              ["--gate", "two-qubit", "--theta-tilde", "0.6", "--steps", "3"]],
}


@pytest.mark.parametrize("command", sorted(_LINES))
def test_every_hostile_value_on_every_flag(command, matrix_file):
    for line in _LINES[command]:
        line = [matrix_file] * (command == "classify") + line
        for flag in _FLAGS[command]:
            for value in HOSTILE:
                _run([command, *line, flag, value])
