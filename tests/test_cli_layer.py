"""The CLI layer's two fast paths against their references.

``cli._plain`` reads plain command lines from a table read off the argparse
grammar; wherever it returns a namespace, argparse must return the same one.
``cli._json_text`` writes reports in one pass; it must match
``json.dumps(indent=2, sort_keys=True, allow_nan=False)`` byte for byte.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holodfs import cli

from test_cli_fuzz import HOSTILE

ROOT = Path(__file__).resolve().parent.parent
TABLE = cli.build_parser().table


def _outcome(parse, argv):
    """``("namespace", values)`` with floats as their repr (NaN-aware), or ``("exit", code)``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code
    return "namespace", {key: repr(value) if isinstance(value, float) else value
                         for key, value in vars(namespace).items()}


def _argparse(argv):
    return argparse.ArgumentParser.parse_args(cli.build_parser(), argv)


def _table(argv):
    namespace = cli._plain(TABLE, argv)
    assert namespace is not None, argv
    return namespace


_hostile = st.one_of(
    st.sampled_from(HOSTILE + ["-1", "--", "", " 2", "1_0", "m.json", "two-qubit", "-h"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))


def _value(action, hostile):
    # A value the action takes; with ``hostile``, sometimes any other.
    if action.choices is not None:
        valid = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        valid = st.integers(1, 10**6).map(str)
    elif action.type is float:
        valid = st.floats(0.0, 1e3).map(repr)
    else:
        valid = st.sampled_from(["m.json", "out.json"])
    return st.one_of(valid, valid, _hostile) if hostile else valid


@st.composite
def _argvs(draw):
    """A line of one command: its options in any order, with values.

    Half the lines are plain but for missing required options and exclusive
    flags set together; the others have hostile values and odd words.
    """
    command = draw(st.sampled_from(sorted(TABLE)))
    options, _, positional, required, _ = TABLE[command]
    argv, hostile = [command], draw(st.booleans())
    for option in draw(st.permutations(sorted(options))):
        action = options[option]
        if (action in required and draw(st.integers(0, 5))) or draw(st.booleans()):
            argv += [option] + ([] if action.nargs == 0 else [draw(_value(action, hostile))])
    if positional is not None and draw(st.integers(0, 5)):
        argv.insert(draw(st.integers(1, len(argv))), draw(_value(positional, hostile)))
    option = st.sampled_from(sorted(options))
    odd = st.one_of(
        option.map(lambda o: [o]),                                          # repeat, or no value
        st.tuples(option, _hostile).map(list),
        st.tuples(option, st.integers(3, 6)).map(lambda t: [t[0][:t[1]], "1"]),  # abbreviation
        st.tuples(option, _hostile).map(lambda t: [f"{t[0]}={t[1]}"]),      # --flag=value
        st.sampled_from([["-h"], ["--help"], ["--bogus"], ["x"]]),
        st.sampled_from([[], ["bogus"], ["-h"]]).map(lambda head: head + argv[:1]))
    for words in draw(st.lists(odd, max_size=2 * hostile)):
        argv[draw(st.integers(0, len(argv))):0] = words
    return argv


@settings(deadline=None, max_examples=300)
@given(_argvs())
def test_table_namespace_is_argparse_namespace(argv):
    namespace = cli._plain(TABLE, argv)
    event("table" if namespace is not None else "argparse")
    if namespace is not None:
        assert _outcome(_table, argv) == _outcome(_argparse, argv), argv
    # Whichever path parses it, the line gets argparse's namespace or exit code.
    assert _outcome(cli.build_parser().parse_args, argv) == _outcome(_argparse, argv), argv


def _golden_cli():
    spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "tools" / "golden_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_commands_parse_through_the_table():
    # The golden invocations that run a command (all exit 0); help texts and
    # refusals are argparse's.
    lines = [args for name, args in _golden_cli().INVOCATIONS
             if not name.startswith(("help", "refuse_"))]
    assert len(lines) == 29
    for argv in lines:
        assert _outcome(_table, argv) == _outcome(_argparse, argv), argv


def test_bench_commands_parse_through_the_table(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    kinds = set()
    for workload in ("sweep", "synthesize", "entangle"):
        for command in workloads.make_round(workload, 1, tmp_path):
            argv = [*command.argv, "--out", str(tmp_path / "out")]
            kinds.add(argv[0])
            assert _outcome(_table, argv) == _outcome(_argparse, argv), argv
    assert kinds == set(TABLE)


def test_refusals_are_one_line_and_help_is_argparse_s(capsys):
    parser = cli.build_parser()
    for argv in (["sweep", "--steps", "2.0"], ["synth-2q", "--mc-samples", "1e3"],
                 ["sweep", "--gate", "pi8", "--log", "--linear"], ["sweep", "--gate", "pi8", "x"],
                 ["classify"], ["bogus"], []):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.count("\n") == 1, argv
        assert err.startswith(f"holodfs {argv[0]}: " if argv and argv[0] != "bogus"
                              else "holodfs: "), argv
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["sweep", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: holodfs sweep [-h] --gate")


# The writer's reference, and the encoder it replaced: json.dumps of the payload
# with complex numbers as [re, im] pairs, arrays as lists and -0.0 as 0.0.
def _reference(value):
    def encode(value):
        if isinstance(value, complex):
            return [float(value.real) + 0.0, float(value.imag) + 0.0]
        if isinstance(value, float):
            return value + 0.0
        if isinstance(value, np.ndarray):
            return encode(value.tolist())
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [encode(item) for item in value]
        return value

    return json.dumps(encode(value), indent=2, sort_keys=True, allow_nan=False) + "\n"


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308]))
_arrays = st.one_of(*(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
                                 elements=elements)
                      for dtype, elements in (
                          (complex, st.complex_numbers(allow_nan=False, allow_infinity=False)),
                          (float, _finite), (np.int64, st.integers(-10**9, 10**9)),
                          (bool, st.booleans()))))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _finite,
                    st.complex_numbers(allow_nan=False, allow_infinity=False),
                    st.text(), st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀a')),
                    _arrays)
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(st.text(max_size=6), _payloads, max_size=5))
def test_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == _reference(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                 complex(math.inf, 0.0), np.array([[1.0, math.nan]])])
def test_writer_refuses_non_finite_numbers_as_json_does(bad):
    payload = {"a": [1.0, {"b": bad}]}
    with pytest.raises(ValueError) as ours:
        cli._json_text(payload)
    with pytest.raises(ValueError) as reference:
        _reference(payload)
    assert str(ours.value) == str(reference.value)
