"""Command-line interface: synthesis, verification, classification, sweeps.

All commands are deterministic: identical invocations produce byte-identical
output (Monte-Carlo estimates are controlled by ``--seed``, default 0).
Reports are JSON with complex numbers encoded as ``[re, im]`` pairs and
matrices row-major; sweeps are CSV.  The environment variable
``HOLODFS_OUTPUT_DIR`` supplies a default directory for relative ``--out``
paths.

Exit codes: 0 success, 2 flag/precondition validation, 3 tolerance breach,
4 output I/O failure, 5 unparseable input file.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys

import numpy as np

from .entanglement import (
    CNOT_TOL,
    MC_SAMPLES,
    classify_gate,
    entangling_power_analytic,
    require_mc_samples,
    require_mc_seed,
)
from .holonomy import GATE_PRESETS, TIME_SAMPLES, evolve_and_project, loop_target
from .noise import SweepSpec, run_sweep
from .spin_model import restrict
# Bound only for bench/tests/test_bench.py, which checks that tracing patches them here.
from .spin_model import build_h1, build_h2  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4
EXIT_PARSE = 5

TOLERANCES = {
    "analytic_distance": 1e-8,
    "cyclicity_residual": 1e-10,
    "leakage": 1e-10,
    "max_dynamical_norm": 1e-12,
    "input_unitarity": 1e-8,
    "cnot_weyl": CNOT_TOL,
}

OUTPUT_DIR_ENV = "HOLODFS_OUTPUT_DIR"


class CommandError(Exception):
    """CLI failure carrying its exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _encode(value):
    """Recursively convert a payload into JSON-serializable primitives.

    Complex numbers become ``[re, im]`` pairs; negative zeros are
    normalized away so equivalent payloads serialize identically.
    """
    if isinstance(value, complex):
        return [float(value.real) + 0.0, float(value.imag) + 0.0]
    if isinstance(value, float):
        return value + 0.0
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # What stdout still buffers goes to devnull, so that the flush at
            # interpreter exit does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CommandError(f"cannot write standard output: {exc}", EXIT_IO)
        return
    # join keeps an absolute ``out`` as it is, and join("", out) is ``out``.
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), out)
    # The flags and mode of open(path, "w"), without its text layer.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise CommandError(f"cannot write output file {path}: {exc}", EXIT_IO)


def _json_text(payload: dict) -> str:
    return json.dumps(_encode(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


# The GateReport fields that verify checks against TOLERANCES.
_CRITERIA = ("cyclicity_residual", "max_dynamical_norm", "leakage", "analytic_distance")


def _report_block(report) -> dict:
    return {"holonomy": report.holonomy,
            **{name: getattr(report, name) for name in _CRITERIA}}


def _runs(params, ideal: np.ndarray, samples: int):
    # The loop of ``params`` evolved in its excitation sector and in full space.
    h_full = params.hamiltonian()
    sector, logical = params.frames()
    h_eff, _ = restrict(h_full, sector)
    effective = evolve_and_project(h_eff, params.frames(effective=True)[1], params.tau,
                                   samples=samples, ideal=ideal)
    full = evolve_and_project(h_full, logical, params.tau, samples=samples, ideal=ideal)
    return effective, full


def _check_distance(*reports) -> None:
    worst = float(np.max([report.analytic_distance for report in reports]))
    if not worst <= TOLERANCES["analytic_distance"]:
        raise CommandError(
            f"analytic distance {worst:.3e} exceeds tolerance "
            f"{TOLERANCES['analytic_distance']:.0e}",
            EXIT_TOLERANCE,
        )


def _given(args, *flags) -> dict:
    # The flags among ``flags`` that the command line set, by name.
    return {flag: getattr(args, flag) for flag in flags
            if getattr(args, flag, None) is not None}


def _target(args):
    """The requested angles and the loop they select: ``(angles, (params, ideal))``.

    ``--theta-tilde`` selects the two-qubit loop, whose ``angles`` are ``None``;
    else ``--gate`` or both ``--theta`` and ``--gamma`` give ``(theta, gamma)``.  Flags
    of the other loop are refused; unset windings and scales take loop_target's defaults.
    """
    if getattr(args, "theta_tilde", None) is not None:
        for flag in _given(args, "gate", "theta", "gamma", "m", "omega"):
            raise CommandError(f"--theta-tilde conflicts with --{flag}", EXIT_VALIDATION)
        scales = _given(args, "m_tilde", "omega_tilde")
        return None, loop_target(
            theta_tilde=args.theta_tilde,
            **{flag.removesuffix("_tilde"): v for flag, v in scales.items()})
    for flag in _given(args, "m_tilde", "omega_tilde"):
        raise CommandError(
            f"--{flag.replace('_', '-')} applies only with --theta-tilde", EXIT_VALIDATION
        )
    if args.gate is not None:
        if args.theta is not None or args.gamma is not None:
            raise CommandError("--gate conflicts with --theta/--gamma", EXIT_VALIDATION)
        angles = GATE_PRESETS[args.gate]
    elif args.theta is None or args.gamma is None:
        raise CommandError("provide --gate or both --theta and --gamma", EXIT_VALIDATION)
    else:
        angles = args.theta, args.gamma
    return angles, loop_target(*angles, **_given(args, "m", "omega"))


def cmd_synth_1q(args) -> int:
    (theta, gamma), (params, ideal) = _target(args)
    effective, full = _runs(params, ideal, args.samples)
    couplings = params.couplings()
    payload = {
        "command": "synth-1q",
        "params": {
            "theta": params.theta,
            "gamma": gamma,
            "phi": params.phi,
            "m": params.m,
            "omega": params.omega,
            "tau": params.tau,
            "couplings": {"j1a": couplings.j1a, "j2a": couplings.j2a, "b": couplings.b},
        },
        "target": {
            "axis": [math.sin(theta), 0.0, -math.cos(theta)],
            "rotation_angle": gamma,
            "matrix": ideal,
        },
        "effective": _report_block(effective),
        "full": _report_block(full),
        "tolerances": TOLERANCES,
    }
    _emit(_json_text(payload), args.out)
    _check_distance(effective, full)
    return EXIT_OK


def cmd_synth_2q(args) -> int:
    require_mc_samples(args.mc_samples)
    require_mc_seed(args.seed)
    _, (params, ideal) = _target(args)
    effective, full = _runs(params, ideal, args.samples)
    couplings = params.couplings()
    report = classify_gate(full.holonomy, ep_samples=args.mc_samples, seed=args.seed,
                           cnot_tol=TOLERANCES["cnot_weyl"])
    payload = {
        "command": "synth-2q",
        "params": {
            "theta_tilde": params.theta_tilde,
            "m_tilde": params.m_tilde,
            "omega_tilde": params.omega_tilde,
            "tau": params.tau,
            "couplings": {"j32": couplings.j32, "j42": couplings.j42},
        },
        "target": {"matrix": ideal},
        "effective": _report_block(effective),
        "full": _report_block(full),
        "entanglement": {
            "g1": report.g1,
            "g2": report.g2,
            "weyl": list(report.weyl),
            "ep": entangling_power_analytic(params.theta_tilde),
            "ep_mc": report.ep,
            "ep_mc_stderr": report.ep_stderr,
            "mc_samples": args.mc_samples,
            "seed": args.seed,
            "cnot_equivalent": report.cnot_equivalent,
        },
        "tolerances": TOLERANCES,
    }
    _emit(_json_text(payload), args.out)
    _check_distance(effective, full)
    return EXIT_OK


def cmd_verify(args) -> int:
    angles, (params, ideal) = _target(args)
    effective, full = _runs(params, ideal, args.samples)

    def criteria(report) -> dict:
        values = {name: getattr(report, name) for name in _CRITERIA}
        # An energy, whose roundoff grows with the loop's scale: judged in units of omega.
        values["max_dynamical_norm"] /= params.omega
        return {
            name: {"value": value, "tolerance": TOLERANCES[name],
                   "pass": bool(value <= TOLERANCES[name])}
            for name, value in values.items()
        }

    blocks = {"effective": criteria(effective), "full": criteria(full)}
    all_pass = all(
        entry["pass"] for block in blocks.values() for entry in block.values()
    )
    payload = {
        "command": "verify",
        "mode": "2q" if angles is None else "1q",
        "criteria": blocks,
        "pass": all_pass,
        "tolerances": TOLERANCES,
    }
    _emit(_json_text(payload), args.out)
    if not all_pass:
        raise CommandError("one or more verification criteria failed", EXIT_TOLERANCE)
    return EXIT_OK


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise CommandError(f"cannot read matrix file {path}: {exc}", EXIT_PARSE)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise CommandError(f"matrix file {path} is not valid JSON: {exc}", EXIT_PARSE)
    matrix = np.empty((4, 4), dtype=complex)
    try:
        if len(raw) != 4:
            raise ValueError("expected 4 rows")
        for i, row in enumerate(raw):
            if len(row) != 4:
                raise ValueError(f"row {i} does not have 4 entries")
            for j, pair in enumerate(row):
                re, im = pair
                # Only JSON numbers: a 2-character string would unpack as a
                # pair, and float() accepts numeric strings and booleans.
                if not all(type(part) in (int, float) for part in (re, im)):
                    raise TypeError(f"entry [{i}][{j}] is not a pair of numbers")
                matrix[i, j] = float(re) + 1j * float(im)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CommandError(
            f"matrix file {path} is not a 4x4 array of [re, im] pairs: {exc}",
            EXIT_PARSE,
        )
    return matrix


def cmd_classify(args) -> int:
    matrix = _load_matrix(args.matrix_file)
    report = classify_gate(
        matrix, ep_samples=args.samples, seed=args.seed, cnot_tol=args.cnot_tol,
        tol=TOLERANCES["input_unitarity"],
    )
    payload = {
        "command": "classify",
        "g1": report.g1,
        "g2": report.g2,
        "weyl": list(report.weyl),
        "ep": report.ep,
        "ep_stderr": report.ep_stderr,
        "mc_samples": args.samples,
        "seed": args.seed,
        "cnot_equivalent": report.cnot_equivalent,
        "unitarity_defect": report.unitarity_defect,
        "tolerances": TOLERANCES,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _sweep_csv(table) -> str:
    # One row per grid point, first ratio outermost.  Each ratio is formatted
    # once and the rows of one first ratio are one join; the computed
    # columns are filled in by one formatting pass over plain floats.
    ratios = ["%.12g," % value for value in table.axis.tolist()]
    tails = ["", *(ratio + "%.12g,%.12g\n" for ratio in ratios)]
    rows = "".join([ratio.join(tails) for ratio in ratios])
    points = np.column_stack([table.fidelity.ravel(), table.leakage.ravel()])
    return "ratio1,ratio2,fidelity,leakage\n" + rows % tuple(points.ravel().tolist())


def cmd_sweep(args) -> int:
    loop = loop_target(gate=args.gate.replace("-", "_"),
                       **_given(args, "theta", "gamma", "theta_tilde", "m", "omega"))
    spec = SweepSpec(loop, log_scale=not args.linear,
                     **_given(args, "ratio_min", "ratio_max", "steps_per_axis"))
    _emit(_sweep_csv(run_sweep(spec)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The ``holodfs`` argument parser.

    The parser is built once per process; each call returns a shallow copy,
    so attributes set on one returned parser do not reach the next.
    """
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holodfs",
        description="Holonomic gates in decoherence-free subspaces of XY chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_1q_target(p):
        p.add_argument("--gate", choices=sorted(GATE_PRESETS),
                       help="preset single-qubit target")
        p.add_argument("--theta", type=float, help="rotation axis angle in [0, pi]")
        p.add_argument("--gamma", type=float, help="rotation angle in [0, 2*m*pi]")
        p.add_argument("--m", type=int, help="winding integer")
        p.add_argument("--omega", type=float, help="energy scale")

    def add_common(p):
        p.add_argument("--samples", type=int, default=TIME_SAMPLES,
                       help="time samples for the dynamics checks")
        p.add_argument("--out", help="output file (default: stdout)")

    s1 = sub.add_parser("synth-1q", help="synthesize and verify a single-qubit gate")
    add_1q_target(s1)
    add_common(s1)
    s1.set_defaults(func=cmd_synth_1q)

    s2 = sub.add_parser("synth-2q", help="synthesize, verify and classify a two-qubit gate")
    s2.add_argument("--theta-tilde", type=float, required=True,
                    help="coupling-ratio angle in (0, pi/2)")
    s2.add_argument("--m-tilde", type=int, help="odd winding integer")
    s2.add_argument("--omega-tilde", type=float, help="energy scale")
    s2.add_argument("--mc-samples", type=int, default=MC_SAMPLES,
                    help="Monte-Carlo samples for the entangling power")
    s2.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    add_common(s2)
    s2.set_defaults(func=cmd_synth_2q)

    v = sub.add_parser("verify", help="check the holonomic-gate criteria for a loop")
    add_1q_target(v)
    v.add_argument("--theta-tilde", type=float,
                   help="two-qubit coupling-ratio angle (selects 2q mode)")
    v.add_argument("--m-tilde", type=int, help="odd winding integer")
    v.add_argument("--omega-tilde", type=float, help="energy scale")
    add_common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="classify a two-qubit unitary from file")
    c.add_argument("matrix_file",
                   help="JSON file: 4x4 array of [re, im] pairs, row-major")
    c.add_argument("--samples", type=int, default=MC_SAMPLES,
                   help="Monte-Carlo samples for the entangling power")
    c.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    c.add_argument("--cnot-tol", type=float, default=CNOT_TOL,
                   help="Weyl-distance tolerance for CNOT equivalence")
    c.add_argument("--out", help="output file (default: stdout)")
    c.set_defaults(func=cmd_classify)

    w = sub.add_parser("sweep", help="DM-noise robustness sweep to CSV")
    w.add_argument("--gate", required=True,
                   choices=[*sorted(GATE_PRESETS), "custom", "two-qubit"])
    w.add_argument("--theta", type=float, help="axis angle for --gate custom")
    w.add_argument("--gamma", type=float, help="rotation angle for --gate custom")
    w.add_argument("--theta-tilde", type=float,
                   help="coupling-ratio angle for --gate two-qubit")
    # The dests are loop_target's and SweepSpec's parameters; an unset flag keeps its default.
    w.add_argument("--m", type=int, help="winding integer")
    w.add_argument("--omega", type=float, help="energy scale")
    w.add_argument("--min", type=float, dest="ratio_min", metavar="MIN",
                   help="smallest omega/D ratio")
    w.add_argument("--max", type=float, dest="ratio_max", metavar="MAX",
                   help="largest omega/D ratio")
    w.add_argument("--steps", type=int, dest="steps_per_axis", metavar="STEPS",
                   help="grid points per axis")
    scale = w.add_mutually_exclusive_group()
    scale.add_argument("--log", action="store_true",
                       help="logarithmic ratio spacing (the default)")
    scale.add_argument("--linear", action="store_true",
                       help="linear ratio spacing")
    w.add_argument("--out", help="output file (default: stdout)")
    w.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, ValueError) as exc:
        # Precondition violations raised by the library surface as flag
        # validation failures.
        print(f"holodfs {args.command}: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
