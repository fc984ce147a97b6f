"""Seeded command rounds for the three benchmark workloads.

A round is a fixed mix of ``holodfs`` command lines; the seed picks only
the parameters inside each slot (angles, windings, energy scales, ratio
ranges, Monte-Carlo seeds, classify matrices), never the mix itself, so
every seed exercises the same amount of work of each kind and runs of
different seeds are comparable.  Each command carries the oracle that
checks its output; oracles live in ``oracles.py`` and never call holodfs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("sweep", "synthesize", "entangle")

# The README's example: a 50x50 Hadamard sweep.  The rest of the round is
# small and mid-sized grids, so the per-command median measures per-call
# overhead on small grids while points per second is carried by the large
# one.  Two-qubit points cost about a third more than one-qubit points; the
# mix puts the median inside the twelve one-qubit 10x10 sweeps and the p80
# tail inside the four one-qubit 14x14 sweeps, not on the edge between two
# clusters of commands.
_SWEEP_SLOTS = (
    [(10, "hadamard"), (10, "pi8"), (10, "custom")] * 4
    + [(10, "two-qubit")]
    + [(14, "hadamard"), (14, "pi8"), (14, "custom"), (14, "custom")]
    + [(14, "two-qubit"), (20, "two-qubit")]
    + [(50, "hadamard")]
)

# Tail percentile per workload, fixed so that runs of different length
# report the same statistic; ``min_ops`` guarantees at least ten samples
# beyond it.
TAIL = {
    "sweep": (80, 60),
    "synthesize": (95, 200),
    "entangle": (90, 100),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--out``) and the check for its output.

    ``work`` is the unit of work the command completes: grid points for a
    sweep, one for every other command.
    """

    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    work: int = 1


def _f(x: float) -> str:
    # repr round-trips through float(), so the CLI sees the exact value the
    # oracle uses.
    return repr(float(x))


def _one_qubit_angles(rng, m: int) -> tuple[float, float]:
    return float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * m * math.pi))


def _theta_tilde(rng) -> float:
    return float(rng.uniform(0.05, math.pi / 2 - 0.05))


def sweep_round(rng) -> list[Command]:
    commands = []
    for index, (steps, gate) in enumerate(_SWEEP_SLOTS):
        log = index % 2 == 0
        lo = 10 ** rng.uniform(-0.3, 0.3)
        hi = 10 ** rng.uniform(1.5, 2.5)
        omega = float(rng.uniform(0.5, 2.0))
        argv = ["sweep", "--gate", gate, "--min", _f(lo), "--max", _f(hi),
                "--steps", str(steps), "--log" if log else "--linear"]
        if gate == "two-qubit":
            theta_tilde, m = _theta_tilde(rng), int(rng.choice([1, 3]))
            argv += ["--theta-tilde", _f(theta_tilde), "--m", str(m),
                     "--omega", _f(omega)]
            target = oracles.GateSpec(2, (theta_tilde,), m, omega)
        else:
            m = 1
            if gate == "custom":
                m = int(rng.choice([1, 2]))
                theta, gamma = _one_qubit_angles(rng, m)
                argv += ["--theta", _f(theta), "--gamma", _f(gamma), "--m", str(m)]
            else:
                theta, gamma = oracles.PRESET_ANGLES[gate]
            argv += ["--omega", _f(omega)]
            target = oracles.GateSpec(1, (theta, gamma), m, omega)
        spot = [tuple(int(v) for v in rng.integers(0, steps, 2)) for _ in range(3)]
        check = functools.partial(
            oracles.check_sweep, target=target, ratio_min=lo, ratio_max=hi,
            steps=steps, log=log, spot=spot,
        )
        commands.append(Command(tuple(argv), check, work=steps * steps))
    return commands


def synthesize_round(rng) -> list[Command]:
    commands = []
    for gate in ("hadamard", "pi8"):
        commands.append(Command(
            ("synth-1q", "--gate", gate),
            functools.partial(oracles.check_synth_1q, target=oracles.PRESET_GATES[gate]),
        ))
    for index in range(8):
        m = 1 + index % 3
        theta, gamma = _one_qubit_angles(rng, m)
        omega = float(rng.uniform(0.5, 2.0))
        commands.append(Command(
            ("synth-1q", "--theta", _f(theta), "--gamma", _f(gamma), "--m", str(m),
             "--omega", _f(omega)),
            functools.partial(oracles.check_synth_1q,
                              target=oracles.rotation(theta, gamma)),
        ))
    verify_1q = functools.partial(oracles.check_verify, mode="1q")
    commands.append(Command(("verify", "--gate", "pi8"), verify_1q))
    for index in range(4):
        m = 1 + index % 3
        theta, gamma = _one_qubit_angles(rng, m)
        commands.append(Command(
            ("verify", "--theta", _f(theta), "--gamma", _f(gamma), "--m", str(m),
             "--omega", _f(rng.uniform(0.5, 2.0))),
            verify_1q,
        ))
    verify_2q = functools.partial(oracles.check_verify, mode="2q")
    for index in range(5):
        commands.append(Command(
            ("verify", "--theta-tilde", _f(_theta_tilde(rng)),
             "--m-tilde", str(1 + 2 * (index % 3)),
             "--omega-tilde", _f(rng.uniform(0.5, 2.0))),
            verify_2q,
        ))
    return commands


def _chamber_point(rng, face: str | None) -> tuple[float, float, float]:
    """Seeded Weyl-chamber point: interior (``face=None``) or on a face.

    Faces are the base c3 = 0, the planes c1 = c2 and c1 + c2 = pi, and the
    plane c2 = c3.  Interior points keep a 0.02 margin from every face.
    """
    margin = 0.02 if face is None else 0.0
    while True:
        c1 = float(rng.uniform(0.0, math.pi))
        a, b = sorted(float(v) for v in rng.uniform(0.0, math.pi / 2, 2))
        reach = min(c1, math.pi - c1)
        if face is None:
            point = (c1, b, a)
            if reach - b > margin and b - a > margin and a > margin:
                return point
        elif face == "base":
            if b < reach:
                return (c1, b, 0.0)
        elif face == "c1=c2":
            return (b, b, a)
        elif face == "c1+c2=pi":
            return (math.pi - b, b, a)
        elif face == "c2=c3":
            if b < reach:
                return (c1, b, b)
        else:
            raise ValueError(f"unknown chamber face {face!r}")


def entangle_round(rng, workdir: Path) -> list[Command]:
    commands = []
    for index in range(6):
        theta_tilde = _theta_tilde(rng)
        commands.append(Command(
            ("synth-2q", "--theta-tilde", _f(theta_tilde),
             "--m-tilde", str(1 + 2 * (index % 3)),
             "--seed", str(int(rng.integers(0, 2**31)))),
            functools.partial(oracles.check_synth_2q, theta_tilde=theta_tilde),
        ))
    cases = [("haar", None)] * 5 + [("canonical", None)] * 4
    cases += [("canonical", face) for face in ("base", "c1=c2", "c1+c2=pi", "c2=c3")]
    cases += [("cnot", None)]
    for index, (kind, face) in enumerate(cases):
        if kind == "haar":
            matrix, weyl = oracles.haar_unitary(rng, 4), None
        else:
            weyl = oracles.CNOT_POINT if kind == "cnot" else _chamber_point(rng, face)
            matrix = oracles.dressed_canonical(rng, weyl)
        path = workdir / f"classify-{index:02d}.json"
        path.write_text(json.dumps(
            [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        ))
        commands.append(Command(
            ("classify", str(path), "--seed", str(int(rng.integers(0, 2**31)))),
            functools.partial(oracles.check_classify, matrix=matrix, weyl=weyl),
        ))
    return commands


def make_round(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The workload's command round for ``seed``; writes input files to ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        return sweep_round(rng)
    if workload == "synthesize":
        return synthesize_round(rng)
    if workload == "entangle":
        return entangle_round(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
