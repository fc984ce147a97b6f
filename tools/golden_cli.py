"""Record the outputs of a fixed list of holodfs CLI invocations, or compare two records.

    python3 tools/golden_cli.py --out golden_a
    python3 tools/golden_cli.py --root ../other-checkout --out golden_b
    python3 tools/golden_cli.py --compare golden_a golden_b

Recording runs every invocation of ``INVOCATIONS`` as ``python -m
holodfs.cli`` with ``<root>/src`` on ``PYTHONPATH``, each in a fresh
working directory that holds the matrix files of ``MATRICES``.  For
invocation ``name`` it saves ``name.stdout``, ``name.stderr`` and
``name.code`` (the exit code) into the output directory, plus
``name.file.<file>`` for each file the invocation wrote (``--out``).

Comparing names every file that differs between two records or exists in
only one of them, and exits 1 when there is any.  Two records of one
checkout are byte-identical, because every command is deterministic.

Standard library only.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _haar(seed: int) -> list[list[complex]]:
    # Gram-Schmidt on the columns of a complex Gaussian matrix from a seeded
    # stream: a fixed, Haar-distributed 4x4 unitary.
    rng = random.Random(seed)
    columns = []
    for _ in range(4):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        for q in columns:
            dot = sum(a.conjugate() * b for a, b in zip(q, v))
            v = [b - dot * a for a, b in zip(q, v)]
        norm = sum(abs(b) ** 2 for b in v) ** 0.5
        columns.append([b / norm for b in v])
    return [[columns[j][i] for j in range(4)] for i in range(4)]


def _identity(scale: complex = 1.0) -> list[list[complex]]:
    return [[scale if i == j else 0.0 for j in range(4)] for i in range(4)]


def _cnot() -> list[list[complex]]:
    rows = _identity()
    rows[2], rows[3] = rows[3], rows[2]
    return rows


def _overflowing() -> list[list[complex]]:
    # Finite entries whose Gram product overflows, so the unitarity defect is NaN.
    rows = _identity()
    rows[3][3] = complex(1e308, 1e308)
    return rows


def _controlled_phase() -> list[list[complex]]:
    rows = _identity()
    rows[3][3] = cmath.exp(0.7j)
    return rows


# Input files, written as 4x4 arrays of [re, im] pairs.
MATRICES = {
    "matrix.json": _cnot(),
    "cnot.json": _cnot(),
    "identity.json": _identity(),
    "haar.json": _haar(7),
    "cphase.json": _controlled_phase(),
    "overflow.json": _overflowing(),
    "scaled.json": _identity(2.0),
}

SWEEP_2Q = ["sweep", "--gate", "two-qubit", "--theta-tilde", "0.6"]

# (name, arguments): the README commands, sweeps of every target on both
# scales, time-sample counts that span several chunks of the dynamics check,
# classification, help texts, and refused inputs (exit 2, 4 or 5).
INVOCATIONS = [
    ("readme_synth1q_hadamard", ["synth-1q", "--gate", "hadamard", "--out", "hadamard.json"]),
    ("readme_synth1q_custom", ["synth-1q", "--theta", "0.8", "--gamma", "2.4", "--m", "2"]),
    ("readme_synth2q", ["synth-2q", "--theta-tilde", "0.7853981634", "--seed", "0",
                        "--out", "cnot_class.json"]),
    ("readme_verify_pi8", ["verify", "--gate", "pi8"]),
    ("readme_classify", ["classify", "matrix.json", "--seed", "0"]),
    ("readme_sweep", ["sweep", "--gate", "hadamard", "--min", "1", "--max", "100",
                      "--steps", "50", "--log", "--out", "sweep.csv"]),
    ("sweep_hadamard_log", ["sweep", "--gate", "hadamard", "--steps", "12"]),
    ("sweep_hadamard_linear", ["sweep", "--gate", "hadamard", "--steps", "12", "--linear"]),
    ("sweep_pi8_log", ["sweep", "--gate", "pi8", "--steps", "12", "--m", "3"]),
    ("sweep_pi8_linear", ["sweep", "--gate", "pi8", "--steps", "12", "--linear",
                          "--min", "5", "--max", "500"]),
    ("sweep_custom_log", ["sweep", "--gate", "custom", "--theta", "1.1", "--gamma", "2.0",
                          "--steps", "12", "--omega", "2.5"]),
    ("sweep_custom_linear", ["sweep", "--gate", "custom", "--theta", "2.2", "--gamma", "9.0",
                             "--m", "2", "--steps", "12", "--linear"]),
    ("sweep_2q_log", SWEEP_2Q + ["--steps", "12"]),
    ("sweep_2q_linear", SWEEP_2Q + ["--steps", "12", "--linear", "--m", "3"]),
    ("sweep_2q_large", SWEEP_2Q + ["--steps", "40", "--min", "0.5", "--max", "1000"]),
    ("synth1q_hadamard", ["synth-1q", "--gate", "hadamard"]),
    ("synth1q_pi8_1000", ["synth-1q", "--gate", "pi8", "--samples", "1000"]),
    ("synth1q_custom_513", ["synth-1q", "--theta", "2.2", "--gamma", "9.0", "--m", "2",
                            "--omega", "0.3", "--samples", "513"]),
    ("synth1q_hadamard_100000", ["synth-1q", "--gate", "hadamard", "--samples", "100000"]),
    ("synth1q_custom_4000", ["synth-1q", "--theta", "0.4", "--gamma", "5.0", "--m", "1",
                             "--samples", "4000"]),
    ("synth2q_0.6", ["synth-2q", "--theta-tilde", "0.6", "--samples", "300",
                     "--mc-samples", "20000", "--seed", "4"]),
    ("verify_2q_0.6", ["verify", "--theta-tilde", "0.6"]),
    ("verify_2q_0.3_m5_600", ["verify", "--theta-tilde", "0.3", "--m-tilde", "5",
                              "--samples", "600"]),
    ("verify_2q_100000", ["verify", "--theta-tilde", "1.2", "--samples", "100000"]),
    ("verify_1q_hadamard_8000", ["verify", "--gate", "hadamard", "--samples", "8000"]),
    ("classify_cnot", ["classify", "cnot.json"]),
    ("classify_identity", ["classify", "identity.json", "--samples", "5000"]),
    ("classify_haar", ["classify", "haar.json", "--seed", "3"]),
    ("classify_cphase", ["classify", "cphase.json", "--cnot-tol", "0.5", "--out", "cphase.out"]),
    ("help", ["--help"]),
    ("help_synth1q", ["synth-1q", "--help"]),
    ("help_synth2q", ["synth-2q", "--help"]),
    ("help_verify", ["verify", "--help"]),
    ("help_classify", ["classify", "--help"]),
    ("help_sweep", ["sweep", "--help"]),
    ("refuse_classify_overflow", ["classify", "overflow.json"]),
    ("refuse_classify_not_unitary", ["classify", "scaled.json"]),
    ("refuse_classify_cnot_tol", ["classify", "identity.json", "--cnot-tol", "-1"]),
    ("refuse_classify_samples", ["classify", "identity.json", "--samples", "10"]),
    ("refuse_classify_seed", ["classify", "identity.json", "--seed", "-1"]),
    ("refuse_classify_missing", ["classify", "missing.json"]),
    ("refuse_synth1q_samples_low", ["synth-1q", "--gate", "hadamard", "--samples", "1"]),
    ("refuse_synth1q_samples_high", ["synth-1q", "--gate", "pi8", "--samples", "1000001"]),
    ("refuse_synth1q_gamma", ["synth-1q", "--theta", "0.5", "--gamma", "-1"]),
    ("refuse_synth1q_omega", ["synth-1q", "--gate", "hadamard", "--omega", "nan"]),
    ("refuse_synth1q_phase", ["synth-1q", "--gate", "hadamard", "--m", "1000000"]),
    ("refuse_synth1q_conflict", ["synth-1q", "--gate", "pi8", "--theta", "0.3"]),
    ("refuse_synth2q_range", ["synth-2q", "--theta-tilde", "2.0"]),
    ("refuse_synth2q_even", ["synth-2q", "--theta-tilde", "0.6", "--m-tilde", "2"]),
    ("refuse_verify_conflict", ["verify", "--theta-tilde", "0.6", "--gate", "pi8"]),
    ("refuse_verify_m_tilde", ["verify", "--gate", "pi8", "--m-tilde", "3"]),
    ("refuse_sweep_theta", ["sweep", "--gate", "hadamard", "--theta", "0.3"]),
    ("refuse_sweep_steps", ["sweep", "--gate", "hadamard", "--steps", "501"]),
    ("refuse_sweep_min", ["sweep", "--gate", "pi8", "--min", "inf"]),
    ("refuse_sweep_phase", ["sweep", "--gate", "hadamard", "--min", "1e-12", "--steps", "4"]),
    ("refuse_sweep_out", ["sweep", "--gate", "hadamard", "--steps", "2",
                          "--out", "missing-dir/x.csv"]),
]


def _write_matrices(directory: Path) -> None:
    for name, rows in MATRICES.items():
        pairs = [[[value.real, value.imag] for value in map(complex, row)] for row in rows]
        (directory / name).write_text(json.dumps(pairs) + "\n")


def record(root: Path, out: Path) -> None:
    """Run every invocation against ``root`` and save its outputs in ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items() if key != "HOLODFS_OUTPUT_DIR"}
    env["COLUMNS"] = "80"  # argparse wraps the help texts to this width
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, args in INVOCATIONS:
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            _write_matrices(work)
            run = subprocess.run([sys.executable, "-m", "holodfs.cli", *args], cwd=work,
                                 env=env, capture_output=True)
            (out / f"{name}.stdout").write_bytes(run.stdout)
            (out / f"{name}.stderr").write_bytes(run.stderr)
            (out / f"{name}.code").write_text(f"{run.returncode}\n")
            for path in sorted(work.iterdir()):
                if path.name not in MATRICES:
                    shutil.copyfile(path, out / f"{name}.file.{path.name}")
        print(f"{name}: exit {run.returncode}", file=sys.stderr)


def compare(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between two records or exist in one only."""
    names = sorted({path.name for path in a.iterdir()} | {path.name for path in b.iterdir()})
    differ = []
    for name in names:
        left, right = a / name, b / name
        if not (left.exists() and right.exists()):
            differ.append(f"{name} (only in {a if left.exists() else b})")
        elif left.read_bytes() != right.read_bytes():
            differ.append(name)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="record into this directory")
    action.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two record directories")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to run (default: this repository)")
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.compare)
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of the files differ" if differ else "identical")
        return 1 if differ else 0
    record(args.root.resolve(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
