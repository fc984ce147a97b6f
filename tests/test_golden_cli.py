"""The golden-output recorder: its input matrices, its invocation list and its comparison."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from holodfs.linalg import unitarity_defect

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "tools" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_input_matrices_are_what_their_names_say():
    matrices = {name: np.array(rows, dtype=complex)
                for name, rows in golden_cli.MATRICES.items()}
    for name in ("matrix.json", "cnot.json", "identity.json", "haar.json", "cphase.json"):
        assert unitarity_defect(matrices[name]) < 1e-14
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(unitarity_defect(matrices["overflow.json"]))
    assert np.isfinite(matrices["overflow.json"]).all()
    assert unitarity_defect(matrices["scaled.json"]) == 3.0


def test_overflow_refusal_is_one_stderr_line(tmp_path):
    # The refusal's stderr holds only the message: no numpy warning, whose
    # text would name the path holodfs is installed at.
    golden_cli._write_matrices(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-m", "holodfs.cli", "classify", "overflow.json"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr == "holodfs classify: matrix is not unitary: defect nan exceeds 1e-08\n"
    assert run.stdout == ""


def test_invocations_have_distinct_names_and_their_inputs_are_written(tmp_path):
    names = [name for name, _ in golden_cli.INVOCATIONS]
    assert len(set(names)) == len(names)
    golden_cli._write_matrices(tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(golden_cli.MATRICES)


def test_compare_names_every_differing_or_missing_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for directory in (a, b):
        (directory / "same.stdout").write_bytes(b"x\n")
    (a / "changed.code").write_text("0\n")
    (b / "changed.code").write_text("2\n")
    (a / "only_a.stderr").write_text("")
    assert golden_cli.compare(a, b) == ["changed.code", f"only_a.stderr (only in {a})"]
    assert golden_cli.compare(a, a) == []


def test_compare_lists_the_json_paths_whose_values_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    report = {"ep": 0.25, "ep_stderr": 1e-4, "weyl": [1.5, 0.0, 0.0],
              "tolerances": {"gate": 1e-9, "leak": 1e-10}, "seed": 0}
    (a / "r.stdout").write_text(json.dumps(report, indent=2) + "\n")
    changed = {**report, "ep_stderr": 2e-4, "weyl": [1.5, 0.0, 1e-17],
               "tolerances": {"gate": 1e-9}, "seed": 0.0, "added": True}
    (b / "r.stdout").write_text(json.dumps(changed, indent=2) + "\n")
    (a / "r.code").write_text("0\n")
    (b / "r.code").write_text("2\n")
    (a / "r.stderr").write_text("holodfs: one message\n")
    (b / "r.stderr").write_text("holodfs: another message\n")
    (a / "only.stdout").write_text("{}\n")
    paths = ["$.added", "$.ep_stderr", "$.seed", "$.tolerances.leak", "$.weyl[2]"]
    assert golden_cli.json_paths(a / "r.stdout", b / "r.stdout") == paths
    assert golden_cli.json_paths(a / "r.stdout", a / "r.stdout") == []
    assert golden_cli.json_paths(a / "r.code", b / "r.code") == ["$"]
    assert golden_cli.json_paths(a / "r.stderr", b / "r.stderr") == []
    assert golden_cli.json_paths(a / "only.stdout", b / "only.stdout") == []
    assert golden_cli.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: only.stdout (only in {a})",
        "differs: r.code at $",
        "differs: r.stderr",
        f"differs: r.stdout at {', '.join(paths)}",
        "4 of the files differ",
    ]
