"""Tests of the benchmark itself: inputs, span arithmetic, oracles, contract.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holodfs
import holodfs.cli
import layers
import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    assert holodfs.cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def corrupt_json(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


# --- inputs -----------------------------------------------------------------

def snapshot(workload, seed, workdir):
    workdir.mkdir()
    commands = workloads.make_round(workload, seed, workdir)
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in c.argv) for c in commands]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files, [c.work for c in commands]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = snapshot(workload, 5, tmp_path / "a")
    assert first == snapshot(workload, 5, tmp_path / "b")
    other = snapshot(workload, 6, tmp_path / "c")
    assert first[0] != other[0]
    assert first[2] == other[2], "the seed must not change the work mix"


def test_tail_percentiles_have_ten_samples_beyond():
    for pct, min_ops in workloads.TAIL.values():
        assert min_ops - math.ceil(pct / 100 * min_ops) >= 10


# --- span arithmetic --------------------------------------------------------

def span(name, start, end, parent, counter=None):
    return [name, start, end, parent, 0, counter]


def test_self_times_on_synthetic_tree():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("holonomy.evolve_and_project", 1.0, 4.0, 0, ("holonomy.time_samples", 101)),
        span("noise.run_sweep", 5.0, 9.0, 0),
        span("linalg.eigh", 6.0, 7.0, 2, ("linalg.eigh.calls.d8", 1)),
        span("spin_model.build_h1", 8.5, 9.5, 2),  # overhangs its parent by 0.5
        span("linalg.eigh", 2.0, 3.0, 1, ("linalg.eigh.calls.d3", 1)),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 2.5, 1.0, 1.0, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["cli.self_ms"] == pytest.approx(3e3)
    assert totals["holonomy.self_ms"] == pytest.approx(2e3)
    assert totals["linalg.self_ms"] == pytest.approx(2e3)
    assert totals["linalg.eigh.calls"] == 2
    assert totals["linalg.eigh.calls.d8"] == 1
    assert totals["spin_model.build_h.self_ms"] == pytest.approx(1e3)
    assert totals["holonomy.time_samples"] == 101
    module_total = sum(totals[f"{m}.self_ms"] for m in tracing.MODULES if f"{m}.self_ms" in totals)
    assert module_total == pytest.approx(10.5e3)  # root span plus the overhang
    scaled = tracing.layer_totals(spans, scales=[0.5])
    assert scaled["cli.self_ms"] == pytest.approx(1.5e3)
    assert scaled["linalg.eigh.calls"] == 2


def test_overlapping_children_count_once():
    spans = [span("cli.main", 0.0, 10.0, -1), span("cli.emit", 1.0, 5.0, 0),
             span("cli.emit", 3.0, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_and_restores(tmp_path):
    original = holodfs.noise.build_h1
    tracer = tracing.Tracer()
    tracer.install(holodfs)
    try:
        assert holodfs.noise.build_h1 is holodfs.cli.build_h1 is not original
        run_cli(tmp_path, "synth-1q", "--gate", "hadamard")
    finally:
        tracer.uninstall()
    assert holodfs.noise.build_h1 is original is holodfs.spin_model.build_h1
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    assert {s[4] for s in tracer.spans} == {0}, "one command, numbered 0"
    assert {"cli.parse_args", "cli.emit", "spin_model.build_h1"} <= set(names)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["linalg.eigh.calls.d3"] == totals["linalg.eigh.calls.d8"] == 1
    assert totals["holonomy.time_samples"] == 202


# --- oracles ----------------------------------------------------------------

def test_synth_1q_oracle_flags_flipped_entry(tmp_path):
    text = run_cli(tmp_path, "synth-1q", "--theta", "0.8", "--gamma", "2.4", "--m", "2")
    target = oracles.rotation(0.8, 2.4)
    assert oracles.check_synth_1q(text, target) == []

    def flip(payload):
        entry = payload["full"]["holonomy"][0][1]
        entry[0] = -entry[0]

    problems = oracles.check_synth_1q(corrupt_json(text, flip), target)
    assert problems and "full" in problems[0]


def test_preset_gates_match_their_angles(tmp_path):
    for gate, (theta, gamma) in oracles.PRESET_ANGLES.items():
        distance = oracles.phase_distance(oracles.rotation(theta, gamma),
                                          oracles.PRESET_GATES[gate])
        assert distance < 1e-12
        text = run_cli(tmp_path, "synth-1q", "--gate", gate)
        assert oracles.check_synth_1q(text, oracles.PRESET_GATES[gate]) == []


def test_verify_oracle_flags_failed_verdict(tmp_path):
    text = run_cli(tmp_path, "verify", "--theta-tilde", "0.6")
    assert oracles.check_verify(text, "2q") == []
    assert oracles.check_verify(text, "1q")
    assert oracles.check_verify(corrupt_json(text, lambda p: p.update({"pass": False})), "2q")


def test_sweep_oracle_flags_fidelity_above_one(tmp_path):
    argv = ["sweep", "--gate", "two-qubit", "--theta-tilde", "0.5", "--min", "2",
            "--max", "60", "--steps", "10", "--linear"]
    text = run_cli(tmp_path, *argv)
    target = oracles.GateSpec(2, (0.5,), 1, 1.0)
    kwargs = dict(target=target, ratio_min=2.0, ratio_max=60.0, steps=10, log=False,
                  spot=[(0, 0), (3, 7)])
    assert oracles.check_sweep(text, **kwargs) == []
    lines = text.splitlines()
    r1, r2, _, leak = lines[5].split(",")
    lines[5] = f"{r1},{r2},1.0000001,{leak}"
    assert any("outside [0, 1]" in p for p in oracles.check_sweep("\n".join(lines), **kwargs))
    lines = text.splitlines()
    r1, r2, fid, leak = lines[1].split(",")  # spot point (0, 0)
    lines[1] = f"{r1},{r2},{float(fid) - 1e-6!r},{leak}"
    assert any("scipy" in p for p in oracles.check_sweep("\n".join(lines), **kwargs))
    assert oracles.check_sweep("\n".join(text.splitlines()[:-1]), **kwargs)


def test_classify_oracle_flags_wrong_weyl_point(tmp_path):
    rng = np.random.default_rng(0)
    weyl = (2.0, 0.6, 0.3)
    matrix = oracles.dressed_canonical(rng, weyl)
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in matrix]))
    text = run_cli(tmp_path, "classify", str(path))
    assert oracles.check_classify(text, matrix, weyl) == []

    def shift(payload):
        payload["weyl"][0] += 1e-3

    problems = oracles.check_classify(corrupt_json(text, shift), matrix, weyl)
    assert problems and "Weyl" in problems[0]

    def bias(payload):
        payload["ep"] += 10 * payload["ep_stderr"]

    assert any("sigma" in p for p in oracles.check_classify(corrupt_json(text, bias), matrix, weyl))


def test_synth_2q_oracle_accepts_unfolded_base_and_flags_wrong_point(tmp_path):
    text = run_cli(tmp_path, "synth-2q", "--theta-tilde", "1.2", "--mc-samples", "20000")
    assert oracles.check_synth_2q(text, 1.2) == []

    def wrong(payload):
        payload["entanglement"]["weyl"][1] = 0.1

    assert any("Weyl" in p for p in oracles.check_synth_2q(corrupt_json(text, wrong), 1.2))


def test_makhlin_g1_of_cnot_and_identity():
    assert oracles.makhlin_g1(oracles.canonical_gate(*oracles.CNOT_POINT)) == pytest.approx(0)
    assert oracles.makhlin_g1(np.eye(4)) == pytest.approx(1)
    assert oracles.exact_entangling_power(oracles.canonical_gate(math.pi / 2, 0, 0)) == \
        pytest.approx(2 / 9)


# --- contract -----------------------------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.MOVES)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "work_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synthesize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert run.stdout == ""
