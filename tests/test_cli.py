import inspect
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodfs import cli
from holodfs import entanglement as ent
from holodfs.holonomy import analytic_gate_1q, loop_target
from holodfs.linalg import unitarity_defect
from holodfs.noise import SweepSpec, SweepTable, run_sweep


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit to a return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def write_matrix(path, matrix):
    encoded = [[[v.real, v.imag] for v in row] for row in np.asarray(matrix)]
    path.write_text(json.dumps(encoded))


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class TestSynth1Q:
    def test_hadamard_preset(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["synth-1q", "--gate", "hadamard", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["full"]["analytic_distance"] <= 1e-10
        assert report["effective"]["analytic_distance"] <= 1e-10
        assert report["params"]["gamma"] == pytest.approx(math.pi)
        assert "tolerances" in report

    def test_pi8_preset(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["synth-1q", "--gate", "pi8", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["params"]["gamma"] == pytest.approx(math.pi / 4)
        assert report["target"]["axis"] == pytest.approx([0.0, 0.0, -1.0])

    def test_target_matrix_is_built_from_the_requested_angles(self, tmp_path):
        # The synthesized params.gamma went through acos and reads
        # 2.399999999999999 here; a target built from it differs in its last bits.
        out = tmp_path / "t.json"
        argv = ["synth-1q", "--theta", "0.8", "--gamma", "2.4", "--m", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        expected = [[[v.real, v.imag] for v in row] for row in analytic_gate_1q(0.8, 2.4)]
        assert json.loads(out.read_text())["target"]["matrix"] == expected

    def test_unreachable_gamma_exits_2(self, capsys):
        code = run(["synth-1q", "--theta", "0.5", "--gamma", "7.0", "--m", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma" in err and "m=2" in err

    @pytest.mark.parametrize("argv", [
        ["synth-1q", "--theta", "1", "--gamma", "-1"],
        ["sweep", "--gate", "custom", "--theta", "1", "--gamma", "-1", "--steps", "2"],
        ["verify", "--theta", "1", "--gamma", "-1", "--m", "3"],
    ])
    def test_negative_gamma_exits_2_naming_the_sign(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "gamma=-1 is negative" in captured.err
        assert "gamma=5.28319 gives the same gate" in captured.err
        assert "winding is m=" not in captured.err
        assert captured.out == ""

    def test_missing_target_exits_2(self):
        assert run(["synth-1q"]) == 2

    def test_conflicting_target_exits_2(self):
        assert run(["synth-1q", "--gate", "pi8", "--theta", "0.3"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["synth-1q", "--gate", "hadamard", "--out", str(a)])
        run(["synth-1q", "--gate", "hadamard", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSynth2Q:
    def test_cnot_class_gate(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(
            [
                "synth-2q",
                "--theta-tilde",
                "0.7853981634",
                "--mc-samples",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        block = report["entanglement"]
        assert block["cnot_equivalent"] is True
        assert block["ep"] == pytest.approx(2 / 9, abs=1e-9)
        assert abs(block["ep_mc"] - 2 / 9) < 3 * block["ep_mc_stderr"]

    def test_half_maximum_entangling_power(self, tmp_path):
        out = tmp_path / "g.json"
        run(
            [
                "synth-2q",
                "--theta-tilde",
                "0.3926990817",
                "--mc-samples",
                "20000",
                "--out",
                str(out),
            ]
        )
        block = json.loads(out.read_text())["entanglement"]
        assert block["ep"] == pytest.approx(1 / 9, abs=1e-9)
        assert abs(block["ep_mc"] - 1 / 9) < 3 * block["ep_mc_stderr"]

    def test_even_winding_exits_2(self, capsys):
        assert run(["synth-2q", "--theta-tilde", "0.785", "--m-tilde", "2"]) == 2
        assert "odd" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "5000"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_classify_round_trip(self, tmp_path):
        # The holonomy written by synth-2q feeds classify unchanged and
        # reproduces the same invariants.
        report_path = tmp_path / "g.json"
        run(
            [
                "synth-2q",
                "--theta-tilde",
                "0.7853981634",
                "--mc-samples",
                "5000",
                "--out",
                str(report_path),
            ]
        )
        report = json.loads(report_path.read_text())
        matrix_path = tmp_path / "holonomy.json"
        matrix_path.write_text(json.dumps(report["full"]["holonomy"]))
        classify_path = tmp_path / "c.json"
        assert (
            run(
                [
                    "classify",
                    str(matrix_path),
                    "--samples",
                    "5000",
                    "--out",
                    str(classify_path),
                ]
            )
            == 0
        )
        classified = json.loads(classify_path.read_text())
        g1_synth = complex(*report["entanglement"]["g1"])
        g1_classified = complex(*classified["g1"])
        assert abs(g1_synth - g1_classified) < 1e-9
        assert classified["g2"] == pytest.approx(
            report["entanglement"]["g2"], abs=1e-9
        )
        assert np.allclose(
            classified["weyl"], report["entanglement"]["weyl"], atol=1e-9
        )


class TestVerify:
    def test_single_qubit_pass(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--gate", "hadamard", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["mode"] == "1q"
        for block in report["criteria"].values():
            for entry in block.values():
                assert entry["pass"] is True

    def test_two_qubit_pass(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--theta-tilde", "0.6", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "2q"
        assert report["pass"] is True

    @pytest.mark.parametrize("flags, flag", [
        (["--gate", "pi8"], "--gate"),
        (["--theta", "1.0"], "--theta"),
        (["--gamma", "0.5"], "--gamma"),
    ])
    def test_single_qubit_flag_with_theta_tilde_exits_2(self, flags, flag, capsys):
        assert run(["verify", "--theta-tilde", "0.3"] + flags) == 2
        captured = capsys.readouterr()
        assert f"--theta-tilde conflicts with {flag}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--theta-tilde", "0.5", "--m", "2", "--omega", "3"],
         "--theta-tilde conflicts with --m"),
        (["--theta-tilde", "0.5", "--m", "1"], "--theta-tilde conflicts with --m"),
        (["--theta-tilde", "0.5", "--omega", "1.0"], "--theta-tilde conflicts with --omega"),
        (["--gate", "pi8", "--m-tilde", "3"], "--m-tilde applies only with --theta-tilde"),
        (["--gate", "pi8", "--m-tilde", "1"], "--m-tilde applies only with --theta-tilde"),
        (["--theta", "1.0", "--gamma", "0.5", "--omega-tilde", "2"],
         "--omega-tilde applies only with --theta-tilde"),
    ])
    def test_flag_of_the_other_loop_exits_2(self, flags, message, capsys):
        assert run(["verify"] + flags) == 2
        captured = capsys.readouterr()
        assert f"holodfs verify: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, synth", [
        (["--gate", "hadamard", "--omega", "3000"], "synth-1q"),
        (["--theta-tilde", "0.6", "--omega-tilde", "3000"], "synth-2q"),
        (["--gate", "hadamard", "--omega", "8.9e307"], "synth-1q"),
        (["--theta", "0", "--gamma", "0.7853981634", "--omega", "8.9e307"], "synth-1q"),
        (["--theta-tilde", "0.6", "--omega-tilde", "8.9e307"], "synth-2q"),
    ])
    def test_dynamical_norm_is_judged_in_units_of_omega(self, flags, synth, capsys):
        # The norm is roundoff of order omega*eps: an energy, which the
        # synth-* reports keep and verify divides by the loop's scale.
        assert run(["verify"] + flags) == 0
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        assert run([synth] + flags + ["--mc-samples", "1000"] * (synth == "synth-2q")) == 0
        report = json.loads(capsys.readouterr().out)
        omega = float(flags[-1])
        for block in ("effective", "full"):
            entry = criteria[block]["max_dynamical_norm"]
            assert entry["value"] == report[block]["max_dynamical_norm"] / omega
            assert entry["pass"] is True and entry["tolerance"] == 1e-12

    @pytest.mark.parametrize("explicit, implicit", [
        (["--gate", "pi8", "--m", "1", "--omega", "1.0"], ["--gate", "pi8"]),
        (["--theta-tilde", "0.6", "--m-tilde", "1", "--omega-tilde", "1.0"],
         ["--theta-tilde", "0.6"]),
    ])
    def test_unset_winding_and_scale_default_to_one(self, explicit, implicit, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify"] + explicit + ["--out", str(a)]) == 0
        assert run(["verify"] + implicit + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


_1Q_FLAGS = {"gate": ["--gate", "pi8"], "theta": ["--theta", "0.3"],
             "gamma": ["--gamma", "1.0"], "m": ["--m", "3"], "omega": ["--omega", "2"]}
_2Q_FLAGS = {"theta_tilde": ["--theta-tilde", "0.6"], "m_tilde": ["--m-tilde", "3"],
             "omega_tilde": ["--omega-tilde", "2"]}


def _selects_one_loop(given: set) -> bool:
    # The target grammar, restated: --theta-tilde with no single-qubit flag,
    # or --gate alone or --theta with --gamma, and no two-qubit flag.
    if "theta_tilde" in given:
        return not given & set(_1Q_FLAGS)
    return not given & set(_2Q_FLAGS) and given & {"gate", "theta", "gamma"} in (
        {"gate"}, {"theta", "gamma"})


class TestTargetFlagGrammar:
    @pytest.mark.parametrize("command, flags", [
        ("verify", {**_1Q_FLAGS, **_2Q_FLAGS}),
        ("synth-1q", _1Q_FLAGS),
    ])
    def test_every_flag_subset(self, command, flags, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        for size in range(len(flags) + 1):
            for subset in itertools.combinations(flags, size):
                argv = [command, *(word for name in subset for word in flags[name])]
                code = run(argv + ["--out", out])
                err = capsys.readouterr().err
                if _selects_one_loop(set(subset)):
                    assert (code, err) == (0, ""), argv
                else:
                    assert code == 2, argv
                    assert err.startswith(f"holodfs {command}: ") and err.count("\n") == 1, argv


def test_no_numpy_scalar_reaches_the_encoder(tmp_path, monkeypatch):
    # The JSON writer has branches for Python numbers and arrays only; a numpy
    # scalar in a report would be refused (np.bool_, np.int64) or written
    # through a float subclass (np.float64).
    matrix_path = tmp_path / "cnot.json"
    write_matrix(matrix_path, CNOT)
    seen = []
    write = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda payload: seen.append(payload) or write(payload))

    def leaves(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    for argv in (["synth-1q", "--theta", "0.8", "--gamma", "2.4", "--m", "2"],
                 ["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "1000"],
                 ["verify", "--gate", "hadamard"],
                 ["classify", str(matrix_path), "--samples", "1000"]):
        before = len(seen)
        assert run(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert len(seen) == before + 1
    values = [leaf for payload in seen for leaf in leaves(payload)]
    assert len(values) > 100
    assert [type(v) for v in values if isinstance(v, np.generic)] == []


class TestClassify:
    def test_cnot_file(self, tmp_path):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        out = tmp_path / "c.json"
        assert (
            run(["classify", str(matrix_path), "--samples", "5000", "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        assert np.allclose(report["weyl"], [math.pi / 2, 0, 0], atol=1e-9)
        assert abs(complex(*report["g1"])) < 1e-9
        assert report["g2"] == pytest.approx(1.0, abs=1e-9)
        assert report["cnot_equivalent"] is True

    def test_identity_file(self, tmp_path):
        matrix_path = tmp_path / "id.json"
        write_matrix(matrix_path, np.eye(4))
        out = tmp_path / "c.json"
        run(["classify", str(matrix_path), "--samples", "5000", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["ep"] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report["weyl"], [0, 0, 0], atol=1e-9)

    def test_non_unitary_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.json"
        write_matrix(matrix_path, 0.5 * np.eye(4))
        assert run(["classify", str(matrix_path)]) == 2
        assert "defect" in capsys.readouterr().err

    def test_malformed_file_exits_5(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["classify", str(bad)]) == 5
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps([[1, 2], [3, 4]]))
        assert run(["classify", str(shape)]) == 5

    @pytest.mark.parametrize("entry", ['"10"', '["1", "0"]', "[true, false]"],
                             ids=["string-pair", "numeric-strings", "booleans"])
    def test_entry_that_is_not_a_pair_of_numbers_exits_5(self, tmp_path, capsys, entry):
        # Each of these unpacks into two values that float() accepts, so the
        # identity with it as its first entry would classify and exit 0.
        identity = [[[int(i == j), 0] for j in range(4)] for i in range(4)]
        rows = json.dumps(identity).replace("[1, 0]", entry, 1)
        path = tmp_path / "m.json"
        path.write_text(rows)
        out = tmp_path / "c.json"
        assert run(["classify", str(path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "is not a 4x4 array of [re, im] pairs: entry [0][0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_integer_beyond_float_range_exits_5(self, tmp_path, capsys, digits):
        # 10**400 overflows float(); 5001 digits exceed Python's default
        # limit on integer-string conversion inside json.load.
        rows = [[[0, 0]] * 4 for _ in range(4)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(rows).replace("0", "1" + "0" * (digits - 1), 1))
        assert run(["classify", str(path)]) == 5
        assert str(path) in capsys.readouterr().err

    def test_missing_file_exits_5(self, tmp_path):
        assert run(["classify", str(tmp_path / "absent.json")]) == 5

    def test_deterministic_output(self, tmp_path):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["classify", str(matrix_path), "--samples", "5000", "--out", str(a)])
        run(["classify", str(matrix_path), "--samples", "5000", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("excess, code", [(2.5e-10, 0), (1e-8, 2)])
    def test_input_unitarity_tolerance_decides(self, tmp_path, capsys, excess, code):
        # (1 + excess) * I has unitarity defect ~2 * excess: 5e-10 lies inside
        # the CLI's 1e-8 gate, 2e-8 outside it.
        matrix_path = tmp_path / "m.json"
        write_matrix(matrix_path, (1.0 + excess) * np.eye(4))
        out = tmp_path / "c.json"
        assert run(["classify", str(matrix_path), "--samples", "1000",
                    "--out", str(out)]) == code
        if code == 0:
            defect = json.loads(out.read_text())["unitarity_defect"]
            assert defect == pytest.approx(2 * excess, rel=1e-3)
        else:
            assert "exceeds 1e-08" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_cnot_tolerance_exits_2(self, tmp_path, capsys, tol):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        out = tmp_path / "c.json"
        assert run(["classify", str(matrix_path), "--cnot-tol", tol, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("holodfs classify: CNOT tolerance must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("bad, token", [(math.nan, "NaN"), (math.inf, "Infinity"),
                                            (-math.inf, "-Infinity")],
                             ids=["nan", "inf", "-inf"])
    def test_non_json_constant_exits_5(self, tmp_path, capsys, bad, token):
        # json.dumps writes these tokens, and json.load would read them back,
        # but they are not JSON numbers.
        matrix = CNOT.copy()
        matrix[1, 2] = bad
        matrix_path = tmp_path / "m.json"
        write_matrix(matrix_path, matrix)
        out = tmp_path / "c.json"
        assert run(["classify", str(matrix_path), "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"holodfs classify: matrix file {matrix_path} is not valid JSON: "
            f"{token} is not a JSON number\n")
        assert not out.exists()

    def test_number_beyond_float_range_exits_2(self, tmp_path, capsys):
        # 1e400 is a JSON number; it reads as inf, which the unitarity
        # check refuses as a non-finite entry.
        matrix_path = tmp_path / "m.json"
        write_matrix(matrix_path, CNOT)
        matrix_path.write_text(matrix_path.read_text().replace("0.0", "1e400", 1))
        assert run(["classify", str(matrix_path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_gram_product_exits_2(self, tmp_path, capsys):
        # Finite entries whose Gram product overflows: the unitarity defect
        # is NaN, which the guard refuses instead of reporting NaN numbers.
        matrix = np.eye(4, dtype=complex)
        matrix[3, 3] = 1e308 + 1e308j
        matrix_path = tmp_path / "m.json"
        write_matrix(matrix_path, matrix)
        out = tmp_path / "c.json"
        assert run(["classify", str(matrix_path), "--out", str(out)]) == 2
        assert "matrix is not unitary: defect nan" in capsys.readouterr().err
        assert not out.exists()

    def test_reports_never_hold_non_json_numbers(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_text({"ep": math.nan})


class TestInvariantsOnce:
    @pytest.mark.parametrize("argv", [
        ["classify", "MATRIX", "--samples", "1000"],
        ["synth-2q", "--theta-tilde", "0.7", "--mc-samples", "1000", "--samples", "2"],
    ])
    def test_local_invariants_run_once_per_command(self, argv, tmp_path, monkeypatch):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        calls = []
        # classify_gate checks the matrix and takes its determinant once and
        # hands both to the private function that computes the invariants.
        invariants = ent._local_invariants
        for module in (ent, cli):  # every binding
            if hasattr(module, "_local_invariants"):
                monkeypatch.setattr(module, "_local_invariants",
                                    lambda *a, **k: calls.append(1) or invariants(*a, **k))
        argv = [str(matrix_path) if a == "MATRIX" else a for a in argv]
        assert run(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("index", range(4))
    def test_classify_gate_matches_the_public_functions(self, index):
        rng = np.random.default_rng(40 + index)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.linalg.qr(z)[0]
        report = ent.classify_gate(u, ep_samples=1000)
        assert (report.g1, report.g2) == ent.local_invariants(u)
        assert report.weyl == ent.weyl_coordinates(u)
        assert report.unitarity_defect == unitarity_defect(u)


class TestMonteCarloCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "MATRIX", "--samples", "100000000000"],
            ["synth-2q", "--theta-tilde", "0.7", "--mc-samples", "100000000000"],
        ],
    )
    def test_oversized_sample_count_exits_2_without_allocating(
        self, tmp_path, capsys, argv
    ):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        argv = [str(matrix_path) if a == "MATRIX" else a for a in argv]
        tracemalloc.start()
        try:
            code = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "samples=100000000000" in err
        assert f"MAX_MC_SAMPLES={ent.MAX_MC_SAMPLES}" in err
        # The entropy vector alone would be 0.8 TB.
        assert peak < 1_000_000


    @pytest.mark.parametrize("argv", [
        ["classify", "MATRIX"],
        ["synth-2q", "--theta-tilde", "0.7"],
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        matrix_path = tmp_path / "cnot.json"
        write_matrix(matrix_path, CNOT)
        calls = []
        evolve = cli.evolve_and_project
        monkeypatch.setattr(cli, "evolve_and_project",
                            lambda *a, **k: calls.append(1) or evolve(*a, **k))
        argv = [str(matrix_path) if a == "MATRIX" else a for a in argv]
        assert run(argv + ["--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err == (f"holodfs {argv[0]}: Monte-Carlo seed must be a non-negative "
                       "integer, got -3\n")
        assert calls == []

    def test_synth_2q_checks_sample_count_before_synthesis(self, capsys, monkeypatch):
        calls = []
        evolve = cli.evolve_and_project
        monkeypatch.setattr(cli, "evolve_and_project",
                            lambda *a, **k: calls.append(1) or evolve(*a, **k))
        assert run(["synth-2q", "--theta-tilde", "0.7", "--mc-samples", "10"]) == 2
        assert "samples=10 is outside [1000" in capsys.readouterr().err
        assert calls == []
        assert run(["synth-2q", "--theta-tilde", "0.7", "--mc-samples", "1000",
                    "--samples", "2"]) == 0
        assert len(calls) == 2


@pytest.mark.parametrize("samples", [[], ["--samples", "5"]], ids=["default", "5"])
@pytest.mark.parametrize("argv, dims", [
    (["synth-1q", "--gate", "hadamard"], (3, 8)),
    (["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "1000"], (6, 16)),
    (["verify", "--gate", "pi8"], (3, 8)),
    (["verify", "--theta-tilde", "0.6"], (6, 16)),
], ids=["synth-1q", "synth-2q", "verify-1q", "verify-2q"])
def test_loop_commands_evolve_each_route_once(monkeypatch, capsys, argv, dims, samples):
    # The benchmark counts the time samples of every loop command: one evolution
    # in the excitation sector and one in full space, each at --samples.
    calls = []
    evolve = cli.evolve_and_project
    signature = inspect.signature(evolve)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["h"].shape, bound.arguments["samples"]))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve_and_project", spy)
    assert run(argv + samples) == 0
    capsys.readouterr()
    count = int(samples[1]) if samples else cli.TIME_SAMPLES
    assert sorted(calls) == [((dim, dim), count) for dim in dims]


@pytest.mark.parametrize("argv, params, couplings", [
    (["synth-1q", "--gate", "hadamard"],
     {"theta", "phi", "m", "omega", "gamma", "tau"}, {"j1a", "j2a", "b"}),
    (["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "1000"],
     {"theta_tilde", "m_tilde", "omega_tilde", "tau"}, {"j32", "j42"}),
], ids=["synth-1q", "synth-2q"])
def test_synth_params_keys(tmp_path, argv, params, couplings):
    # The params block is read off the loop's and its couplings' dataclass fields:
    # a field added there shows up here, and the DM strengths (*_z) must not.
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 0
    block = json.loads(out.read_text())["params"]
    assert set(block.pop("couplings")) == couplings
    assert set(block) == params


# 401 digits, odd so that it is also a valid two-qubit winding.
HUGE_WINDING = "1" + "0" * 399 + "1"


class TestWindingOverflow:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["synth-1q", "--gate", "hadamard", "--m", HUGE_WINDING], "m"),
            (["verify", "--gate", "hadamard", "--m", HUGE_WINDING], "m"),
            (["sweep", "--gate", "hadamard", "--steps", "2", "--m", HUGE_WINDING], "m"),
            (["synth-2q", "--theta-tilde", "0.7", "--m-tilde", HUGE_WINDING],
             "m_tilde"),
        ],
    )
    def test_winding_too_large_for_a_float_exits_2(self, argv, name, capsys):
        assert run(argv) == 2
        assert f"winding {name} with 401 digits is too large" in capsys.readouterr().err


class TestSweep:
    def test_grid_cardinality(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            [
                "sweep", "--gate", "hadamard", "--min", "1", "--max", "100",
                "--steps", "5", "--log", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio1,ratio2,fidelity,leakage"
        assert len(lines) == 1 + 25

    def test_two_qubit_leakage_column(self, tmp_path):
        out = tmp_path / "s.csv"
        run(
            [
                "sweep", "--gate", "two-qubit", "--theta-tilde", "0.785",
                "--steps", "2", "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-12

    def test_single_step_exits_2(self):
        assert run(["sweep", "--gate", "hadamard", "--steps", "1"]) == 2

    @pytest.mark.parametrize("flags, name", [
        (["--gate", "hadamard", "--theta", "1.0"], "theta"),
        (["--gate", "pi8", "--gamma", "1.0"], "gamma"),
        (["--gate", "two-qubit", "--theta-tilde", "0.3", "--theta", "1.0"], "theta"),
        (["--gate", "pi8", "--theta-tilde", "0.3"], "theta_tilde"),
        (["--gate", "custom", "--theta", "1.0", "--gamma", "1.0",
          "--theta-tilde", "0.3"], "theta_tilde"),
    ])
    def test_flag_of_another_target_exits_2(self, flags, name, capsys):
        assert run(["sweep", "--steps", "2"] + flags) == 2
        captured = capsys.readouterr()
        assert f"holodfs sweep: {name} applies only to the" in captured.err
        assert captured.out == ""

    def test_unwritable_path_exits_4(self, capsys):
        code = run(
            [
                "sweep", "--gate", "hadamard", "--steps", "2",
                "--out", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "holodfs sweep: cannot write output file /nonexistent-dir/x.csv: "
            "[Errno 2] No such file or directory: '/nonexistent-dir/x.csv'\n")
        assert captured.out == ""

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--gate", "pi8", "--min", "2", "--max", "20", "--steps", "3"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_significant_digit_cap(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["sweep", "--gate", "hadamard", "--steps", "2", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            for field in line.split(","):
                digits = field.split("e")[0].replace("-", "").replace(".", "")
                significant = digits.lstrip("0")
                assert len(significant) <= 12


def _reference_csv(table):
    # The row-by-row f-string writer that _sweep_csv replaced.
    lines = ["ratio1,ratio2,fidelity,leakage"]
    for i, r1 in enumerate(table.axis):
        for j, r2 in enumerate(table.axis):
            lines.append(
                f"{r1:.12g},{r2:.12g},{table.fidelity[i, j]:.12g},"
                f"{table.leakage[i, j]:.12g}"
            )
    return "\n".join(lines) + "\n"


def _one_pass_csv(table):
    # The one-pass writer that formatted every ratio at every grid point,
    # which _sweep_csv replaced.
    n = len(table.axis)
    columns = np.column_stack([
        np.repeat(table.axis, n),
        np.tile(table.axis, n),
        table.fidelity.ravel(),
        table.leakage.ravel(),
    ])
    rows = "%.12g,%.12g,%.12g,%.12g\n" * len(columns) % tuple(columns.ravel().tolist())
    return "ratio1,ratio2,fidelity,leakage\n" + rows


_ratios = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_fidelities = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0),
)
_leakages = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 5))
    axis = np.array(draw(st.lists(_ratios, min_size=n, max_size=n)))
    fidelity = np.array(draw(st.lists(_fidelities, min_size=n * n, max_size=n * n)))
    leakage = np.array(draw(st.lists(_leakages, min_size=n * n, max_size=n * n)))
    return SweepTable(axis=axis, fidelity=fidelity.reshape(n, n),
                      leakage=leakage.reshape(n, n))


class TestSweepCsv:
    @settings(deadline=None, max_examples=200)
    @given(table=_tables())
    def test_matches_row_by_row_writer(self, table):
        assert cli._sweep_csv(table) == _reference_csv(table)

    @settings(deadline=None, max_examples=200)
    @given(table=_tables())
    def test_matches_one_pass_writer(self, table):
        assert cli._sweep_csv(table) == _one_pass_csv(table)

    def test_matches_one_pass_writer_on_the_readme_grid(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--gate", "hadamard", "--min", "1", "--max", "100",
                "--steps", "50", "--log"]
        assert run(argv + ["--out", str(out)]) == 0
        spec = SweepSpec(loop_target(gate="hadamard"), ratio_min=1.0, ratio_max=100.0,
                         steps_per_axis=50)
        assert out.read_text() == _one_pass_csv(run_sweep(spec))

    def test_matches_row_by_row_writer_on_a_real_sweep(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--gate", "two-qubit", "--theta-tilde", "0.6", "--steps", "7"]
        assert run(argv + ["--out", str(out)]) == 0
        spec = SweepSpec(loop_target(gate="two_qubit", theta_tilde=0.6), steps_per_axis=7)
        assert out.read_text() == _reference_csv(run_sweep(spec))


class TestSweepBoundary:
    # The loop refuses a non-finite angle as out of its range, in sweep with
    # the message that synth-1q and verify print for the same value.
    _SAME_REFUSAL = {
        "theta": ["synth-1q", "--theta", "inf", "--gamma", "1.0"],
        "theta_tilde": ["verify", "--theta-tilde", "nan"],
    }

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--omega", "inf"], "omega"),
            (["--omega=-inf"], "omega"),
            (["--max", "inf"], "ratio_max"),
            (["--min", "nan"], "ratio_min"),
            (["--gate", "custom", "--theta", "1.0", "--gamma", "nan"], "gamma"),
            (["--gate", "custom", "--theta", "inf", "--gamma", "1.0"], "theta"),
            (["--gate", "two-qubit", "--theta-tilde", "nan"], "theta_tilde"),
            # Whole command lines: the gate parameters refuse them outside sweeps.
            (["synth-1q", "--gate", "hadamard", "--omega", "inf"], "omega"),
            (["verify", "--gate", "pi8", "--omega", "nan"], "omega"),
            (["synth-1q", "--theta", "1", "--gamma", "nan"], "gamma"),
            (["synth-1q", "--theta", "1", "--gamma", "inf"], "gamma"),
            (["synth-2q", "--theta-tilde", "0.7", "--omega-tilde", "inf"], "omega_tilde"),
            (["verify", "--theta-tilde", "0.7", "--omega-tilde", "nan"], "omega_tilde"),
        ],
    )
    def test_non_finite_value_exits_2(self, flags, field, capsys):
        argv = flags if not flags[0].startswith("--") else (
            ["sweep", "--gate", "hadamard", "--steps", "2"] + flags)
        assert run(argv) == 2
        err = capsys.readouterr().err
        twin = self._SAME_REFUSAL.get(field)
        if twin is None:
            assert f"{field} must be finite" in err
        else:
            assert run(twin) == 2
            refusal = capsys.readouterr().err.removeprefix(f"holodfs {twin[0]}: ")
            assert refusal.startswith(f"{field} must lie in ")
            assert err.removeprefix("holodfs sweep: ") == refusal

    def test_log_axis_overflow_exits_2(self, capsys):
        # log10 of the largest float, raised to the power again, rounds past it.
        argv = ["sweep", "--gate", "hadamard", "--steps", "3", "--max", "1.7976931348623157e308"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("holodfs sweep: ratio_max = 1.79769e+308 overflows the "
                                "logarithmic ratio axis; lower it or use a linear one\n")
        assert captured.out == ""
        assert run(argv + ["--linear"]) == 0

    def test_roundoff_phase_exits_2(self, capsys):
        assert run(["sweep", "--gate", "hadamard", "--min", "1e-300", "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "|E|*tau" in err and "ratio1 = 1e-300" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--gate", "hadamard", "--m", "1000000000000000"],
        ["synth-1q", "--theta", "1", "--gamma", "3", "--m", "100000000000000000"],
        ["synth-2q", "--theta-tilde", "0.3", "--m-tilde", "1000000000000001"],
    ])
    def test_roundoff_phase_exits_2_outside_sweeps(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "|E|*tau" in captured.err and "lower the winding" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, name", [
        (["synth-1q", "--gate", "hadamard", "--omega", "1e-320"], "omega"),
        (["verify", "--theta-tilde", "0.6", "--omega-tilde", "1e-310"], "omega_tilde"),
        (["sweep", "--gate", "hadamard", "--omega", "1e-320"], "omega"),
    ])
    def test_overflowing_loop_duration_exits_2_naming_the_scale(self, argv, name, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "loop duration tau" in captured.err and f" {name}=" in captured.err
        assert captured.out == ""

    def test_oversized_time_sample_count_exits_2_without_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = run(["synth-1q", "--gate", "hadamard", "--samples", "1000000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "samples=1000000000000" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_oversized_grid_exits_2_without_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = run(["sweep", "--gate", "hadamard", "--steps", "1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "steps_per_axis=1000000" in capsys.readouterr().err
        # One ratio axis of 10^6 float64 values alone would be 8 MB.
        assert peak < 1_000_000


class TestScaleOverflow:
    # Under filterwarnings = ["error"], a numpy overflow warning escapes main.
    @pytest.mark.parametrize("argv, name", [
        (["verify", "--theta", "0", "--gamma", "0.7853981634",
          "--omega", "1.7976931348623157e308"], "omega=1.79769e+308"),
        (["verify", "--theta-tilde", "0.6", "--omega-tilde", "1.7976931348623157e308"],
         "omega_tilde=1.79769e+308"),
        (["sweep", "--gate", "hadamard", "--omega", "1.7976931348623157e308", "--steps", "2"],
         "omega=1.79769e+308"),
        (["sweep", "--gate", "hadamard", "--omega", "8e307", "--min", "0.5", "--max", "1",
          "--steps", "2"], "DM strength"),
    ])
    def test_overflowing_energy_scale_exits_2_naming_it(self, argv, name, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"holodfs {argv[0]}: {name}")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestToleranceBreach:
    @pytest.mark.parametrize("argv", [
        ["synth-1q", "--gate", "hadamard"],
        ["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "1000"],
    ], ids=lambda argv: argv[0])
    def test_synth_exit_3_when_threshold_tightened(self, tmp_path, monkeypatch, capsys,
                                                    argv):
        # No physical input breaches the default 1e-8 bound (synthesis is
        # exact to roundoff), so tighten the threshold below the floating
        # floor to exercise the breach path.
        monkeypatch.setitem(cli.TOLERANCES, "analytic_distance", 1e-40)
        out = tmp_path / "h.json"
        assert run(argv + ["--out", str(out)]) == 3
        # The report is still emitted before the breach is signalled, and the
        # breach names the worse of the two routes.
        report = json.loads(out.read_text())
        worst = max(report[route]["analytic_distance"] for route in ("effective", "full"))
        assert worst > 0.0
        assert capsys.readouterr().err == (
            f"holodfs {argv[0]}: analytic distance {worst:.3e} exceeds tolerance 1e-40\n")

    def test_verify_exit_3_when_threshold_tightened(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.TOLERANCES, "cyclicity_residual", 1e-40)
        out = tmp_path / "v.json"
        assert run(["verify", "--gate", "hadamard", "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["pass"] is False


class TestOutputDirEnv:
    def test_relative_path_joins_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert run(["synth-1q", "--gate", "pi8", "--out", "report.json"]) == 0
        assert (tmp_path / "report.json").exists()

    def test_absolute_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        assert run(["synth-1q", "--gate", "pi8", "--out", str(target)]) == 0
        assert target.exists()

    def test_empty_env_dir_leaves_the_path_as_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "")
        monkeypatch.chdir(tmp_path)
        assert run(["synth-1q", "--gate", "pi8", "--out", "report.json"]) == 0
        assert (tmp_path / "report.json").exists()


class TestOutFile:
    ARGV = ["sweep", "--gate", "hadamard", "--steps", "2"]

    def test_writes_the_bytes_of_stdout(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(self.ARGV) == 0
        printed = capsys.readouterr().out
        assert run(self.ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode()

    def test_truncates_a_longer_file(self, tmp_path):
        out = tmp_path / "s.csv"
        out.write_bytes(b"x" * 100_000)
        assert run(self.ARGV + ["--out", str(out)]) == 0
        assert out.read_text().startswith("ratio1,ratio2,fidelity,leakage\n")
        assert out.stat().st_size < 1000 and b"x" not in out.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_file_mode_is_that_of_open(self, umask, tmp_path):
        # 0o666 minus the umask, as open(path, "w") creates a file.
        out, reference = tmp_path / "s.csv", tmp_path / "reference"
        previous = os.umask(umask)
        try:
            assert run(self.ARGV + ["--out", str(out)]) == 0
            open(reference, "w").close()
        finally:
            os.umask(previous)
        mode = stat.S_IMODE(out.stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE(reference.stat().st_mode)

    def test_relative_path_joins_env_dir_in_the_refusal(self, tmp_path, monkeypatch, capsys):
        base = tmp_path / "missing"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(base))
        assert run(self.ARGV + ["--out", "sub/x.csv"]) == 4
        path = os.path.join(str(base), "sub/x.csv")
        assert capsys.readouterr().err == (
            f"holodfs sweep: cannot write output file {path}: "
            f"[Errno 2] No such file or directory: {path!r}\n")


class TestStdoutFailure:
    # A short report fails on the flush, a 50x50 CSV already in a write.
    @pytest.mark.parametrize("argv", [["verify", "--gate", "pi8"],
                                      ["sweep", "--gate", "hadamard", "--steps", "50"]])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device_exits_4_with_one_line(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "holodfs.cli", *argv], env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert done.returncode == 4
        assert done.stderr == (f"holodfs {argv[0]}: cannot write standard output: "
                               f"[Errno 28] No space left on device\n")


class TestParserContract:
    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_bad_flag_value_exits_2(self):
        assert run(["synth-1q", "--theta", "abc", "--gamma", "1.0"]) == 2


class TestParserReuse:
    # main() reuses one parser per process; no call may see another's values.

    def test_flag_values_do_not_leak_between_calls(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["synth-2q", "--theta-tilde", "0.6", "--mc-samples", "5000",
                    "--seed", "3", "--out", str(a)]) == 0
        assert run(["synth-2q", "--theta-tilde", "0.6", "--out", str(b)]) == 0
        entanglement = json.loads(b.read_text())["entanglement"]
        assert entanglement["mc_samples"] == 100_000
        assert entanglement["seed"] == 0

    def test_linear_flag_does_not_leak_into_the_next_sweep(self, tmp_path):
        linear, default = tmp_path / "lin.csv", tmp_path / "log.csv"
        base = ["sweep", "--gate", "pi8", "--min", "1", "--max", "100", "--steps", "3"]
        assert run(base + ["--linear", "--out", str(linear)]) == 0
        assert run(base + ["--out", str(default)]) == 0
        axis = [line.split(",")[0] for line in default.read_text().splitlines()[1::3]]
        assert axis == ["1", "10", "100"]
        axis = [line.split(",")[0] for line in linear.read_text().splitlines()[1::3]]
        assert axis == ["1", "50.5", "100"]

    def test_argparse_error_after_a_successful_call(self, tmp_path, capsys):
        assert run(["sweep", "--gate", "bogus"]) == 2
        first = capsys.readouterr()
        assert run(["sweep", "--gate", "pi8", "--steps", "2",
                    "--out", str(tmp_path / "s.csv")]) == 0
        capsys.readouterr()
        assert run(["sweep", "--gate", "bogus"]) == 2
        second = capsys.readouterr()
        assert second == first
        # One line, as every refusal of main is.
        assert second.err.startswith("holodfs sweep: argument --gate: invalid choice: 'bogus'")
        assert second.err.count("\n") == 1 and second.err.endswith("\n")

    def test_build_parser_returns_a_distinct_parser_each_call(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        calls = []
        original = first.parse_args

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        first.parse_args = recording
        first.parse_args(["sweep", "--gate", "pi8"])
        assert len(calls) == 1
        third = cli.build_parser()
        assert "parse_args" not in vars(third)
        assert third.parse_args(["sweep", "--gate", "pi8"]).gate == "pi8"
        assert len(calls) == 1
