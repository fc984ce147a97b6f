"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Timing-sensitive criteria measure wall-clock time and assert
their budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from holodfs import cli
from holodfs import entanglement as ent
from holodfs import holonomy as ho
from holodfs import linalg
from holodfs import noise
from holodfs import spin_model as sm


def report_pass(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_single_qubit_gate_formula():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, math.pi)
        m = int(rng.integers(1, 4))
        g = ho.GateParams1Q(theta=theta, phi=phi, m=m)
        report = ho.evolve_and_project(
            sm.build_h1(g.couplings()),
            sm.logical_frame_1q(),
            g.tau,
            samples=2,
            ideal=ho.analytic_gate_1q(theta, g.gamma),
        )
        worst = max(worst, report.analytic_distance)
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, f"worst phase-invariant distance {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report_pass(1, "single-qubit gate formula (50 random loops)")


def test_02_effective_hamiltonians():
    p1 = sm.CouplingParams1Q(j1a=0.37, j2a=-0.81, b=0.26)
    effective, residual = sm.restrict(sm.build_h1(p1), sm.dfs3_frame())
    printed = np.array(
        [[0, 0, p1.j2a], [0, 0, p1.j1a], [p1.j2a, p1.j1a, 2 * p1.b]], dtype=complex
    )
    assert np.max(np.abs(effective - printed)) <= 1e-13
    assert residual <= 1e-13

    p2 = sm.CouplingParams2Q(j32=0.58, j42=0.91)
    effective2, residual2 = sm.restrict(sm.build_h2(p2), sm.dfs6_frame())
    lam = np.array(
        [[0, 0, p2.j32], [0, 0, p2.j42], [p2.j32, p2.j42, 0]], dtype=complex
    )
    printed2 = np.kron(lam, np.eye(2))
    assert np.max(np.abs(effective2 - printed2)) <= 1e-13
    assert residual2 <= 1e-13
    report_pass(2, "effective lambda and double-lambda Hamiltonians")


def test_03_parallel_transport():
    rng = np.random.default_rng(77)
    for _ in range(10):
        g = ho.GateParams1Q(
            theta=rng.uniform(0, math.pi), phi=rng.uniform(0, math.pi),
            m=int(rng.integers(1, 4)),
        )
        report = ho.evolve_and_project(
            sm.build_h1(g.couplings()), sm.logical_frame_1q(), g.tau, samples=101
        )
        assert report.max_dynamical_norm <= 1e-12
        g2 = ho.GateParams2Q(theta_tilde=rng.uniform(0.05, math.pi / 2 - 0.05))
        report2 = ho.evolve_and_project(
            sm.build_h2(g2.couplings()), sm.logical_frame_2q(), g2.tau, samples=101
        )
        assert report2.max_dynamical_norm <= 1e-12
    report_pass(3, "zero dynamical contribution at 101 sampled times")


def test_04_two_qubit_gate():
    rng = np.random.default_rng(88)
    for m_tilde in (1, 3):
        for _ in range(10):
            tt = rng.uniform(0.05, math.pi / 2 - 0.05)
            g = ho.GateParams2Q(theta_tilde=tt, m_tilde=m_tilde)
            report = ho.evolve_and_project(
                sm.build_h2(g.couplings()), sm.logical_frame_2q(), g.tau, samples=2
            )
            assert np.max(np.abs(report.holonomy - ho.analytic_gate_2q(tt))) <= 1e-9
    # Even windings close the loop trivially.
    for m_even in (2, 4):
        p = sm.CouplingParams2Q(j32=math.sin(0.35), j42=math.cos(0.35))
        tau = m_even * math.pi / p.omega
        report = ho.evolve_and_project(
            sm.build_h2(p), sm.logical_frame_2q(), tau, samples=2
        )
        assert np.max(np.abs(report.holonomy - np.eye(4))) <= 1e-9
    report_pass(4, "two-qubit conditional gate, odd and even windings")


def test_05_local_invariants():
    for tt in np.linspace(0.01, math.pi / 2 - 0.01, 20):
        g1, g2 = ent.local_invariants(ho.analytic_gate_2q(tt))
        assert abs(g1 - math.cos(2 * tt) ** 2) <= 1e-9
        assert abs(g2 - (math.cos(4 * tt) + 2)) <= 1e-9
    report_pass(5, "Makhlin invariants across the gate family")


def test_06_weyl_coordinates():
    for tt in np.linspace(0.01, math.pi / 2 - 0.01, 20):
        c = ent.weyl_coordinates(ho.analytic_gate_2q(tt))
        assert abs(c[0] - 2 * tt) <= 1e-8
        assert abs(c[1]) <= 1e-8
        assert abs(c[2]) <= 1e-8
    assert ent.is_cnot_class(ho.analytic_gate_2q(math.pi / 4))
    report_pass(6, "canonical Weyl point tracks the base edge; L at pi/4")


def test_07_entangling_power():
    start = time.monotonic()
    assert ent.entangling_power_analytic(math.pi / 4) == pytest.approx(
        2 / 9, abs=1e-12
    )
    for i, tt in enumerate(np.linspace(0.1, math.pi / 2 - 0.1, 9)):
        estimate, stderr = ent.entangling_power_mc(
            ho.analytic_gate_2q(tt), 100_000, seed=1000 + i
        )
        target = ent.entangling_power_analytic(tt)
        assert abs(estimate - target) <= 3 * stderr, (
            f"theta_tilde={tt:.3f}: {estimate:.5f} vs {target:.5f} "
            f"(3 sigma = {3 * stderr:.5f})"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report_pass(7, "entangling power: closed form vs Monte-Carlo oracle")


def test_08_noise_robustness():
    hadamard = ho.params_for_rotation(*noise.GATE_PRESETS["hadamard"])
    pi8 = ho.params_for_rotation(*noise.GATE_PRESETS["pi8"])
    two_qubit = ho.GateParams2Q(theta_tilde=math.pi / 4)

    # (a) exact fidelity without noise.
    assert 1 - noise.perturbed_gate_1q(hadamard, math.inf, math.inf).fidelity <= 1e-10
    assert 1 - noise.perturbed_gate_1q(pi8, math.inf, math.inf).fidelity <= 1e-10
    assert 1 - noise.perturbed_gate_2q(two_qubit, math.inf, math.inf).fidelity <= 1e-10

    # (b) sector confinement at strong and weak noise.
    for ratio in (1.0, 3.0, 10.0, 100.0):
        assert noise.perturbed_gate_1q(hadamard, ratio, ratio,
                                       samples=2).sector_leakage <= 1e-12
        assert noise.perturbed_gate_2q(two_qubit, ratio, ratio,
                                       samples=2).sector_leakage <= 1e-12

    # (c) quadratic suppression of the fidelity deficit along the diagonal.
    ratios = np.geomspace(20.0, 200.0, 7)
    for label, evaluate in (
        ("hadamard", lambda r: noise.perturbed_gate_1q(hadamard, r, r, samples=2)),
        ("pi8", lambda r: noise.perturbed_gate_1q(pi8, r, r, samples=2)),
        ("two-qubit", lambda r: noise.perturbed_gate_2q(two_qubit, r, r, samples=2)),
    ):
        deficits = np.array([1 - evaluate(r).fidelity for r in ratios])
        slope = np.polyfit(np.log(ratios), np.log(deficits), 1)[0]
        assert abs(slope + 2.0) <= 0.3, f"{label}: log-log slope {slope:.3f}"

    # (d) full-resolution sweep: timing budget and corner ordering.
    start = time.monotonic()
    table = noise.run_sweep(
        noise.SweepSpec(ho.loop_target(gate="hadamard"), ratio_min=1.0, ratio_max=100.0,
                        steps_per_axis=50)
    )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    corners = [
        table.fidelity[0, 0], table.fidelity[0, -1],
        table.fidelity[-1, 0], table.fidelity[-1, -1],
    ]
    assert table.fidelity[-1, -1] == max(corners)
    report_pass(8, "DM robustness: exactness, confinement, scaling, sweep")


def test_09_wilson_line_cross_check():
    g = ho.params_for_rotation(*noise.GATE_PRESETS["hadamard"])
    h, _ = sm.restrict(sm.build_h1(g.couplings()), sm.dfs3_frame())
    frame = sm.logical_frame_1q(effective=True)
    target = ho.evolve_and_project(h, frame, g.tau).holonomy
    errors = {
        steps: np.linalg.norm(ho.discretized_holonomy(h, frame, g.tau, steps) - target)
        for steps in (10_000, 20_000)
    }
    ratio = errors[10_000] / errors[20_000]
    assert abs(ratio - 2.0) <= 0.2, f"error ratio {ratio:.3f}"
    report_pass(9, "Wilson-line holonomy converges first order")


def test_10_cli_determinism(tmp_path):
    matrix_path = tmp_path / "cnot.json"
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    matrix_path.write_text(
        json.dumps([[[float(v), 0.0] for v in row] for row in cnot])
    )
    invocations = {
        "synth-1q": ["synth-1q", "--gate", "hadamard"],
        "synth-2q": ["synth-2q", "--theta-tilde", "0.785", "--mc-samples", "5000"],
        "verify": ["verify", "--gate", "pi8"],
        "classify": ["classify", str(matrix_path), "--samples", "5000"],
        "sweep": ["sweep", "--gate", "hadamard", "--min", "1", "--max", "50",
                  "--steps", "4"],
    }
    for name, argv in invocations.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    report_pass(10, "byte-identical CLI reruns for every command")
