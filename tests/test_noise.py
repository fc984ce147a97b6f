import math

import numpy as np
import pytest

from holodfs import noise
from holodfs.holonomy import GateParams2Q, params_for_rotation

HADAMARD_PARAMS = params_for_rotation(*noise.GATE_PRESETS["hadamard"])
PI8_PARAMS = params_for_rotation(*noise.GATE_PRESETS["pi8"])


class TestGateFidelity:
    def test_exact_match(self):
        u = np.diag([1.0, 1j]).astype(complex)
        assert noise.gate_fidelity(u, u) == pytest.approx(1.0)

    def test_global_phase_immunity(self):
        u = np.diag([1.0, 1j]).astype(complex)
        assert noise.gate_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0)

    def test_leaky_block(self):
        # Fully decayed second column: (|tr|^2 + tr(U^dag U)) / 6 = 2/6.
        actual = np.diag([1.0, 0.0]).astype(complex)
        assert noise.gate_fidelity(np.eye(2), actual) == pytest.approx(1 / 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            noise.gate_fidelity(np.eye(2), np.eye(4))

    def test_rejects_amplifying_block(self):
        with pytest.raises(ValueError, match="norm"):
            noise.gate_fidelity(np.eye(2), 1.5 * np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_block(self, bad):
        blocks = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        blocks[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            noise.gate_fidelity(np.eye(2), blocks)


class TestPerturbedGate1Q:
    def test_unperturbed_limit(self):
        report = noise.perturbed_gate_1q(HADAMARD_PARAMS, math.inf, math.inf)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.analytic_distance < 1e-10
        assert report.sector_leakage < 1e-12

    def test_fidelity_improves_with_ratio(self):
        f10 = noise.perturbed_gate_1q(HADAMARD_PARAMS, 10, 10).fidelity
        f100 = noise.perturbed_gate_1q(HADAMARD_PARAMS, 100, 100).fidelity
        assert f10 < f100 < 1.0

    def test_sector_confinement_at_strong_noise(self):
        for ratio in (1.0, 2.5, 7.0):
            report = noise.perturbed_gate_1q(HADAMARD_PARAMS, ratio, ratio)
            assert report.sector_leakage < 1e-12

    def test_logical_leakage_appears_under_noise(self):
        report = noise.perturbed_gate_1q(HADAMARD_PARAMS, 8, 8)
        assert report.leakage > 1e-8

    def test_parallel_transport_survives_dm(self):
        # The DM term only couples logical states to the ancilla-like level,
        # so the logical Hamiltonian block stays zero.
        report = noise.perturbed_gate_1q(HADAMARD_PARAMS, 5, 7, samples=11)
        assert report.max_dynamical_norm < 1e-12

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            noise.perturbed_gate_1q(HADAMARD_PARAMS, -1.0, 10.0)


class TestPerturbedGate2Q:
    def test_unperturbed_limit(self):
        g = GateParams2Q(theta_tilde=math.pi / 4)
        report = noise.perturbed_gate_2q(g, math.inf, math.inf)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_weak_noise_plateau(self):
        g = GateParams2Q(theta_tilde=math.pi / 4)
        report = noise.perturbed_gate_2q(g, 100, 100)
        assert report.fidelity >= 0.99

    def test_sector_confinement(self):
        g = GateParams2Q(theta_tilde=math.pi / 4)
        for ratio in (1.0, 4.0, 30.0):
            report = noise.perturbed_gate_2q(g, ratio, ratio)
            assert report.sector_leakage < 1e-12


class TestScaling:
    def test_quadratic_fidelity_deficit(self):
        ratios = np.geomspace(20, 200, 6)
        deficits = [
            1 - noise.perturbed_gate_1q(HADAMARD_PARAMS, r, r, samples=2).fidelity
            for r in ratios
        ]
        slope = np.polyfit(np.log(ratios), np.log(deficits), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_fidelity_continuity_in_ratio(self):
        for r in (5.0, 20.0, 80.0):
            f_a = noise.perturbed_gate_1q(HADAMARD_PARAMS, r, r, samples=2).fidelity
            f_b = noise.perturbed_gate_1q(
                HADAMARD_PARAMS, 1.01 * r, 1.01 * r, samples=2
            ).fidelity
            assert abs(f_a - f_b) < 0.05


class TestSweepSpec:
    def test_requires_two_steps(self):
        with pytest.raises(ValueError, match="steps_per_axis"):
            noise.SweepSpec(gate_target="hadamard", steps_per_axis=1)

    def test_requires_positive_ratios(self):
        with pytest.raises(ValueError, match="ratio_min"):
            noise.SweepSpec(gate_target="hadamard", ratio_min=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            noise.SweepSpec(gate_target="hadamard", ratio_min=10.0, ratio_max=1.0)

    def test_requires_target_parameters(self):
        with pytest.raises(ValueError, match="theta"):
            noise.SweepSpec(gate_target="custom")
        with pytest.raises(ValueError, match="theta_tilde"):
            noise.SweepSpec(gate_target="two_qubit")
        with pytest.raises(ValueError, match="unknown"):
            noise.SweepSpec(gate_target="cz")

    @pytest.mark.parametrize("target, extra, name", [
        ("hadamard", {"theta": 1.0}, "theta"),
        ("pi8", {"gamma": 1.0}, "gamma"),
        ("two_qubit", {"theta_tilde": 0.3, "gamma": 1.0}, "gamma"),
        ("pi8", {"theta_tilde": 0.3}, "theta_tilde"),
        ("custom", {"theta": 1.0, "gamma": 1.0, "theta_tilde": 0.3}, "theta_tilde"),
    ])
    def test_rejects_parameters_of_another_target(self, target, extra, name):
        with pytest.raises(ValueError, match=f"^{name} applies only to"):
            noise.SweepSpec(gate_target=target, **extra)


class TestRunSweep:
    def test_hadamard_corner_monotonicity(self):
        spec = noise.SweepSpec(
            gate_target="hadamard", ratio_min=10, ratio_max=100, steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert table.fidelity.shape == (2, 2)
        corners = table.fidelity
        assert corners[1, 1] == corners.max()

    def test_pi8_fidelities_in_unit_interval(self):
        spec = noise.SweepSpec(
            gate_target="pi8", ratio_min=10, ratio_max=100, steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert np.all(table.fidelity > 0.0)
        assert np.all(table.fidelity <= 1.0)

    def test_two_qubit_sector_leakage_vanishes(self):
        spec = noise.SweepSpec(
            gate_target="two_qubit", theta_tilde=math.pi / 4, steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert np.all(table.leakage <= 1e-12)

    def test_deterministic(self):
        spec = noise.SweepSpec(
            gate_target="hadamard", ratio_min=5, ratio_max=50, steps_per_axis=3
        )
        first = noise.run_sweep(spec)
        second = noise.run_sweep(spec)
        assert np.array_equal(first.fidelity, second.fidelity)
        assert np.array_equal(first.leakage, second.leakage)

    def test_axis_spacing(self):
        log_spec = noise.SweepSpec(
            gate_target="hadamard", ratio_min=1, ratio_max=100, steps_per_axis=3
        )
        assert np.allclose(noise.sweep_axes(log_spec), [1, 10, 100])
        lin_spec = noise.SweepSpec(
            gate_target="hadamard",
            ratio_min=1,
            ratio_max=100,
            steps_per_axis=3,
            log_scale=False,
        )
        assert np.allclose(noise.sweep_axes(lin_spec), [1, 50.5, 100])

    def test_custom_target(self):
        spec = noise.SweepSpec(
            gate_target="custom",
            theta=1.0,
            gamma=2.0,
            ratio_min=20,
            ratio_max=50,
            steps_per_axis=2,
        )
        table = noise.run_sweep(spec)
        assert np.all(table.fidelity > 0.9)
