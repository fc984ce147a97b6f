import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmat import random_unitary
from holodfs import entanglement, holonomy, noise
from holodfs.holonomy import GateParams2Q, analytic_gate_1q, loop_target, params_for_rotation

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

    @settings(deadline=None, max_examples=200)
    @given(k=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
           singular=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_contractions_score_in_the_unit_interval(self, k, seed, singular):
        # U = W diag(s) V with W, V Haar and singular values s in [0, 1]:
        # every contraction, unitaries (all s = 1) and zero blocks included.
        rng = np.random.default_rng(seed)
        ideal = random_unitary(rng, k)
        block = random_unitary(rng, k) * singular[:k] @ random_unitary(rng, k)
        assert 0.0 <= noise.gate_fidelity(ideal, block) <= 1.0 + 1e-12


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
            noise.SweepSpec(loop_target(gate="hadamard"), steps_per_axis=1)

    def test_requires_positive_ratios(self):
        loop = loop_target(gate="hadamard")
        with pytest.raises(ValueError, match="ratio_min"):
            noise.SweepSpec(loop, ratio_min=0.0)
        with pytest.raises(ValueError, match="exceeds"):
            noise.SweepSpec(loop, ratio_min=10.0, ratio_max=1.0)

    # A spec's loop comes from loop_target, which refuses a bad target before
    # any grid is specified.
    def test_requires_target_parameters(self):
        with pytest.raises(ValueError, match="theta"):
            loop_target(gate="custom")
        with pytest.raises(ValueError, match="theta_tilde"):
            loop_target(gate="two_qubit")
        with pytest.raises(ValueError, match="unknown"):
            loop_target(gate="cz")

    @pytest.mark.parametrize("target, extra, name", [
        ("hadamard", {"theta": 1.0}, "theta"),
        ("pi8", {"gamma": 1.0}, "gamma"),
        ("two_qubit", {"theta_tilde": 0.3, "gamma": 1.0}, "gamma"),
        ("pi8", {"theta_tilde": 0.3}, "theta_tilde"),
        ("custom", {"theta": 1.0, "gamma": 1.0, "theta_tilde": 0.3}, "theta_tilde"),
    ])
    def test_rejects_parameters_of_another_target(self, target, extra, name):
        with pytest.raises(ValueError, match=f"^{name} applies only to"):
            loop_target(gate=target, **extra)

    @pytest.mark.parametrize("target, extra, message", [
        ("hadamard", {"m": 0}, "winding m must be a positive integer"),
        ("pi8", {"omega": -1.0}, "omega must be finite and positive"),
        ("pi8", {"omega": -1.7e308}, "omega must be finite and positive"),
        ("pi8", {"omega": math.nan}, "omega must be finite and positive"),
        ("hadamard", {"m": 2.0}, "winding m must be a positive integer, got 2.0"),
    ])
    def test_refuses_a_bad_loop_when_built(self, target, extra, message):
        with pytest.raises(ValueError, match=message):
            loop_target(gate=target, **extra)

    @pytest.mark.parametrize("omega, ratio_min", [(8.9e307, 1.0), (8e307, 0.5)])
    def test_refuses_sector_energies_that_overflow(self, omega, ratio_min):
        # omega + omega/ratio_min bounds the grid's largest DM strength and
        # loop energy; four times it must stay finite, also for a loop whose
        # own energies (2*omega) are finite.
        loop = loop_target(gate="hadamard", omega=omega)
        with pytest.raises(ValueError, match="^DM strength omega/ratio_min = .* overflows$"):
            noise.SweepSpec(loop, ratio_min=ratio_min, ratio_max=max(ratio_min, 1.0))

    def test_the_loop_refuses_an_omega_whose_double_overflows(self):
        # Refused before any grid: no spec is built from such a loop.
        with pytest.raises(ValueError, match=r"^omega=1\.79769e\+308 overflows the loop "
                                             r"Hamiltonian \(2\*omega\)$"):
            loop_target(gate="hadamard", omega=1.7976931348623157e308)

    def test_compares_and_hashes_by_identity(self):
        # The loop holds an array, whose == is elementwise.
        loop = loop_target(gate="hadamard")
        spec = noise.SweepSpec(loop)
        assert spec == spec and spec != noise.SweepSpec(loop)
        assert {spec: 1}[spec] == 1


# Loop parameters that loop_target takes, with the target each one belongs to.
_PARAM_TARGETS = {"theta": "custom", "gamma": "custom", "theta_tilde": "two_qubit"}


class TestLoopTargetGrammar:
    @settings(deadline=None, max_examples=300)
    @given(gate=st.sampled_from([None, "hadamard", "pi8", "custom", "two_qubit", "cz", ""]),
           names=st.sets(st.sampled_from(sorted(_PARAM_TARGETS))),
           theta=st.floats(0.0, math.pi), fraction=st.floats(0.0, 1.0),
           theta_tilde=st.floats(0.01, 1.5))
    def test_one_grammar_for_loop_target(self, gate, names, theta, fraction, theta_tilde):
        values = {"theta": theta, "gamma": 2 * math.pi * fraction, "theta_tilde": theta_tilde}
        params = {name: values[name] for name in names}
        if gate is None:
            resolved = "two_qubit" if "theta_tilde" in names else "custom"
        else:
            resolved = gate
        takes = {name for name, target in _PARAM_TARGETS.items() if target == resolved}
        valid = resolved in (*noise.GATE_PRESETS, "custom", "two_qubit") and names == takes
        if not valid:
            with pytest.raises(ValueError):
                loop_target(gate=gate, **params)
            return
        g, ideal = loop_target(gate=gate, **params)
        # Every given angle went into the loop: no preset replaced it.
        if resolved == "two_qubit":
            assert g.theta_tilde == theta_tilde
        elif resolved == "custom":
            assert g.theta == theta
            assert np.array_equal(ideal, analytic_gate_1q(theta, values["gamma"]))

    def test_run_sweep_resolves_no_loop(self, monkeypatch):
        spec = noise.SweepSpec(loop_target(gate="two_qubit", theta_tilde=0.6), steps_per_axis=3)

        def refuse(*args, **kwargs):
            raise AssertionError("run_sweep resolved the loop again")

        monkeypatch.setattr(holonomy, "loop_target", refuse)
        assert not hasattr(noise, "loop_target")
        assert noise.run_sweep(spec).fidelity.shape == (3, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: holonomy.evolve_and_project(
        HADAMARD_PARAMS.hamiltonian(), HADAMARD_PARAMS.frames()[1], HADAMARD_PARAMS.tau,
        samples=2.5), "time samples must be an integer, got 2.5"),
    (lambda: noise.perturbed_gate_1q(HADAMARD_PARAMS, 10.0, 10.0, samples=2.5),
     "time samples must be an integer, got 2.5"),
    (lambda: holonomy.discretized_holonomy(
        HADAMARD_PARAMS.hamiltonian(), HADAMARD_PARAMS.frames()[1], HADAMARD_PARAMS.tau,
        steps=100.5), "steps must be an integer, got 100.5"),
    (lambda: entanglement.entangling_power_mc(np.eye(4), 1000.5, 0),
     "Monte-Carlo samples must be an integer, got 1000.5"),
    (lambda: noise.SweepSpec(loop_target(gate="hadamard"), steps_per_axis=2.5),
     "steps_per_axis must be an integer, got 2.5"),
], ids=["evolve_and_project", "perturbed_gate_1q", "discretized_holonomy",
        "entangling_power_mc", "SweepSpec"])
def test_non_integer_count_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestRunSweep:
    def test_hadamard_corner_monotonicity(self):
        spec = noise.SweepSpec(
            loop_target(gate="hadamard"), ratio_min=10, ratio_max=100, steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert table.fidelity.shape == (2, 2)
        corners = table.fidelity
        assert corners[1, 1] == corners.max()

    def test_pi8_fidelities_in_unit_interval(self):
        spec = noise.SweepSpec(
            loop_target(gate="pi8"), ratio_min=10, ratio_max=100, steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert np.all(table.fidelity > 0.0)
        assert np.all(table.fidelity <= 1.0)

    def test_two_qubit_sector_leakage_vanishes(self):
        spec = noise.SweepSpec(
            loop_target(gate="two_qubit", theta_tilde=math.pi / 4), steps_per_axis=2
        )
        table = noise.run_sweep(spec)
        assert np.all(table.leakage <= 1e-12)

    def test_deterministic(self):
        spec = noise.SweepSpec(
            loop_target(gate="hadamard"), ratio_min=5, ratio_max=50, steps_per_axis=3
        )
        first = noise.run_sweep(spec)
        second = noise.run_sweep(spec)
        assert np.array_equal(first.fidelity, second.fidelity)
        assert np.array_equal(first.leakage, second.leakage)

    def test_tables_compare_and_hash_by_identity(self):
        # The fields are arrays, whose == is elementwise.
        spec = noise.SweepSpec(loop_target(gate="hadamard"), steps_per_axis=2)
        table = noise.run_sweep(spec)
        assert table == table and table != noise.run_sweep(spec)
        assert {table: 1}[table] == 1

    def test_axis_spacing(self):
        log_spec = noise.SweepSpec(
            loop_target(gate="hadamard"), ratio_min=1, ratio_max=100, steps_per_axis=3
        )
        assert np.allclose(noise.sweep_axes(log_spec), [1, 10, 100])
        lin_spec = noise.SweepSpec(
            loop_target(gate="hadamard"),
            ratio_min=1,
            ratio_max=100,
            steps_per_axis=3,
            log_scale=False,
        )
        assert np.allclose(noise.sweep_axes(lin_spec), [1, 50.5, 100])

    def test_custom_target(self):
        spec = noise.SweepSpec(
            loop_target(gate="custom", theta=1.0, gamma=2.0),
            ratio_min=20,
            ratio_max=50,
            steps_per_axis=2,
        )
        table = noise.run_sweep(spec)
        assert np.all(table.fidelity > 0.9)
