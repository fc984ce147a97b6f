"""The batched sector kernel behind run_sweep against the full-space route.

``perturbed_gate_1q`` / ``perturbed_gate_2q`` build the 8/16-dim Hamiltonian
point by point and measure sector leakage with a full-space evolution; they
are the independent oracle for every grid cell the kernel produces.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodfs import noise
from holodfs.holonomy import GateParams2Q, analytic_gate_1q, params_for_rotation
from holodfs.spin_model import pauli_on

FIDELITY_TOL = 1e-12
LEAKAGE_TOL = 1e-12

ratios = st.floats(min_value=0.5, max_value=300.0)


def _two_point_spec(r1, r2, **target):
    return noise.SweepSpec(ratio_min=min(r1, r2), ratio_max=max(r1, r2),
                           steps_per_axis=2, log_scale=False, **target)


def _assert_matches_oracle(table, evaluate):
    for i, r1 in enumerate(table.axis1):
        for j, r2 in enumerate(table.axis2):
            report = evaluate(r1, r2)
            assert abs(table.fidelity[i, j] - report.fidelity) <= FIDELITY_TOL
            assert report.sector_leakage <= table.leakage[i, j] + LEAKAGE_TOL


@settings(deadline=None, max_examples=60)
@given(theta=st.floats(0.0, math.pi), fraction=st.floats(0.0, 1.0),
       m=st.sampled_from([1, 2]), r1=ratios, r2=ratios)
def test_single_qubit_kernel_matches_full_space(theta, fraction, m, r1, r2):
    gamma = fraction * 2.0 * m * math.pi
    params = params_for_rotation(theta, gamma, m=m)
    table = noise.run_sweep(
        _two_point_spec(r1, r2, gate_target="custom", theta=theta, gamma=gamma, m=m)
    )
    _assert_matches_oracle(
        table, lambda a, b: noise.perturbed_gate_1q(params, a, b, samples=2)
    )


@settings(deadline=None, max_examples=60)
@given(theta_tilde=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
       m=st.sampled_from([1, 3]), r1=ratios, r2=ratios)
def test_two_qubit_kernel_matches_full_space(theta_tilde, m, r1, r2):
    params = GateParams2Q(theta_tilde=theta_tilde, m_tilde=m)
    table = noise.run_sweep(
        _two_point_spec(r1, r2, gate_target="two_qubit", theta_tilde=theta_tilde, m=m)
    )
    _assert_matches_oracle(
        table, lambda a, b: noise.perturbed_gate_2q(params, a, b, samples=2)
    )


@pytest.mark.parametrize("gate", sorted(noise.GATE_PRESETS))
def test_preset_log_grid_matches_full_space(gate):
    table = noise.run_sweep(
        noise.SweepSpec(gate_target=gate, ratio_min=1.0, ratio_max=100.0, steps_per_axis=6)
    )
    params = params_for_rotation(*noise.GATE_PRESETS[gate])
    _assert_matches_oracle(
        table, lambda a, b: noise.perturbed_gate_1q(params, a, b, samples=2)
    )


def test_leakage_bound_measures_the_generators(monkeypatch):
    # A transverse field on Q1 breaks excitation-number conservation: the
    # residual of H0 turns nonzero, the bound follows it and still covers
    # the leakage of the full-space evolution.
    build_h1 = noise.build_h1
    field = 1e-3 * pauli_on(3, 0, "x")

    def with_field(p):
        h = build_h1(p)
        return h + field if (p.j1a, p.j2a, p.b) != (0.0, 0.0, 0.0) else h

    monkeypatch.setattr(noise, "build_h1", with_field)
    table = noise.run_sweep(
        noise.SweepSpec(gate_target="hadamard", ratio_min=2.0, ratio_max=50.0,
                        steps_per_axis=3)
    )
    assert np.all(table.leakage > 0.0)
    params = params_for_rotation(*noise.GATE_PRESETS["hadamard"])
    for i, r1 in enumerate(table.axis1):
        for j, r2 in enumerate(table.axis2):
            full = noise.perturbed_gate_1q(params, r1, r2, samples=2).sector_leakage
            assert 0.0 < full <= table.leakage[i, j] + LEAKAGE_TOL


def test_stacked_gate_fidelity_matches_single_blocks():
    rng = np.random.default_rng(7)
    ideal = analytic_gate_1q(1.1, 2.3)
    blocks = 0.5 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
    blocks /= np.linalg.norm(blocks, ord=2, axis=(1, 2))[:, None, None]
    stacked = noise.gate_fidelity(ideal, blocks)
    assert stacked.shape == (4,)
    for value, block in zip(stacked, blocks):
        assert value == pytest.approx(noise.gate_fidelity(ideal, block), abs=1e-15)


def test_spec_rejects_grid_over_cap():
    steps = math.isqrt(noise.MAX_SWEEP_POINTS) + 1
    with pytest.raises(ValueError, match="MAX_SWEEP_POINTS"):
        noise.SweepSpec(gate_target="hadamard", steps_per_axis=steps)
    noise.SweepSpec(gate_target="hadamard", steps_per_axis=steps - 1)
