"""The closed-form lambda kernel behind run_sweep against the full-space route.

``perturbed_gate_1q`` / ``perturbed_gate_2q`` build the 8/16-dim Hamiltonian
point by point and measure sector leakage with a full-space evolution; they
are the independent oracle for every grid cell the kernel produces.  Every
chunk layout is also checked against the sector route it replaced, one
``eigh`` per grid row: fidelity within ``ROW_BY_ROW_TOL``, leakage bit for bit.
"""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodfs import linalg, noise, spin_model
from holodfs.holonomy import (
    GateParams1Q,
    GateParams2Q,
    analytic_gate_1q,
    params_for_rotation,
    require_phase_precision,
)
from holodfs.spin_model import pauli_on

FIDELITY_TOL = 1e-12
LEAKAGE_TOL = 1e-12
ROW_BY_ROW_TOL = 1e-13

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
    build_h1 = spin_model.build_h1
    field = 1e-3 * pauli_on(3, 0, "x")

    def with_field(p):
        h = build_h1(p)
        return h + field if (p.j1a, p.j2a, p.b) != (0.0, 0.0, 0.0) else h

    monkeypatch.setattr(spin_model, "build_h1", with_field)
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


def _row_by_row(spec):
    # The sector route run_sweep replaced: one stacked eigh per grid row,
    # projection onto the logical rows and gate_fidelity, kept as reference.
    axis = noise.sweep_axes(spec)
    g, ideal = spec.loop
    sector, logical_frame = g.frames()
    (e0, e1, e2), (r0, r1, r2) = zip(*(spin_model.restrict(t, sector) for t in g.terms()))
    logical = [sector.labels.index(label) for label in logical_frame.labels]
    tau = g.tau
    strengths = spec.omega / axis
    n = len(axis)
    fidelity = np.empty((n, n))
    leakage = np.empty((n, n))
    for i, d1 in enumerate(strengths):
        values, vectors = np.linalg.eigh(e0 + d1 * e1 + strengths[:, None, None] * e2)
        require_phase_precision(values, tau, where=f" at ratio1 = {axis[i]:.6g}",
                                remedy="raise ratio_min or lower m")
        rows = vectors[:, logical, :]
        block = (rows * np.exp(-1j * tau * values)[:, None, :]) @ rows.conj().swapaxes(1, 2)
        fidelity[i] = np.clip(noise.gate_fidelity(ideal, block), 0.0, 1.0)
        leakage[i] = np.minimum((tau * (r0 + d1 * r1 + strengths * r2)) ** 2, 1.0)
    return fidelity, leakage


def _assert_equals_row_by_row(spec):
    table = noise.run_sweep(spec)
    fidelity, leakage = _row_by_row(spec)
    assert np.max(np.abs(table.fidelity - fidelity)) <= ROW_BY_ROW_TOL
    assert np.array_equal(table.leakage, leakage)


_TARGETS = [
    {"gate_target": "hadamard"},
    {"gate_target": "custom", "theta": 1.2, "gamma": 3.0, "m": 2},
    {"gate_target": "two_qubit", "theta_tilde": 0.6},
    {"gate_target": "two_qubit", "theta_tilde": 0.3, "m": 3},
]


# With SWEEP_CHUNK_POINTS = 1024: one chunk up to 32 steps, one exactly full
# at 32, then 2, 3 and 5 chunks with a short last one.
@pytest.mark.parametrize("steps", [2, 31, 32, 33, 45, 70])
@pytest.mark.parametrize("log_scale", [True, False])
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: t["gate_target"] + str(t.get("m", 1)))
def test_chunks_equal_row_by_row_at_fixed_steps(steps, log_scale, target):
    _assert_equals_row_by_row(noise.SweepSpec(
        ratio_min=0.7, ratio_max=400.0, steps_per_axis=steps, log_scale=log_scale, **target))


@settings(deadline=None, max_examples=40)
@given(target=st.sampled_from(_TARGETS), steps=st.integers(2, 40),
       log_scale=st.booleans(), chunk=st.integers(1, 200),
       lo=st.floats(0.5, 5.0), span=st.floats(1.0, 300.0))
def test_chunks_equal_row_by_row(target, steps, log_scale, chunk, lo, span):
    # Small caps put grids below, at and across the cap, down to one row per
    # stack when a row alone is longer than the cap.
    spec = noise.SweepSpec(ratio_min=lo, ratio_max=lo * span, steps_per_axis=steps,
                           log_scale=log_scale, **target)
    with mock.patch.object(noise, "SWEEP_CHUNK_POINTS", chunk):
        _assert_equals_row_by_row(spec)


def _cold_set_up(monkeypatch):
    # A fresh, empty set-up cache for one test; the process-wide one, never
    # touched, is put back after it.
    monkeypatch.setattr(noise, "_loop_setup", functools.cache(noise._loop_setup.__wrapped__))


@pytest.mark.parametrize("steps", [3, 33, 45])
def test_nonzero_leakage_bound_equals_row_by_row(steps, monkeypatch):
    # A transverse field on every term makes all three residuals nonzero, so
    # the broadcast bound is compared where its summation order matters.  The
    # set-up reads the unit bonds from spin_model.dm_bonds, not the builder,
    # so the field goes into both, under a cold set-up cache.
    build_h1 = spin_model.build_h1
    field = 1e-3 * pauli_on(3, 0, "x")
    bonds = tuple(bond + field for bond in spin_model.dm_bonds(3))
    monkeypatch.setattr(spin_model, "build_h1", lambda p: build_h1(p) + field)
    monkeypatch.setattr(spin_model, "dm_bonds", lambda n: bonds)
    _cold_set_up(monkeypatch)
    g, _ = noise.SweepSpec(gate_target="hadamard").loop
    sector, _ = g.frames()
    assert all(spin_model.restrict(term, sector)[1] > 0.0 for term in g.terms())
    spec = noise.SweepSpec(gate_target="hadamard", ratio_min=2.0, ratio_max=50.0,
                           steps_per_axis=steps)
    assert np.all(noise.run_sweep(spec).leakage > 0.0)
    _assert_equals_row_by_row(spec)


@pytest.mark.parametrize("target", _TARGETS[::2], ids=lambda t: t["gate_target"])
def test_sweep_makes_no_eigh_or_svd_calls(target, monkeypatch):
    # The closed form replaces the stacked eigh and the SVD norm guard of
    # gate_fidelity, on a grid of three chunks.
    calls = []

    def counting(name, function):
        def wrapper(x, *args, **kwargs):
            spectral = kwargs.get("ord", args[0] if args else None) == 2
            if name != "norm" or spectral:
                calls.append(name)
            return function(x, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "eigh", counting("linalg.eigh", linalg.eigh))
    noise.run_sweep(noise.SweepSpec(steps_per_axis=50, **target))
    assert calls == []


def test_phase_roundoff_names_the_row_of_the_reference():
    spec = noise.SweepSpec(gate_target="hadamard", ratio_min=1e-300, steps_per_axis=40)
    with pytest.raises(ValueError) as reference:
        _row_by_row(spec)
    with pytest.raises(ValueError) as chunked:
        noise.run_sweep(spec)
    assert str(chunked.value) == str(reference.value)
    assert "ratio1 = 1e-300" in str(chunked.value)


def test_phase_roundoff_names_the_first_offending_row_in_a_later_chunk(monkeypatch):
    # Huge detunings in one chosen row only: run_sweep must name that row
    # inside its chunk (45 steps give chunks of 22 rows).
    spec = noise.SweepSpec(gate_target="pi8", steps_per_axis=45)
    axis = noise.sweep_axes(spec)
    bad_row = 30
    marker = spec.omega / axis[bad_row]
    points = noise._lambda_points

    def detuned(blocks, d1, d2):
        c, delta = points(blocks, d1, d2)
        return c, np.where(d1 == marker, 1e300, delta)

    monkeypatch.setattr(noise, "_lambda_points", detuned)
    with pytest.raises(ValueError) as refused:
        noise.run_sweep(spec)
    message = str(refused.value)
    assert message.startswith("loop phase |E|*tau = ")
    assert f" at ratio1 = {axis[bad_row]:.6g} leaves float64 roundoff" in message


def test_phase_roundoff_names_the_row_with_the_largest_phase(monkeypatch):
    # Two offending rows in one chunk (45 steps give chunks of 22 rows), the
    # later one with the larger detuning: the refusal names the later row.
    spec = noise.SweepSpec(gate_target="pi8", steps_per_axis=45)
    axis = noise.sweep_axes(spec)
    detunings = {25: 1e300, 30: 1e301}
    strengths = {spec.omega / axis[row]: value for row, value in detunings.items()}
    points = noise._lambda_points

    def detuned(blocks, d1, d2):
        c, delta = points(blocks, d1, d2)
        for strength, value in strengths.items():
            delta = np.where(d1 == strength, value, delta)
        return c, delta

    monkeypatch.setattr(noise, "_lambda_points", detuned)
    with pytest.raises(ValueError) as refused:
        noise.run_sweep(spec)
    message = str(refused.value)
    assert f" at ratio1 = {axis[30]:.6g} leaves float64 roundoff" in message
    assert f"ratio1 = {axis[25]:.6g}" not in message


def test_two_hundred_step_two_qubit_sweep_stays_small():
    spec = noise.SweepSpec(gate_target="two_qubit", theta_tilde=0.6, steps_per_axis=200)
    tracemalloc.start()
    try:
        noise.run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# The unit DM bonds G1, G2 and the lambda split depend only on the loop
# type, so run_sweep sets them up once per type and process.
_TYPE_PAIRS = [
    ({"gate_target": "hadamard"}, {"gate_target": "custom", "theta": 1.2, "gamma": 3.0,
                                   "m": 2}),
    ({"gate_target": "two_qubit", "theta_tilde": 0.6},
     {"gate_target": "two_qubit", "theta_tilde": 0.3, "m": 3}),
]


@pytest.mark.parametrize("first, second", _TYPE_PAIRS, ids=["1q", "2q"])
def test_bonds_are_restricted_once_per_loop_type(first, second, monkeypatch):
    calls = []
    restrict = spin_model.restrict

    def counting(h, frame):
        calls.append(len(h))
        return restrict(h, frame)

    _cold_set_up(monkeypatch)
    monkeypatch.setattr(noise, "restrict", counting)
    noise.run_sweep(noise.SweepSpec(steps_per_axis=2, **first))
    assert len(calls) == 3
    calls.clear()
    noise.run_sweep(noise.SweepSpec(steps_per_axis=2, **second))
    assert len(calls) == 1


def test_a_replaced_builder_leaves_the_set_up_alone(monkeypatch):
    # The first sweep sets up the loop type under a builder that adds a
    # transverse field to every term; the next one, without it, must give the
    # grid of a cold start.
    _cold_set_up(monkeypatch)
    spec = noise.SweepSpec(gate_target="hadamard", ratio_min=2.0, ratio_max=50.0,
                           steps_per_axis=3)
    build_h1 = spin_model.build_h1
    field = 1e-3 * pauli_on(3, 0, "x")
    with mock.patch.object(spin_model, "build_h1", lambda p: build_h1(p) + field):
        patched = noise.run_sweep(spec)
    after = noise.run_sweep(spec)
    _cold_set_up(monkeypatch)
    cold = noise.run_sweep(spec)
    assert np.all(patched.leakage > 0.0) and np.all(cold.leakage == 0.0)
    assert np.array_equal(after.fidelity, cold.fidelity)
    assert np.array_equal(after.leakage, cold.leakage)


def test_kept_bonds_and_lambda_splits_are_read_only(monkeypatch):
    _cold_set_up(monkeypatch)
    for target, _ in _TYPE_PAIRS:
        noise.run_sweep(noise.SweepSpec(steps_per_axis=2, **target))
    assert noise._loop_setup.cache_info().currsize == 2
    arrays = [*spin_model.dm_bonds(3), *spin_model.dm_bonds(4)]
    for loop in (GateParams1Q, GateParams2Q):
        bonds, split, allowed = noise._loop_setup(loop)
        arrays += [bond for bond, _ in bonds] + [*split, allowed]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


_loop_targets = st.one_of(
    st.builds(lambda theta, fraction, m: {"gate_target": "custom", "theta": theta,
                                          "gamma": fraction * 2.0 * m * math.pi, "m": m},
              st.floats(0.0, math.pi), st.floats(0.0, 1.0), st.sampled_from([1, 2])),
    st.builds(lambda theta_tilde, m: {"gate_target": "two_qubit",
                                      "theta_tilde": theta_tilde, "m": m},
              st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
              st.sampled_from([1, 3])),
)


@settings(deadline=None, max_examples=60)
@given(target=_loop_targets, r1=ratios, r2=ratios)
def test_kept_bonds_and_splits_give_the_grid_of_a_cold_start(target, r1, r2):
    spec = _two_point_spec(r1, r2, **target)
    noise.run_sweep(spec)
    warm = noise.run_sweep(spec)
    cold_set_up = functools.cache(noise._loop_setup.__wrapped__)
    with mock.patch.object(noise, "_loop_setup", cold_set_up):
        cold = noise.run_sweep(spec)
    assert np.array_equal(warm.fidelity, cold.fidelity)
    assert np.array_equal(warm.leakage, cold.leakage)
