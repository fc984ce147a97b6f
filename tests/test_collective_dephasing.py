"""The encoding's title claim: gates run in a collective-dephasing-free subspace.

A collective dephasing field ``b(t) * sum_j sigma_z^j`` acts on every site of
the register, the ancilla included.  Every loop Hamiltonian conserves the
excitation number, so inside the loop's fixed-excitation sector the field is
a multiple of the identity: it adds only a global phase, and the projected
gate stays the ideal one for any ``b`` and any piecewise-constant ``b(t)``.
A field on the data sites alone is not collective for the loop and moves
the gate; an idle logical qubit, on the other hand, needs only its own pair
to see the field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holodfs import linalg
from holodfs import spin_model as sm
from holodfs.holonomy import evolve_and_project, loop_target

_LOOPS = {
    "hadamard": (lambda: loop_target(gate="hadamard"), sm.logical_frame_1q, 3),
    "two_qubit": (lambda: loop_target(theta_tilde=0.6), sm.logical_frame_2q, 4),
}


def field(n: int, sites) -> np.ndarray:
    """``sum_j sigma_z^j`` over ``sites`` of an ``n``-qubit register."""
    return sum(sm.pauli_on(n, j, "z") for j in sites)


_strengths = st.floats(-5.0, 5.0)


@pytest.mark.parametrize("loop", sorted(_LOOPS))
class TestCollectiveField:
    @settings(deadline=None, max_examples=40)
    @given(b=_strengths)
    def test_constant_field_leaves_the_gate_exact(self, loop, b):
        build, logical, n = _LOOPS[loop]
        params, ideal = build()
        h = params.hamiltonian() + b * field(n, range(n))
        report = evolve_and_project(h, logical(), params.tau, ideal=ideal)
        assert report.analytic_distance <= 1e-12

    @settings(deadline=None, max_examples=25)
    @given(segments=st.lists(st.tuples(_strengths, st.floats(0.01, 1.0)),
                             min_size=1, max_size=20))
    def test_piecewise_constant_field_leaves_the_gate_exact(self, loop, segments):
        build, logical, n = _LOOPS[loop]
        params, ideal = build()
        h, z = params.hamiltonian(), field(n, range(n))
        total = sum(weight for _, weight in segments)
        u = np.eye(2**n, dtype=complex)
        for b, weight in segments:
            u = linalg.expm_hermitian(h + b * z, params.tau * weight / total) @ u
        holonomy = linalg.project_onto(u, logical())
        assert linalg.phase_invariant_distance(holonomy, ideal) <= 1e-12


def test_field_on_the_data_sites_only_moves_the_gate():
    # The limit of the protection: with the ancilla Qa (slot 1) outside the
    # field, the excited level is detuned from the logical ones by 2b.
    params, ideal = loop_target(gate="hadamard")
    h = params.hamiltonian() + 0.3 * field(3, (0, 2))
    report = evolve_and_project(h, sm.logical_frame_1q(), params.tau, ideal=ideal)
    assert report.analytic_distance == pytest.approx(0.63, abs=0.01)


@pytest.mark.parametrize("logical, n, pairs", [
    (sm.logical_frame_1q, 3, [(0, 2)]),
    (sm.logical_frame_2q, 4, [(0, 1), (2, 3)]),
], ids=["1q", "2q"])
def test_pair_field_annihilates_an_idle_logical_frame(logical, n, pairs):
    # |0_L> and |1_L> each hold one excitation per pair, so sigma_z + sigma_z
    # on the pair is exactly zero on the logical frame.
    for pair in pairs:
        assert not np.any(field(n, pair) @ logical().vectors)
