import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from holodfs import spin_model as sm


def commutator_norm(a, b):
    return float(np.linalg.norm(a @ b - b @ a))


def lambda_matrix(p: sm.CouplingParams1Q) -> np.ndarray:
    return np.array(
        [[0, 0, p.j2a], [0, 0, p.j1a], [p.j2a, p.j1a, 2 * p.b]], dtype=complex
    )


def double_lambda_matrix(p: sm.CouplingParams2Q) -> np.ndarray:
    lam = np.array([[0, 0, p.j32], [0, 0, p.j42], [p.j32, p.j42, 0]], dtype=complex)
    return np.kron(lam, np.eye(2))


class TestPauliOn:
    def test_single_site_z(self):
        assert_allclose(sm.pauli_on(1, 0, "z"), np.diag([1, -1]).astype(complex))

    def test_second_site_x(self):
        assert_allclose(sm.pauli_on(2, 1, "x"), np.kron(np.eye(2), sm.SIGMA_X))

    def test_total_z_action_on_basis_state(self):
        # |010>: two zeros and one one give eigenvalue +1 - 1 + 1 = +1.
        op = sum(sm.pauli_on(3, j, "z") for j in range(3))
        state = np.zeros(8)
        state[int("010", 2)] = 1.0
        assert_allclose(op @ state, state, atol=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sm.pauli_on(2, 2, "x")


class TestTotalSz:
    def test_single_qubit(self):
        assert_allclose(sm.total_sz(1), np.diag([1, -1]).astype(complex))

    def test_diagonal_counts(self):
        op = sm.total_sz(3)
        diag = np.real(np.diag(op))
        for idx in range(8):
            assert diag[idx] == 3 - 2 * bin(idx).count("1")

    def test_commutes_with_chain_hamiltonian(self):
        p = sm.CouplingParams1Q(j1a=0.4, j2a=-0.9, b=0.3, d1a_z=0.2, d2a_z=-0.1)
        assert commutator_norm(sm.build_h1(p), sm.total_sz(3)) < 1e-12


class TestBuildH1:
    def test_pure_field_diagonal(self):
        b = 0.7
        h = sm.build_h1(sm.CouplingParams1Q(j1a=0.0, j2a=0.0, b=b))
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        diag = np.real(np.diag(h))
        # Field acts on the outer qubits only: entry = b * (z(Q1) + z(Q2)).
        for idx in range(8):
            bits = format(idx, "03b")
            expected = b * ((1 - 2 * int(bits[0])) + (1 - 2 * int(bits[2])))
            assert diag[idx] == pytest.approx(expected, abs=1e-14)
        assert diag[int("000", 2)] == pytest.approx(2 * b)
        assert diag[int("001", 2)] == pytest.approx(0.0)
        assert diag[int("011", 2)] == pytest.approx(0.0)
        assert diag[int("101", 2)] == pytest.approx(-2 * b)

    def test_hermitian(self):
        p = sm.CouplingParams1Q(j1a=0.5, j2a=0.2, b=-0.4, d1a_z=0.15, d2a_z=0.3)
        h = sm.build_h1(p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13

    def test_restriction_reproduces_lambda_form(self):
        p = sm.CouplingParams1Q(j1a=0.31, j2a=-0.77, b=0.52)
        effective, residual = sm.restrict(sm.build_h1(p), sm.dfs3_frame())
        assert np.max(np.abs(effective - lambda_matrix(p))) < 1e-13
        assert residual < 1e-13

    def test_commutator_with_total_sz_including_dm(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = sm.CouplingParams1Q(*rng.uniform(-1, 1, size=5))
            assert commutator_norm(sm.build_h1(p), sm.total_sz(3)) < 1e-12

    def test_linearity_in_parameters(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            v1 = rng.uniform(-1, 1, size=5)
            v2 = rng.uniform(-1, 1, size=5)
            a = rng.uniform(0.5, 2.0)
            combo = sm.build_h1(sm.CouplingParams1Q(*(a * v1 + v2)))
            parts = a * sm.build_h1(sm.CouplingParams1Q(*v1)) + sm.build_h1(
                sm.CouplingParams1Q(*v2)
            )
            assert np.max(np.abs(combo - parts)) < 1e-12

    def test_dark_state_annihilated(self):
        theta, phi, omega = 1.3, 0.6, 1.0
        p = sm.CouplingParams1Q(
            j1a=omega * math.sin(phi) * math.cos(theta / 2),
            j2a=omega * math.sin(phi) * math.sin(theta / 2),
            b=omega * math.cos(phi),
        )
        effective, _ = sm.restrict(sm.build_h1(p), sm.dfs3_frame())
        dark = np.array([math.cos(theta / 2), -math.sin(theta / 2), 0.0])
        assert np.linalg.norm(effective @ dark) < 1e-12


class TestBuildH2:
    def test_zero_couplings(self):
        h = sm.build_h2(sm.CouplingParams2Q(j32=0.0, j42=0.0))
        assert np.max(np.abs(h)) == 0.0

    def test_restriction_reproduces_double_lambda(self):
        p = sm.CouplingParams2Q(j32=0.63, j42=-0.29)
        effective, residual = sm.restrict(sm.build_h2(p), sm.dfs6_frame())
        assert np.max(np.abs(effective - double_lambda_matrix(p))) < 1e-13
        assert residual < 1e-13

    def test_commutator_with_total_sz_including_dm(self):
        p = sm.CouplingParams2Q(j32=0.8, j42=0.33, d32_z=0.21, d42_z=-0.4)
        assert commutator_norm(sm.build_h2(p), sm.total_sz(4)) < 1e-12

    def test_hermitian(self):
        p = sm.CouplingParams2Q(j32=-0.5, j42=0.9, d32_z=0.3, d42_z=0.7)
        h = sm.build_h2(p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13


def chain_bond(n, i, j, strength, dm):
    # Reference construction: explicit pauli_on Kronecker chains per call.
    op = sm.pauli_on
    if dm:
        return (strength / 2.0) * (op(n, i, "x") @ op(n, j, "y") - op(n, i, "y") @ op(n, j, "x"))
    return (strength / 2.0) * (op(n, i, "x") @ op(n, j, "x") + op(n, i, "y") @ op(n, j, "y"))


def chain_h1(p):
    h = chain_bond(3, 0, 1, p.j1a, False) + chain_bond(3, 1, 2, p.j2a, False)
    h = h + p.b * (sm.pauli_on(3, 0, "z") + sm.pauli_on(3, 2, "z"))
    if p.d1a_z:
        h = h + chain_bond(3, 0, 1, p.d1a_z, True)
    if p.d2a_z:
        h = h + chain_bond(3, 1, 2, p.d2a_z, True)
    return h


def chain_h2(p):
    h = chain_bond(4, 2, 1, p.j32, False) + chain_bond(4, 3, 1, p.j42, False)
    if p.d32_z:
        h = h + chain_bond(4, 2, 1, p.d32_z, True)
    if p.d42_z:
        h = h + chain_bond(4, 1, 3, p.d42_z, True)
    return h


# Finite couplings over many decades, with exact zeros drawn often.
couplings = st.one_of(
    st.just(0.0), st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)
)


class TestPrebuiltGenerators:
    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(couplings, min_size=5, max_size=5))
    def test_h1_equals_kronecker_chains_exactly(self, values):
        p = sm.CouplingParams1Q(*values)
        assert np.array_equal(sm.build_h1(p), chain_h1(p))

    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(couplings, min_size=4, max_size=4))
    def test_h2_equals_kronecker_chains_exactly(self, values):
        p = sm.CouplingParams2Q(*values)
        assert np.array_equal(sm.build_h2(p), chain_h2(p))

    def test_results_are_fresh_arrays(self):
        p = sm.CouplingParams1Q(j1a=0.3, j2a=0.2, b=0.1)
        h = sm.build_h1(p)
        h[0, 0] = 99.0
        assert sm.build_h1(p)[0, 0] == 2 * 0.1


class TestDfsFrame:
    def test_logical_pair(self):
        frame = sm.dfs_frame(2, 1)
        assert frame.labels == ("01", "10")

    def test_three_site_order(self):
        frame = sm.dfs3_frame()
        assert frame.labels == ("001", "100", "010")
        for col, label in enumerate(frame.labels):
            assert frame.vectors[int(label, 2), col] == 1.0

    def test_six_dimensional_sector(self):
        frame = sm.dfs6_frame()
        assert frame.labels == ("0101", "1010", "0110", "1001", "0011", "1100")
        assert frame.size == 6

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 2), (4, 1), (5, 3)])
    def test_sector_sizes(self, n, k):
        frame = sm.dfs_frame(n, k)
        assert frame.size == comb(n, k)
        assert all(label.count("1") == k for label in frame.labels)

    def test_gram_identity(self):
        frame = sm.dfs_frame(4, 2)
        gram = frame.vectors.conj().T @ frame.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12

    def test_invalid_excitations(self):
        with pytest.raises(ValueError, match="excitation"):
            sm.dfs_frame(3, 4)


class TestSubspaceFrame:
    def test_rejects_non_orthonormal(self):
        vectors = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="Gram"):
            sm.SubspaceFrame(n_qubits=1, labels=("0", "1"), vectors=vectors)

    def test_rejects_mixed_weights(self):
        with pytest.raises(ValueError, match="excitation"):
            sm.SubspaceFrame(
                n_qubits=2, labels=("01", "11"), vectors=np.eye(4)[:, 1:3]
            )

    def test_vectors_frozen(self):
        frame = sm.dfs3_frame()
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 5.0


class TestRestrict:
    def test_weight_zero_sector(self):
        b = 0.45
        h = sm.build_h1(sm.CouplingParams1Q(j1a=0.3, j2a=0.1, b=b))
        effective, residual = sm.restrict(h, sm.dfs_frame(3, 0))
        assert effective.shape == (1, 1)
        assert effective[0, 0] == pytest.approx(2 * b)
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_residual_detects_non_invariant_frame(self):
        # The (a, 2) bond hops |001> to |010>, so the single-state frame
        # {|001>} is not invariant and the residual picks up the coupling.
        h = sm.build_h1(sm.CouplingParams1Q(j1a=0.0, j2a=1.0, b=0.0))
        vectors = np.zeros((8, 1), dtype=complex)
        vectors[int("001", 2), 0] = 1.0
        frame = sm.SubspaceFrame(n_qubits=3, labels=("001",), vectors=vectors)
        _, residual = sm.restrict(h, frame)
        assert residual == pytest.approx(1.0)


class TestLogicalFrames:
    def test_full_space_frames(self):
        frame = sm.logical_frame_1q()
        assert frame.labels == sm.LOGICAL_LABELS_1Q
        assert frame.dim == 8
        frame2 = sm.logical_frame_2q()
        assert frame2.labels == sm.LOGICAL_LABELS_2Q
        assert frame2.dim == 16

    def test_effective_frames(self):
        frame = sm.logical_frame_1q(effective=True)
        assert frame.dim == 3
        assert_allclose(frame.vectors, np.eye(3)[:, :2], atol=0)
        frame2 = sm.logical_frame_2q(effective=True)
        assert frame2.dim == 6
        # Computational order picks sector columns (0101, 0110, 1001, 1010).
        expected = np.zeros((6, 4))
        for col, label in enumerate(sm.LOGICAL_LABELS_2Q):
            expected[sm.dfs6_frame().labels.index(label), col] = 1.0
        assert_allclose(frame2.vectors, expected, atol=0)
