import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randmat import random_hermitian, random_unitary, taylor_expm
from holodfs import linalg
from holodfs.spin_model import SIGMA_X, SIGMA_Z, SubspaceFrame


def lambda_matrix(theta, phi, omega=1.0):
    # Effective three-level matrix produced by the coupling parameterization.
    j1a = omega * math.sin(phi) * math.cos(theta / 2)
    j2a = omega * math.sin(phi) * math.sin(theta / 2)
    b = omega * math.cos(phi)
    return np.array([[0, 0, j2a], [0, 0, j1a], [j2a, j1a, 2 * b]], dtype=complex)


class TestEigh:
    def test_diagonal(self):
        values, _ = linalg.eigh(np.diag([0.0, 0.0, 2.0]).astype(complex))
        assert_allclose(values, [0.0, 0.0, 2.0], atol=1e-14)

    def test_pauli_x_spectrum(self):
        values, vectors = linalg.eigh(SIGMA_X)
        assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        s = 1 / math.sqrt(2)
        # Phase convention: first sizeable component real positive.
        assert_allclose(vectors[:, 0], [s, -s], atol=1e-14)
        assert_allclose(vectors[:, 1], [s, s], atol=1e-14)

    def test_lambda_system_energies(self):
        theta, phi, omega = 0.8, 2.2, 1.3  # cos(phi) < 0
        values, _ = linalg.eigh(lambda_matrix(theta, phi, omega))
        expected = np.sort(
            [omega * (math.cos(phi) - 1), 0.0, omega * (math.cos(phi) + 1)]
        )
        assert_allclose(values, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="asymmetry"):
            linalg.eigh(bad)

    @pytest.mark.parametrize("dim", [2, 3, 6, 8, 16])
    def test_reconstruction_and_residuals(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim)
        values, vectors = linalg.eigh(h)
        assert np.max(np.abs((vectors * values) @ vectors.conj().T - h)) < 1e-11
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) < 1e-12
        residual = h @ vectors - vectors * values
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-11

    def test_degenerate_cluster_still_orthonormal(self):
        h = np.diag([1.0, 1.0, 1.0, 3.0]).astype(complex)
        _, vectors = linalg.eigh(h)
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 6)
        first = linalg.eigh(h)
        second = linalg.eigh(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        assert_allclose(
            linalg.expm_hermitian(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-14
        )

    def test_pauli_z_half_turn(self):
        assert_allclose(
            linalg.expm_hermitian(SIGMA_Z, math.pi), -np.eye(2), atol=1e-13
        )

    def test_matches_taylor_oracle_on_lambda(self):
        h = lambda_matrix(1.1, 0.7, omega=1.0)
        u = linalg.expm_hermitian(h, math.pi)
        assert np.max(np.abs(u - taylor_expm(h, math.pi))) < 1e-10

    def test_matches_taylor_oracle_random(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 8):
            h = random_hermitian(rng, dim)
            t = rng.uniform(0.1, 3.0)
            assert np.max(np.abs(linalg.expm_hermitian(h, t) - taylor_expm(h, t))) < 1e-10

    def test_group_properties(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 5)
        t1, t2 = 0.9, 1.8
        u1 = linalg.expm_hermitian(h, t1)
        u2 = linalg.expm_hermitian(h, t2)
        assert np.max(np.abs(u1 @ linalg.expm_hermitian(h, -t1) - np.eye(5))) < 1e-10
        assert np.max(np.abs(linalg.expm_hermitian(h, t1 + t2) - u1 @ u2)) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 8)
        assert linalg.unitarity_defect(linalg.expm_hermitian(h, 2.5)) < 1e-10


class TestKron:
    def test_identity(self):
        assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4), atol=0)

    def test_x_kron_z(self):
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert_allclose(linalg.kron(SIGMA_X, SIGMA_Z), expected, atol=0)

    def test_dimensions_multiply(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((5, 5))
        assert linalg.kron(a, b).shape == (15, 15)


class TestPhaseInvariantDistance:
    def test_identical(self):
        u = random_unitary(np.random.default_rng(0), 4)
        assert linalg.phase_invariant_distance(u, u) == 0.0

    def test_global_phase_only(self):
        u = np.eye(2, dtype=complex)
        d = linalg.phase_invariant_distance(u, np.exp(1j * math.pi / 3) * u)
        assert d < 1e-12

    def test_identity_vs_x(self):
        # tr(X) = 0, so the closed form gives sqrt(2*2 - 0) = 2.
        assert linalg.phase_invariant_distance(np.eye(2), SIGMA_X) == pytest.approx(2.0)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u, v, w = (random_unitary(rng, 4) for _ in range(3))
            duv = linalg.phase_invariant_distance(u, v)
            dvu = linalg.phase_invariant_distance(v, u)
            assert abs(duv - dvu) < 1e-12
            dvw = linalg.phase_invariant_distance(v, w)
            duw = linalg.phase_invariant_distance(u, w)
            assert duw <= duv + dvw + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.phase_invariant_distance(np.eye(2), np.eye(3))


def frame_of(vectors):
    # Labels only need one excitation count per frame.
    labels = tuple(format(1 << col, "08b") for col in range(vectors.shape[1]))
    return SubspaceFrame(8, labels, vectors)


class TestProjectOnto:
    def test_identity_operator(self):
        frame = frame_of(np.eye(5)[:, :3])
        assert_allclose(linalg.project_onto(np.eye(5), frame), np.eye(3), atol=0)

    def test_non_orthonormal_frame_rejected(self):
        # A frame checks its own Gram matrix, so the projection never sees it.
        frame = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Gram"):
            linalg.project_onto(np.eye(3), frame_of(frame))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            linalg.project_onto(np.eye(3), frame_of(np.eye(4)[:, :2]))
