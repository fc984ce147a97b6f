"""Shared oracles and random-object helpers for the test suite.

The matrix-exponential oracle here deliberately avoids eigendecompositions
so it stays independent of the code path it checks.
"""

import numpy as np


def taylor_expm(h, t, order=30, squarings=8):
    """exp(-i h t) by order-``order`` Taylor series with scaling and squaring."""
    h = np.asarray(h, dtype=complex)
    x = (-1j * t / 2**squarings) * h
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_unitary(rng, dim):
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng):
    """Haar-distributed SU(2) matrix (unit determinant)."""
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z /= np.linalg.norm(z)
    return np.array([[z[0], -np.conj(z[1])], [z[1], np.conj(z[0])]])


# XX, YY and ZZ, the two-qubit Pauli products of the canonical gate.
_PAULI_PAIRS = tuple(np.kron(p, p) for p in (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
))


def dressed_canonical(c1, c2, c3, rng):
    """exp(i(c1 XX + c2 YY + c3 ZZ)/2) between random local SU(2) factors."""
    h = sum(c * pair for c, pair in zip((c1, c2, c3), _PAULI_PAIRS))
    values, vectors = np.linalg.eigh(h)
    canonical = (vectors * np.exp(0.5j * values)) @ vectors.conj().T
    left = np.kron(random_su2(rng), random_su2(rng))
    right = np.kron(random_su2(rng), random_su2(rng))
    return left @ canonical @ right
