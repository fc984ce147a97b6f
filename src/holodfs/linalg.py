"""Dense complex linear algebra with deterministic conventions.

Everything here operates on plain ``numpy.ndarray`` values with complex
entries.  The systems simulated by this package live in Hilbert spaces of
dimension at most 16, so exact dense methods (spectral decompositions,
explicit Kronecker products) are both fast and accurate; no sparse or
iterative machinery is used.

Tolerance ladder used throughout the package:

* construction identities (Hermiticity, Gram matrices): 1e-12
* spectral residuals: 1e-11
* unitarity and gate matching: 1e-10
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

ATOL_CONSTRUCTION = 1e-12
ATOL_SPECTRAL = 1e-11
ATOL_UNITARY = 1e-10

# Eigenvalues closer than this gap are treated as one degenerate cluster.
DEGENERACY_GAP = 1e-9


class EigenSystem(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, phase-fixed so that the
    first non-negligible component of each column is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its adjoint."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u.conj().T @ u`` from the identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    # First component above a relative threshold is rotated to be real
    # positive; the threshold avoids keying the phase off pure roundoff.
    out = np.array(vectors, dtype=complex)
    for col in range(out.shape[1]):
        v = out[:, col]
        mags = np.abs(v)
        pivot = np.flatnonzero(mags > 1e-6 * mags.max())[0]
        out[:, col] = v * (np.conj(v[pivot]) / mags[pivot])
    return out


def eigh(h: np.ndarray) -> EigenSystem:
    """Hermitian eigendecomposition with a deterministic phase convention.

    Eigenvalues come back ascending.  Within degenerate clusters (gap below
    ``DEGENERACY_GAP``) the eigenvectors are re-orthonormalized by QR so no
    caller can accidentally rely on intra-cluster ordering details.

    Raises ``ValueError`` for non-Hermitian input, reporting the maximal
    asymmetry.
    """
    h = np.asarray(h, dtype=complex)
    defect = hermiticity_defect(h)
    if defect > ATOL_CONSTRUCTION:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds "
            f"{ATOL_CONSTRUCTION:.0e}"
        )
    values, vectors = np.linalg.eigh(h)
    # Re-orthonormalize degenerate clusters.
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > DEGENERACY_GAP:
            if stop - start > 1:
                q, _ = np.linalg.qr(vectors[:, start:stop])
                vectors[:, start:stop] = q
            start = stop
    return EigenSystem(values, _fix_column_phases(vectors))


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i h t)`` for Hermitian ``h``, via the spectral theorem."""
    values, vectors = eigh(h)
    phases = np.exp(-1j * values * t)
    return (vectors * phases) @ vectors.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def phase_invariant_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between unitaries minimized over a global phase.

    Equals ``sqrt(2 d - 2 |tr(u^dag v)|)`` and is zero exactly when
    ``u = exp(i alpha) v``.  Evaluated as the Frobenius norm of the
    phase-aligned difference, which avoids the sqrt(eps) floor the closed
    form hits near zero.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) > 0.0:
        aligned = (np.conj(overlap) / abs(overlap)) * v
    else:
        aligned = v
    return float(np.linalg.norm(u - aligned))


def project_onto(u: np.ndarray, frame) -> np.ndarray:
    """Project an operator onto an orthonormal ``SubspaceFrame``.

    Returns the k x k matrix of elements ``<f_a| u |f_b>`` in frame order.
    The frame validated its own orthonormality when it was built; this is
    the one place that checks it against the operator's dimension.
    """
    u = np.asarray(u, dtype=complex)
    f = frame.vectors
    if f.shape[0] != u.shape[0]:
        raise ValueError(
            f"frame dimension {f.shape[0]} incompatible with operator "
            f"dimension {u.shape[0]}"
        )
    return f.conj().T @ u @ f
