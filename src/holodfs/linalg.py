"""Dense complex linear algebra: checked eigendecomposition and its uses.

Everything here operates on plain ``numpy.ndarray`` values with complex
entries.  The systems simulated by this package live in Hilbert spaces of
dimension at most 16, so exact dense spectral decompositions are both fast
and accurate; no sparse or iterative machinery is used.  :func:`eigh` is
the one place the package diagonalizes, single matrices and stacks alike.

Tolerances are named where they are enforced: ``ATOL_CONSTRUCTION``
(1e-12; Hermiticity, which :func:`require_hermitian` refuses, and Gram
matrices) below, ``entanglement``'s ``UNITARITY_TOL`` (1e-10) and
``CNOT_TOL`` (1e-6), ``holonomy``'s ``PHASE_ROUNDOFF_LIMIT`` (1e-9, loop
phase roundoff), ``noise``'s ``_NORM_SLACK`` and ``cli.TOLERANCES``.  Each
guard reads ``not value <= limit``, so that a NaN fails it.
"""

from __future__ import annotations

import numpy as np

ATOL_CONSTRUCTION = 1e-12


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` (a matrix or a stack) from its adjoint."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def require_hermitian(h: np.ndarray, what: str = "matrix") -> None:
    """Refuse ``h`` (a matrix or a stack) unless Hermitian to ``ATOL_CONSTRUCTION``,
    naming ``what`` and the maximal asymmetry (``nan`` for non-finite entries)."""
    defect = hermiticity_defect(h)
    if not defect <= ATOL_CONSTRUCTION:
        raise ValueError(f"{what} is not Hermitian: max asymmetry {defect:.3e} "
                         f"exceeds {ATOL_CONSTRUCTION:.0e}")


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u.conj().T @ u`` from the identity.

    A Gram product that overflows gives ``nan`` without a warning; the
    guards refuse it.
    """
    u = np.asarray(u, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of one matrix or a ``(..., d, d)`` stack.

    Returns numpy's ``(values, vectors)`` pair as LAPACK computes it:
    eigenvalues ascending, orthonormal eigenvectors as columns.  No phase or
    basis convention is imposed inside degenerate clusters; every quantity
    this package derives from the pair (``V exp(-iEt) V^dag``, projected
    blocks, leakage) is independent of that choice.

    Raises ``ValueError`` when any matrix is not Hermitian (see
    :func:`require_hermitian`): LAPACK reads only one triangle, so a bad
    entry in the other would otherwise pass unseen.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h)
    return np.linalg.eigh(h)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i h t)`` for Hermitian ``h``, via the spectral theorem."""
    values, vectors = eigh(h)
    phases = np.exp(-1j * values * t)
    return (vectors * phases) @ vectors.conj().T


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
