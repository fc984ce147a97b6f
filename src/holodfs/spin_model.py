"""Multi-qubit Pauli operators, XY-chain Hamiltonians and invariant subspaces.

Site conventions
----------------
Bit-string labels read left to right, one character per qubit, and slot 0 is
the leftmost character.  The three-site chain used for single logical qubits
orders its sites as (Q1, Qa, Q2) with the ancilla in the middle, so e.g.
``"010"`` is the state with only the ancilla excited.  The four-site system
orders its qubits (Q1, Q2, Q3, Q4); the first logical qubit lives on
(Q1, Q2) and the second on (Q3, Q4), with the logical encoding
``|0_L> = |01>``, ``|1_L> = |10>`` on each pair.

All Hamiltonians conserve the total number of excitations (the total
sigma_z operator), including the optional antisymmetric z-axis
Dzyaloshinskii-Moriya couplings, so fixed-excitation subspaces are exactly
invariant under the generated dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import ATOL_CONSTRUCTION, kron, project_onto

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# Basis orderings that downstream effective matrices rely on: the weight-1
# sector of three qubits is listed logical-first ({|0_L>, |1_L>, |a>}), and
# the weight-2 sector of four qubits pairs each lambda level with both
# logical states of the spectator qubit.
_PREFERRED_ORDERS = {
    (3, 1): ("001", "100", "010"),
    (4, 2): ("0101", "1010", "0110", "1001", "0011", "1100"),
}

# Logical computational bases inside those sectors.
LOGICAL_LABELS_1Q = ("001", "100")
LOGICAL_LABELS_2Q = ("0101", "0110", "1001", "1010")


@dataclass(frozen=True)
class CouplingParams1Q:
    """Couplings of the three-site chain Q1 - Qa - Q2 (energy units, hbar=1)."""

    j1a: float
    j2a: float
    b: float
    d1a_z: float = 0.0
    d2a_z: float = 0.0

    @property
    def omega(self) -> float:
        return math.sqrt(self.j1a**2 + self.j2a**2 + self.b**2)


@dataclass(frozen=True)
class CouplingParams2Q:
    """Couplings of the inter-logical-qubit bridge Q3 - Q2 - Q4."""

    j32: float
    j42: float
    d32_z: float = 0.0
    d42_z: float = 0.0

    @property
    def omega(self) -> float:
        return math.sqrt(self.j32**2 + self.j42**2)


@dataclass(frozen=True)
class SubspaceFrame:
    """Ordered orthonormal frame spanning a subspace, with basis labels.

    ``vectors`` has shape (dim, k); column ``a`` is the frame vector named by
    ``labels[a]``.  Labels are computational bit-strings over ``n_qubits``
    sites and must all carry the same excitation count.  The array is frozen
    after validation, so frames are safe to share between concurrent tasks.
    """

    n_qubits: int
    labels: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[1] != len(self.labels):
            raise ValueError("one column per label required")
        gram_dev = np.max(np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])))
        if gram_dev > ATOL_CONSTRUCTION:
            raise ValueError(f"frame not orthonormal: Gram deviation {gram_dev:.3e}")
        weights = {label.count("1") for label in self.labels}
        if len(weights) > 1:
            raise ValueError(f"labels mix excitation counts: {sorted(weights)}")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def pauli_on(n: int, j: int, axis: str) -> np.ndarray:
    """Single-site Pauli operator on slot ``j`` of an ``n``-qubit register."""
    if not 0 <= j < n:
        raise IndexError(f"site index {j} out of range for {n} qubits")
    ops = [ID2] * n
    ops[j] = _PAULI[axis]
    return reduce(kron, ops)


def total_sz(n: int) -> np.ndarray:
    """Sum of sigma_z over all sites; diagonal entries n - 2*weight."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return sum(pauli_on(n, j, "z") for j in range(n))


def _unit_bond(n: int, i: int, j: int, dm: bool) -> np.ndarray:
    # XY exchange (XiXj + YiYj)/2 hops one excitation between sites i and j;
    # the antisymmetric z-axis DM exchange (XiYj - YiXj)/2 conserves
    # excitation number just like it, and the order (i, j) fixes its sign.
    xi, yi, xj, yj = (pauli_on(n, s, a) for s in (i, j) for a in "xy")
    return ((xi @ yj - yi @ xj) if dm else (xi @ xj + yi @ yj)) / 2


# Unit generators in the field order of CouplingParams1Q / CouplingParams2Q,
# built once and flattened: a Hamiltonian is the coupling vector times this
# matrix.  The real and the imaginary part of each entry are one coupling
# times +-1 or +-2 plus exact zeros, so the sum rounds nothing.
_H1_TERMS = np.array([
    _unit_bond(3, 0, 1, dm=False), _unit_bond(3, 1, 2, dm=False),
    pauli_on(3, 0, "z") + pauli_on(3, 2, "z"),
    _unit_bond(3, 0, 1, dm=True), _unit_bond(3, 1, 2, dm=True),
]).reshape(5, 64)
_H2_TERMS = np.array([
    _unit_bond(4, 2, 1, dm=False), _unit_bond(4, 3, 1, dm=False),
    _unit_bond(4, 2, 1, dm=True), _unit_bond(4, 1, 3, dm=True),
]).reshape(4, 256)


def build_h1(p: CouplingParams1Q) -> np.ndarray:
    """8x8 anisotropic XY Hamiltonian of the chain Q1 - Qa - Q2.

    Local fields of strength ``b`` act on the outer qubits only.  The DM
    coefficients weight the antisymmetric z-axis exchange on the same bonds.
    """
    couplings = np.array([p.j1a, p.j2a, p.b, p.d1a_z, p.d2a_z])
    return (couplings @ _H1_TERMS).reshape(8, 8)


def build_h2(p: CouplingParams2Q) -> np.ndarray:
    """16x16 XY Hamiltonian coupling Q3 and Q4 to Q2 (slots 2, 3 -> 1)."""
    couplings = np.array([p.j32, p.j42, p.d32_z, p.d42_z])
    return (couplings @ _H2_TERMS).reshape(16, 16)


def dfs_frame(n: int, excitations: int) -> SubspaceFrame:
    """Frame of all ``n``-qubit basis states with the given excitation count.

    The weight-1 sector of 3 qubits and the weight-2 sector of 4 qubits use
    the fixed orderings the effective Hamiltonians are written in; any other
    sector is ordered lexicographically.
    """
    if not 0 <= excitations <= n:
        raise ValueError(f"invalid excitation count {excitations} for {n} qubits")
    labels = _PREFERRED_ORDERS.get((n, excitations))
    if labels is None:
        labels = tuple(
            format(idx, f"0{n}b")
            for idx in range(2**n)
            if bin(idx).count("1") == excitations
        )
    dim = 2**n
    vectors = np.zeros((dim, len(labels)), dtype=complex)
    for col, label in enumerate(labels):
        vectors[int(label, 2), col] = 1.0
    return SubspaceFrame(n_qubits=n, labels=labels, vectors=vectors)


def dfs3_frame() -> SubspaceFrame:
    """Weight-1 sector of the three-site chain, ordered {|0_L>, |1_L>, |a>}."""
    return dfs_frame(3, 1)


def dfs6_frame() -> SubspaceFrame:
    """Weight-2 sector of the four-qubit register (dimension 6)."""
    return dfs_frame(4, 2)


def basis_subframe(frame: SubspaceFrame, labels) -> SubspaceFrame:
    """Sub-frame of ``frame`` keeping the named columns, still in full space."""
    labels = tuple(labels)
    columns = [frame.labels.index(label) for label in labels]
    return SubspaceFrame(frame.n_qubits, labels, frame.vectors[:, columns])


def effective_subframe(frame: SubspaceFrame, labels) -> SubspaceFrame:
    """Sub-frame of ``frame`` expressed in the frame's own coordinates.

    The result lives in the k-dimensional effective space where operators
    produced by :func:`restrict` act.
    """
    labels = tuple(labels)
    vectors = np.zeros((frame.size, len(labels)), dtype=complex)
    for col, label in enumerate(labels):
        vectors[frame.labels.index(label), col] = 1.0
    return SubspaceFrame(frame.n_qubits, labels, vectors)


def logical_frame_1q(effective: bool = False) -> SubspaceFrame:
    """Logical qubit frame {|0_L>, |1_L>} = {|001>, |100>}.

    With ``effective=True`` the frame is expressed in the coordinates of the
    3-dimensional fixed-excitation sector instead of the full 8-dimensional
    space.
    """
    sector = dfs3_frame()
    if effective:
        return effective_subframe(sector, LOGICAL_LABELS_1Q)
    return basis_subframe(sector, LOGICAL_LABELS_1Q)


def logical_frame_2q(effective: bool = False) -> SubspaceFrame:
    """Two-logical-qubit frame in the order {|00>, |01>, |10>, |11>}_L."""
    sector = dfs6_frame()
    if effective:
        return effective_subframe(sector, LOGICAL_LABELS_2Q)
    return basis_subframe(sector, LOGICAL_LABELS_2Q)


def restrict(h: np.ndarray, frame: SubspaceFrame) -> tuple[np.ndarray, float]:
    """Restrict an operator to a frame.

    Returns ``(effective, invariance_residual)`` where
    ``effective[a, b] = <f_a| h |f_b>`` and the residual is the Frobenius
    norm of ``(I - P) h P`` with ``P`` the frame projector.  The residual
    vanishes exactly when the frame spans an invariant subspace of ``h``.
    """
    effective = project_onto(h, frame)
    p = frame.projector()
    residual = float(np.linalg.norm((np.eye(len(p)) - p) @ h @ p))
    return effective, residual
