"""Holonomic gate synthesis, verification and extraction.

A constant lambda-system Hamiltonian drives the logical-qubit subspace
around a loop; when the loop closes and the Hamiltonian block inside the
logical subspace vanishes (parallel transport), the projected evolution is a
purely geometric unitary.  This module provides the closed-form gates for
the lambda and double-lambda configurations, the parameter synthesis for a
target rotation, and two independent numerical extraction routes: direct
projection of the exact evolution operator, and a discretized Wilson-line
product of frame overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, spin_model
from .spin_model import SIGMA_X, SIGMA_Z, CouplingParams1Q, CouplingParams2Q, SubspaceFrame


def _require_winding(name: str, value: int) -> None:
    if value < 1 or int(value) != value:
        raise ValueError(f"winding {name} must be a positive integer, got {value}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(
            f"winding {name} with {len(str(value))} digits is too large for a float"
        ) from None


@dataclass(frozen=True)
class GateParams1Q:
    """Control parameters of one single-qubit holonomic loop.

    ``theta`` fixes the rotation axis (sin theta, 0, -cos theta), ``phi``
    fixes the rotation angle gamma = m*pi*(cos phi + 1) through the coupling
    mix, ``m`` counts windings and ``omega`` is the overall energy scale.
    The loop duration is ``tau = m*pi/omega`` (hbar = 1).

    Both loop types share the members ``omega``, ``tau``, ``terms()`` and
    ``frames()``, so the code that runs a loop serves either.
    """

    theta: float
    phi: float
    m: int = 1
    omega: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi}")
        _require_winding("m", self.m)
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega}")

    @property
    def tau(self) -> float:
        return self.m * math.pi / self.omega

    @property
    def gamma(self) -> float:
        return self.m * math.pi * (math.cos(self.phi) + 1.0)

    def couplings(self, d1a_z: float = 0.0, d2a_z: float = 0.0) -> CouplingParams1Q:
        return CouplingParams1Q(
            j1a=self.omega * math.sin(self.phi) * math.cos(self.theta / 2),
            j2a=self.omega * math.sin(self.phi) * math.sin(self.theta / 2),
            b=self.omega * math.cos(self.phi),
            d1a_z=d1a_z,
            d2a_z=d2a_z,
        )

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-space ``(H0, G1, G2)``: the loop Hamiltonian under DM strengths
        ``d1``, ``d2`` on the bonds Q1-Qa and Qa-Q2 is ``H0 + d1*G1 + d2*G2``."""
        return (spin_model.build_h1(self.couplings()),
                spin_model.build_h1(CouplingParams1Q(0.0, 0.0, 0.0, d1a_z=1.0)),
                spin_model.build_h1(CouplingParams1Q(0.0, 0.0, 0.0, d2a_z=1.0)))

    def frames(self) -> tuple[SubspaceFrame, SubspaceFrame]:
        """Full-space frames of the loop's excitation sector and logical qubit."""
        return spin_model.dfs3_frame(), spin_model.logical_frame_1q()


@dataclass(frozen=True)
class GateParams2Q:
    """Control parameters of one two-qubit holonomic loop.

    The coupling ratio fixes ``theta_tilde`` via
    (J32, J42) = omega_tilde*(sin(theta_tilde/2), cos(theta_tilde/2)); the
    winding must be odd, otherwise the loop closes trivially and implements
    the identity.
    """

    theta_tilde: float
    m_tilde: int = 1
    omega_tilde: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta_tilde < math.pi / 2:
            raise ValueError(
                f"theta_tilde must lie in (0, pi/2), got {self.theta_tilde}"
            )
        _require_winding("m_tilde", self.m_tilde)
        if self.m_tilde % 2 == 0:
            raise ValueError(
                f"winding m_tilde must be odd (even windings give the identity), "
                f"got {self.m_tilde}"
            )
        if not 0.0 < self.omega_tilde < math.inf:
            raise ValueError(
                f"omega_tilde must be finite and positive, got {self.omega_tilde}"
            )

    @property
    def omega(self) -> float:
        return self.omega_tilde

    @property
    def tau(self) -> float:
        return self.m_tilde * math.pi / self.omega_tilde

    def couplings(self, d32_z: float = 0.0, d42_z: float = 0.0) -> CouplingParams2Q:
        return CouplingParams2Q(
            j32=self.omega_tilde * math.sin(self.theta_tilde / 2),
            j42=self.omega_tilde * math.cos(self.theta_tilde / 2),
            d32_z=d32_z,
            d42_z=d42_z,
        )

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-space ``(H0, G1, G2)`` with DM generators on the bonds Q3-Q2
        and Q2-Q4, as for :meth:`GateParams1Q.terms`."""
        return (spin_model.build_h2(self.couplings()),
                spin_model.build_h2(CouplingParams2Q(0.0, 0.0, d32_z=1.0)),
                spin_model.build_h2(CouplingParams2Q(0.0, 0.0, d42_z=1.0)))

    def frames(self) -> tuple[SubspaceFrame, SubspaceFrame]:
        """Full-space frames of the 6-dim sector and the two logical qubits."""
        return spin_model.dfs6_frame(), spin_model.logical_frame_2q()


@dataclass(frozen=True)
class GateReport:
    """Verification summary of one projected evolution.

    ``cyclicity_residual`` is the Frobenius unitarity defect of the
    projected final operator, ``max_dynamical_norm`` the largest magnitude
    of a logical-block Hamiltonian element seen at the sampled times (zero
    means parallel transport), ``leakage`` the mean population escaping the
    logical frame at final time.  ``analytic_distance`` and ``fidelity``
    compare against a closed-form target when one is known;
    ``sector_leakage`` is filled by the noise pipeline and measures the
    population escaping the fixed-excitation sector.
    """

    holonomy: np.ndarray
    cyclicity_residual: float
    max_dynamical_norm: float
    leakage: float
    analytic_distance: float | None = None
    fidelity: float | None = None
    sector_leakage: float | None = None


def _lambda_eigensystem(g: GateParams1Q):
    # Dark/bright eigenvectors of the effective lambda Hamiltonian in the
    # ordered basis {|0_L>, |1_L>, |a>}.
    c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
    dark = np.array([c, -s, 0.0], dtype=complex)
    bright = np.array([s, c, 0.0], dtype=complex)
    anc = np.array([0.0, 0.0, 1.0], dtype=complex)
    cp, sp = math.cos(g.phi / 2), math.sin(g.phi / 2)
    b1 = cp * anc + sp * bright
    b2 = sp * anc - cp * bright
    e1 = g.omega * (math.cos(g.phi) + 1.0)
    e2 = g.omega * (math.cos(g.phi) - 1.0)
    return dark, (b1, e1), (b2, e2)


def analytic_u_tau(g: GateParams1Q, t: float) -> np.ndarray:
    """Closed-form lambda-system evolution operator at time ``t``.

    Built from the analytic eigensystem (dark state at energy zero, bright
    doublet at omega*(cos phi +- 1)) rather than from a matrix exponential,
    so it can serve as an independent cross-check of the numerical route.
    Basis order is {|0_L>, |1_L>, |a>}.
    """
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    dark, (b1, e1), (b2, e2) = _lambda_eigensystem(g)
    u = np.outer(dark, dark.conj())
    u = u + np.exp(-1j * e1 * t) * np.outer(b1, b1.conj())
    u = u + np.exp(-1j * e2 * t) * np.outer(b2, b2.conj())
    return u


def analytic_gate_1q(theta: float, gamma: float) -> np.ndarray:
    """Closed-form holonomic single-qubit gate.

    Equals ``exp(-i gamma/2)`` times the rotation by ``gamma`` about the
    axis (sin theta, 0, -cos theta) in the xz plane.
    """
    half = gamma / 2.0
    axis_op = math.sin(theta) * SIGMA_X - math.cos(theta) * SIGMA_Z
    return np.exp(-1j * half) * (
        math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * axis_op
    )


def analytic_gate_2q(theta_tilde: float) -> np.ndarray:
    """Closed-form two-qubit holonomic gate for an odd winding.

    Conditional pi rotations of the second logical qubit about the axes
    (sin, 0, -+cos) of ``theta_tilde``, in the ordered computational basis
    {|00>, |01>, |10>, |11>}_L.
    """
    c, s = math.cos(theta_tilde), math.sin(theta_tilde)
    return np.array(
        [
            [c, -s, 0, 0],
            [-s, -c, 0, 0],
            [0, 0, -c, -s],
            [0, 0, -s, c],
        ],
        dtype=complex,
    )


def params_for_rotation(
    theta: float, gamma: float, m: int = 1, omega: float = 1.0
) -> GateParams1Q:
    """Loop parameters realizing a rotation by ``gamma`` about the
    xz-plane axis indexed by ``theta``.

    The reachable rotation angles for winding ``m`` are [0, 2*m*pi]; outside
    that range the error names the smallest winding that works.  Axes with
    theta outside [0, pi] are covered by the identity
    R_{-n}(gamma) = R_{n}(-gamma).
    """
    _require_winding("m", m)
    if not math.isfinite(gamma):
        raise ValueError(f"rotation angle gamma must be finite, got {gamma}")
    limit = 2.0 * m * math.pi
    if not 0.0 <= gamma <= limit:
        m_min = max(1, math.ceil(gamma / (2.0 * math.pi)))
        raise ValueError(
            f"rotation angle gamma={gamma:g} is outside [0, 2*m*pi] for m={m}; "
            f"smallest feasible winding is m={m_min}"
        )
    phi = math.acos(gamma / (m * math.pi) - 1.0)
    return GateParams1Q(theta=theta, phi=phi, m=m, omega=omega)


def evolve_and_project(
    h: np.ndarray,
    logical: SubspaceFrame,
    tau: float,
    samples: int = 101,
    ideal: np.ndarray | None = None,
) -> GateReport:
    """Evolve under constant ``h`` for ``tau`` and project on a logical frame.

    The evolution is sampled at ``samples`` uniformly spaced times; at each
    the logical block of the Hamiltonian is evaluated in the evolved frame
    (for a constant Hamiltonian this equals the static block, but the check
    is run literally).  The projected final operator is returned as the
    holonomy, together with its unitarity defect, the leakage out of the
    frame, and, when ``ideal`` is given, the phase-invariant distance to it.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 time samples, got {samples}")
    h = np.asarray(h, dtype=complex)
    values, vectors = linalg.eigh(h)
    u_final = (vectors * np.exp(-1j * values * tau)) @ vectors.conj().T
    holonomy = linalg.project_onto(u_final, logical)

    coeff = vectors.conj().T @ logical.vectors  # frame in the eigenbasis
    max_dyn = 0.0
    for t in np.linspace(0.0, tau, samples):
        evolved = vectors @ (np.exp(-1j * values * t)[:, None] * coeff)
        block = evolved.conj().T @ h @ evolved
        max_dyn = max(max_dyn, float(np.max(np.abs(block))))

    k = holonomy.shape[0]
    cyclicity = float(np.linalg.norm(holonomy.conj().T @ holonomy - np.eye(k)))
    leakage = max(0.0, 1.0 - float(np.linalg.norm(holonomy) ** 2) / k)
    distance = None
    if ideal is not None:
        distance = linalg.phase_invariant_distance(holonomy, ideal)
    return GateReport(
        holonomy=holonomy,
        cyclicity_residual=cyclicity,
        max_dynamical_norm=max_dyn,
        leakage=leakage,
        analytic_distance=distance,
    )


def discretized_holonomy(
    h: np.ndarray, frame: SubspaceFrame, tau: float, steps: int
) -> np.ndarray:
    """Wilson-line estimate of the geometric holonomy of a cyclic evolution.

    The frame is dragged through the loop in ``steps`` segments and the
    overlap matrices between consecutive frames are multiplied in path
    order, the last factor closing the loop against the initial frame.  The
    chain equals the initial frame sandwiched around the product of the
    intermediate subspace projectors (a Bargmann / Pancharatnam chain), so
    it only sees the subspace path: a stationary frame of eigenvectors
    yields exactly the identity no matter what dynamical phases the states
    acquire, which is what makes this an independent geometric probe.

    Convergence to the parallel-transport holonomy is first order in
    ``tau/steps``, the leading error being a uniform contraction from the
    once-per-step projections; under the zero-dynamics condition the limit
    agrees with the projected evolution of :func:`evolve_and_project`.
    Per-step polar unitarization is deliberately *not* applied: it makes the
    chain independent of the interior frames entirely, which telescopes the
    discretization error away and leaves nothing for a convergence check
    against (the product is then exact to roundoff for any constant
    Hamiltonian).
    """
    if steps < 100:
        raise ValueError(f"need at least 100 steps, got {steps}")
    h = np.asarray(h, dtype=complex)
    f0 = frame.vectors
    u_step = linalg.expm_hermitian(h, tau / steps)

    def checked(overlap: np.ndarray, index: int) -> np.ndarray:
        smallest = np.linalg.svd(overlap, compute_uv=False).min()
        if smallest < 0.5:
            raise RuntimeError(
                f"overlap rank collapse at segment {index} (sigma_min="
                f"{smallest:.3f}); reduce the step size tau/steps"
            )
        return overlap

    product = np.eye(f0.shape[1], dtype=complex)
    f_prev = f0
    for j in range(1, steps):
        f_cur = u_step @ f_prev
        product = checked(f_cur.conj().T @ f_prev, j) @ product
        f_prev = f_cur
    return checked(f0.conj().T @ f_prev, steps) @ product
