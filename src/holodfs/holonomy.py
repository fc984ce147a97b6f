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
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg, spin_model
from .spin_model import SIGMA_X, SIGMA_Z, CouplingParams1Q, CouplingParams2Q, SubspaceFrame

# Largest float64 roundoff tolerated in the loop phases |E|*tau: the
# tolerance the gate formula is checked to.
PHASE_ROUNDOFF_LIMIT = 1e-9
_EPS = float(np.finfo(float).eps)

# Time samples of the dynamics check unless a caller sets them, and the most
# that evolve_and_project accepts.
TIME_SAMPLES = 101
MAX_TIME_SAMPLES = 1_000_000
# The check evaluates as many sampled times per stacked pass as keep its
# gemm below this many multiply-adds, which holds the pass on one thread in
# OpenBLAS, the BLAS that numpy wheels bundle: it threads a gemm from
# m*n*k = 65536 on, and its threads then spin for a while after returning,
# taking CPU time from whatever the process or the machine runs next, for
# products too small to gain from threads.
_GEMM_SINGLE_THREAD = 65536


def require_phase_precision(values: np.ndarray, tau: float, where: str = "",
                            remedy: str = "lower the winding") -> None:
    """Refuse a loop whose phases ``|E|*tau`` have lost float64 precision.

    ``values`` holds the eigenvalues (any shape) of the loop Hamiltonian(s)
    run for ``tau``; ``where`` and ``remedy`` complete the message.  Raises
    ``ValueError`` naming ``|E|*tau`` when its roundoff exceeds
    ``PHASE_ROUNDOFF_LIMIT``.
    """
    roundoff = float(np.max(np.abs(values))) * tau * _EPS
    if not roundoff <= PHASE_ROUNDOFF_LIMIT:
        raise ValueError(
            f"loop phase |E|*tau = {roundoff / _EPS:.3g}{where} "
            f"leaves float64 roundoff {roundoff:.3g} above the gate tolerance "
            f"{PHASE_ROUNDOFF_LIMIT:g}; {remedy}"
        )


def _require_winding(name: str, value: int) -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"winding {name} must be a positive integer, got {value}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(
            f"winding {name} with {len(str(value))} digits is too large for a float"
        ) from None


def _require_scale(name: str, omega: float, winding: str, m: int) -> None:
    # omega > 0 with tau = m*pi/omega and 2*omega finite: the 1q Hamiltonian holds 2b.
    if not 0.0 < omega < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {omega}")
    if not m * math.pi / omega < math.inf:
        raise ValueError(f"loop duration tau = {winding}*pi/{name} overflows at "
                         f"{winding}={float(m):g}, {name}={omega:g}")
    if not 2.0 * omega < math.inf:
        raise ValueError(f"{name}={omega:g} overflows the loop Hamiltonian (2*{name})")


@dataclass(frozen=True)
class GateParams1Q:
    """Control parameters of one single-qubit holonomic loop.

    ``theta`` fixes the rotation axis (sin theta, 0, -cos theta), ``phi``
    fixes the rotation angle gamma = m*pi*(cos phi + 1) through the coupling
    mix, ``m`` counts windings and ``omega`` is the overall energy scale.
    The loop duration is ``tau = m*pi/omega`` (hbar = 1).

    Both loop types share the members ``omega``, ``tau``, ``hamiltonian()``,
    ``terms()`` and ``frames()``, so the code that runs a loop serves either.
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
        _require_scale("omega", self.omega, "m", self.m)

    @property
    def tau(self) -> float:
        return self.m * math.pi / self.omega

    @property
    def gamma(self) -> float:
        return self.m * math.pi * (math.cos(self.phi) + 1.0)

    def couplings(self) -> CouplingParams1Q:
        return CouplingParams1Q(
            j1a=self.omega * math.sin(self.phi) * math.cos(self.theta / 2),
            j2a=self.omega * math.sin(self.phi) * math.sin(self.theta / 2),
            b=self.omega * math.cos(self.phi),
        )

    def hamiltonian(self) -> np.ndarray:
        """Full-space loop Hamiltonian ``H0`` without DM noise."""
        return spin_model.build_h1(self.couplings())

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-space ``(H0, G1, G2)``: the loop Hamiltonian under DM strengths
        ``d1``, ``d2`` on the bonds Q1-Qa and Qa-Q2 is ``H0 + d1*G1 + d2*G2``."""
        return (self.hamiltonian(), *spin_model.dm_bonds(3))

    @staticmethod
    def frames(effective: bool = False) -> tuple[SubspaceFrame, SubspaceFrame]:
        """Frames of the loop's excitation sector and logical qubit.

        The sector frame is in full space; the logical frame too, or with
        ``effective=True`` in the sector's coordinates.  Both are the frames
        ``spin_model`` builds once per process.
        """
        return spin_model.dfs3_frame(), spin_model.logical_frame_1q(effective)


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
        _require_scale("omega_tilde", self.omega_tilde, "m_tilde", self.m_tilde)

    @property
    def omega(self) -> float:
        return self.omega_tilde

    @property
    def tau(self) -> float:
        return self.m_tilde * math.pi / self.omega_tilde

    def couplings(self) -> CouplingParams2Q:
        return CouplingParams2Q(
            j32=self.omega_tilde * math.sin(self.theta_tilde / 2),
            j42=self.omega_tilde * math.cos(self.theta_tilde / 2),
        )

    def hamiltonian(self) -> np.ndarray:
        """Full-space loop Hamiltonian ``H0`` without DM noise."""
        return spin_model.build_h2(self.couplings())

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-space ``(H0, G1, G2)`` with DM generators on the bonds Q3-Q2
        and Q2-Q4, as for :meth:`GateParams1Q.terms`."""
        return (self.hamiltonian(), *spin_model.dm_bonds(4))

    @staticmethod
    def frames(effective: bool = False) -> tuple[SubspaceFrame, SubspaceFrame]:
        """Frames of the 6-dim sector and the two logical qubits, as for
        :meth:`GateParams1Q.frames`."""
        return spin_model.dfs6_frame(), spin_model.logical_frame_2q(effective)


@dataclass(frozen=True)
class GateReport:
    """Verification summary of one projected evolution.

    ``cyclicity_residual`` is the Frobenius unitarity defect of the
    projected final operator, ``max_dynamical_norm`` the largest magnitude
    of a logical-block Hamiltonian element ``F(t)^dag H F(t)`` seen at the
    sampled times, evaluated as ``C(t)^dag (V^dag H V) C(t)`` in the
    eigenbasis ``V`` of ``H`` (zero means parallel transport; see
    :func:`evolve_and_project`), ``leakage`` the mean population escaping the
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


# Preset single-qubit targets: (theta, gamma).
GATE_PRESETS = {
    "hadamard": (3 * math.pi / 4, math.pi),
    "pi8": (0.0, math.pi / 4),
}
# The target that each loop parameter of loop_target belongs to.
_PARAM_TARGETS = {"theta": "custom", "gamma": "custom", "theta_tilde": "two_qubit"}


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

    The reachable rotation angles for winding ``m`` are [0, 2*m*pi]; above
    that range the error names the smallest winding that works, and a
    negative angle, which no winding reaches, is refused as such (the gate
    is 2*pi-periodic in gamma, so gamma mod 2*pi gives the same one).  Axes
    with theta outside [0, pi] are covered by the identity
    R_{-n}(gamma) = R_{n}(-gamma).
    """
    _require_winding("m", m)
    if not math.isfinite(gamma):
        raise ValueError(f"rotation angle gamma must be finite, got {gamma}")
    if gamma < 0.0:
        raise ValueError(
            f"rotation angle gamma={gamma:g} is negative, and no winding reaches "
            f"a negative angle; gamma={gamma % (2.0 * math.pi):g} gives the same gate"
        )
    limit = 2.0 * m * math.pi
    if not gamma <= limit:
        m_min = math.ceil(gamma / (2.0 * math.pi))
        raise ValueError(
            f"rotation angle gamma={gamma:g} is outside [0, 2*m*pi] for m={m}; "
            f"smallest feasible winding is m={m_min}"
        )
    phi = math.acos(gamma / (m * math.pi) - 1.0)
    return GateParams1Q(theta=theta, phi=phi, m=m, omega=omega)


def loop_target(theta: float | None = None, gamma: float | None = None, *,
                gate: str | None = None, theta_tilde: float | None = None,
                m: int = 1, omega: float = 1.0):
    """Loop parameters and ideal gate ``(params, ideal)`` of one target.

    ``gate`` is a preset of ``GATE_PRESETS``, ``custom`` (rotation by ``gamma``
    about the axis ``theta``) or ``two_qubit`` (``theta_tilde``); ``None`` is
    ``two_qubit`` if ``theta_tilde`` is given, else ``custom``.  ``m`` and
    ``omega`` are the winding and energy scale.  An unknown target, a missing
    parameter, one of another target and a refused loop raise ``ValueError``.
    """
    given = {"theta": theta, "gamma": gamma, "theta_tilde": theta_tilde}
    if gate is None:
        gate = "custom" if theta_tilde is None else "two_qubit"
    if gate not in (*GATE_PRESETS, *_PARAM_TARGETS.values()):
        raise ValueError(f"unknown gate target {gate!r}")
    takes = [name for name, target in _PARAM_TARGETS.items() if target == gate]
    if any(given[name] is None for name in takes):
        raise ValueError(f"{gate} gate target requires {' and '.join(takes)}")
    for name, target in _PARAM_TARGETS.items():
        if given[name] is not None and gate != target:
            raise ValueError(f"{name} applies only to the {target} gate target, not {gate}")
    if gate == "two_qubit":
        params = GateParams2Q(theta_tilde=theta_tilde, m_tilde=m, omega_tilde=omega)
        return params, analytic_gate_2q(params.theta_tilde)
    theta, gamma = GATE_PRESETS.get(gate, (theta, gamma))
    # The ideal comes from the requested angles: params.gamma went through
    # acos and can differ from gamma in its last bits.
    return (params_for_rotation(theta, gamma, m=m, omega=omega),
            analytic_gate_1q(theta, gamma))


def _max_logical_block(h: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                       frame: np.ndarray, tau: float, samples: int) -> float:
    # Largest |F(t)^dag h F(t)| entry over ``samples`` times in [0, tau], with
    # the d x k frame evolved as F(t) = V exp(-i E t) V^dag F(0) for the
    # eigensystem (E, V) = (values, vectors).  The products are regrouped as
    # C(t)^dag M C(t) with M = V^dag h V and C(t) = exp(-i E t) coeff; a chunk
    # of times is laid out (d, k, chunk), so M C is one gemm over all its
    # times, and the k x k blocks coeff^dag (exp(+i E t) M C) are one more.
    coeff = vectors.conj().T @ frame  # frame in the eigenbasis
    m = vectors.conj().T @ h @ vectors
    times = np.linspace(0.0, tau, samples)
    d = len(values)
    chunk = max(1, (_GEMM_SINGLE_THREAD - 1) // (d * coeff.size))
    max_dyn = 0.0
    for start in range(0, samples, chunk):
        phases = np.exp(-1j * values[:, None] * times[start:start + chunk])
        evolved = coeff[:, :, None] * phases[:, None, :]
        moved = (m @ evolved.reshape(d, -1)).reshape(evolved.shape)
        block = coeff.conj().T @ (phases.conj()[:, None, :] * moved).reshape(d, -1)
        max_dyn = max(max_dyn, float(np.max(np.abs(block))))
    return max_dyn


def evolve_and_project(
    h: np.ndarray,
    logical: SubspaceFrame,
    tau: float,
    samples: int = TIME_SAMPLES,
    ideal: np.ndarray | None = None,
) -> GateReport:
    """Evolve under constant ``h`` for ``tau`` and project on a logical frame.

    The projected final operator is returned as the holonomy, together with
    its unitarity defect, the leakage out of the frame, and, when ``ideal``
    is given, the phase-invariant distance to it.

    The parallel-transport check runs literally at ``samples`` uniformly
    spaced times in ``[0, tau]``: ``max_dynamical_norm`` is the largest
    magnitude of the logical-block Hamiltonian ``F(t)^dag h F(t)`` over
    those times, with ``F(t) = V exp(-i E t) V^dag F(0)`` for the
    eigensystem ``(E, V)`` of ``h``.  It is evaluated regrouped as
    ``C(t)^dag (V^dag h V) C(t)`` with ``C(t) = exp(-i E t) V^dag F(0)``,
    so each chunk of times costs one matrix product over all its times
    plus one ``k``-row product.  A chunk holds as many times as keep that
    product on one BLAS thread (``_GEMM_SINGLE_THREAD``), which also bounds
    memory whatever ``samples`` is: 3640 times and 0.35 MB per chunk array
    for a 3-dim Hamiltonian and a 2-dim frame, 63 times for 16 and 4.  For
    a constant Hamiltonian every sampled block equals the static block
    ``F(0)^dag h F(0)`` up to roundoff.

    Raises ``ValueError`` when ``samples`` is not an integer, below 2 or
    above ``MAX_TIME_SAMPLES`` (checked before anything is allocated), and
    when the loop phases ``|E|*tau`` have lost float64 precision (see
    :func:`require_phase_precision`).
    """
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"time samples must be an integer, got {samples}")
    if samples < 2:
        raise ValueError(f"need at least 2 time samples, got {samples}")
    if samples > MAX_TIME_SAMPLES:
        raise ValueError(
            f"time samples={samples} exceeds MAX_TIME_SAMPLES={MAX_TIME_SAMPLES}"
        )
    h = np.asarray(h, dtype=complex)
    values, vectors = linalg.eigh(h)
    require_phase_precision(values, tau)
    u_final = (vectors * np.exp(-1j * values * tau)) @ vectors.conj().T
    holonomy = linalg.project_onto(u_final, logical)

    max_dyn = _max_logical_block(h, values, vectors, logical.vectors, tau, samples)
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
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps}")
    if steps < 100:
        raise ValueError(f"need at least 100 steps, got {steps}")
    h = np.asarray(h, dtype=complex)
    f0 = frame.vectors
    u_step = linalg.expm_hermitian(h, tau / steps)

    def checked(overlap: np.ndarray, index: int) -> np.ndarray:
        smallest = np.linalg.svd(overlap, compute_uv=False).min()
        if not smallest >= 0.5:
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
