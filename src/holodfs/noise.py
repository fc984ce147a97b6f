"""Gate robustness against Dzyaloshinskii-Moriya perturbations.

The DM z-component rides on the same bonds as the XY exchange and commutes
with the total excitation number, so it never ejects population from the
fixed-excitation sector; all infidelity it causes is intra-sector (dark
state tilt, mistimed loop closure, leakage into the ancilla-like states).
Perturbed gates always run for the unperturbed loop duration, modelling an
experiment calibrated to the ideal loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .holonomy import (
    GateParams1Q,
    GateParams2Q,
    GateReport,
    analytic_gate_1q,
    analytic_gate_2q,
    evolve_and_project,
    params_for_rotation,
)
from .spin_model import SubspaceFrame, restrict
# Bound only for bench/tests/test_bench.py, which checks that tracing patches them here.
from .spin_model import build_h1, build_h2  # noqa: F401

# Preset single-qubit targets: (theta, gamma).
GATE_PRESETS = {
    "hadamard": (3 * math.pi / 4, math.pi),
    "pi8": (0.0, math.pi / 4),
}

# Largest sweep grid (steps_per_axis squared) that SweepSpec accepts; the
# CSV rendering of a grid this size is already about 15 MB.
MAX_SWEEP_POINTS = 250_000

# Largest float64 roundoff tolerated in the loop phases |E|*tau: the
# tolerance the gate formula is checked to.
PHASE_ROUNDOFF_LIMIT = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for a two-axis DM robustness sweep.

    Axis values are the dimensionless ratios omega / D_z per bond.  The
    gate target is one of ``hadamard``, ``pi8``, ``custom`` (requires
    ``theta`` and ``gamma``) or ``two_qubit`` (requires ``theta_tilde``).
    """

    gate_target: str
    ratio_min: float = 1.0
    ratio_max: float = 100.0
    steps_per_axis: int = 50
    log_scale: bool = True
    theta: float | None = None
    gamma: float | None = None
    theta_tilde: float | None = None
    m: int = 1
    omega: float = 1.0

    def __post_init__(self):
        for name in ("ratio_min", "ratio_max", "omega", "theta", "gamma", "theta_tilde"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gate_target not in ("hadamard", "pi8", "custom", "two_qubit"):
            raise ValueError(f"unknown gate target {self.gate_target!r}")
        if self.gate_target == "custom" and (self.theta is None or self.gamma is None):
            raise ValueError("custom gate target requires theta and gamma")
        if self.gate_target == "two_qubit" and self.theta_tilde is None:
            raise ValueError("two_qubit gate target requires theta_tilde")
        if self.ratio_min <= 0.0:
            raise ValueError(f"ratio_min must be positive, got {self.ratio_min}")
        if self.ratio_min > self.ratio_max:
            raise ValueError(
                f"ratio_min {self.ratio_min} exceeds ratio_max {self.ratio_max}"
            )
        if self.steps_per_axis < 2:
            raise ValueError(
                f"steps_per_axis must be at least 2, got {self.steps_per_axis}"
            )
        points = self.steps_per_axis**2
        if points > MAX_SWEEP_POINTS:
            raise ValueError(
                f"steps_per_axis={self.steps_per_axis} gives {points} grid points, "
                f"more than MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}"
            )
        if not math.isfinite(self.omega / self.ratio_min):
            raise ValueError(
                f"DM strength omega/ratio_min = {self.omega}/{self.ratio_min} overflows"
            )


@dataclass(frozen=True)
class SweepTable:
    """Fidelity and sector-leakage surfaces over the two DM ratio axes.

    Rows are indexed by ``axis1`` and columns by ``axis2``.  ``leakage`` is
    an upper bound on the population escaping the fixed-excitation sector,
    ``min(1, (tau * (r0 + |d1| r1 + |d2| r2))**2)`` from the invariance
    residuals ``r = ||(I - P) X P||_F`` of the unperturbed Hamiltonian and
    of the two unit DM bonds.  The DM z-terms conserve excitation number,
    so every residual, and with them the bound, is exactly zero.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    fidelity: np.ndarray
    leakage: np.ndarray


def gate_fidelity(ideal: np.ndarray, actual_projected: np.ndarray) -> float | np.ndarray:
    """Average state fidelity of a (possibly leaky) projected evolution.

    ``F = (|tr(V^dag U)|^2 + tr(U^dag U)) / (k (k + 1))`` with ``V`` the
    ideal unitary and ``U`` the projected block; equal to 1 exactly when the
    block matches the ideal up to a global phase, and penalizing leakage
    through the trace term.  A single ``k x k`` block gives a float; a
    stack of blocks of shape ``(..., k, k)`` gives an array of fidelities.
    """
    ideal = np.asarray(ideal, dtype=complex)
    actual = np.asarray(actual_projected, dtype=complex)
    if ideal.ndim != 2 or ideal.shape[0] != ideal.shape[1] or actual.shape[-2:] != ideal.shape:
        raise ValueError(f"dimension mismatch: {ideal.shape} vs {actual.shape}")
    top = np.max(np.linalg.norm(actual, ord=2, axis=(-2, -1)))
    if top > 1.0 + 1e-9:
        raise ValueError(f"projected block has operator norm {top:.6f} > 1")
    k = ideal.shape[0]
    overlap = np.abs(np.einsum("ab,...ab->...", ideal.conj(), actual)) ** 2
    trace_term = np.einsum("...ab,...ab->...", actual.conj(), actual).real
    fidelity = (overlap + trace_term) / (k * (k + 1))
    return float(fidelity) if actual.ndim == 2 else fidelity


def _sector_leakage(h: np.ndarray, sector: SubspaceFrame, logical: SubspaceFrame,
                    tau: float) -> float:
    # Mean population of the evolved logical basis states outside the
    # fixed-excitation sector.
    u = linalg.expm_hermitian(h, tau)
    evolved = u @ logical.vectors
    inside = sector.vectors.conj().T @ evolved
    populations = np.sum(np.abs(inside) ** 2, axis=0)
    return max(0.0, 1.0 - float(populations.mean()))


def _perturbed_gate(g: GateParams1Q | GateParams2Q, ideal: np.ndarray,
                    d1_ratio: float, d2_ratio: float, samples: int) -> GateReport:
    # The loop of ``g`` with DM strengths omega/ratio on its two bonds, run
    # in full space for the unperturbed duration.
    if not (d1_ratio > 0.0 and d2_ratio > 0.0):
        raise ValueError(f"DM ratios must be positive, got {d1_ratio} and {d2_ratio}")
    h0, g1, g2 = g.terms()
    h = h0 + (g.omega / d1_ratio) * g1 + (g.omega / d2_ratio) * g2
    sector, logical = g.frames()
    report = evolve_and_project(h, logical, g.tau, samples=samples, ideal=ideal)
    return replace(
        report,
        fidelity=gate_fidelity(ideal, report.holonomy),
        sector_leakage=_sector_leakage(h, sector, logical, g.tau),
    )


def perturbed_gate_1q(
    g: GateParams1Q, d1_ratio: float, d2_ratio: float, samples: int = 101
) -> GateReport:
    """Single-qubit holonomic loop with DM noise on both bonds.

    DM strengths are ``omega / ratio``; infinite ratios mean no noise.  The
    loop runs for the unperturbed duration and is compared against the ideal
    closed-form gate.
    """
    ideal = analytic_gate_1q(g.theta, g.gamma)
    return _perturbed_gate(g, ideal, d1_ratio, d2_ratio, samples)


def perturbed_gate_2q(
    g: GateParams2Q, d32_ratio: float, d42_ratio: float, samples: int = 101
) -> GateReport:
    """Two-qubit holonomic loop with DM noise on both bridge bonds."""
    ideal = analytic_gate_2q(g.theta_tilde)
    return _perturbed_gate(g, ideal, d32_ratio, d42_ratio, samples)


def _sweep_target(spec: SweepSpec):
    # Loop parameters and ideal gate of the sweep's target.  The single-qubit
    # ideal comes from the requested angles, not from the synthesized phi.
    if spec.gate_target == "two_qubit":
        g = GateParams2Q(theta_tilde=spec.theta_tilde, m_tilde=spec.m,
                         omega_tilde=spec.omega)
        return g, analytic_gate_2q(g.theta_tilde)
    theta, gamma = GATE_PRESETS.get(spec.gate_target, (spec.theta, spec.gamma))
    g = params_for_rotation(theta, gamma, m=spec.m, omega=spec.omega)
    return g, analytic_gate_1q(theta, gamma)


def sweep_axes(spec: SweepSpec) -> np.ndarray:
    if spec.log_scale:
        return np.logspace(
            math.log10(spec.ratio_min), math.log10(spec.ratio_max), spec.steps_per_axis
        )
    return np.linspace(spec.ratio_min, spec.ratio_max, spec.steps_per_axis)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the fidelity/leakage grid for a sweep specification.

    The perturbed Hamiltonian ``H0 + d1*G1 + d2*G2`` is linear in the DM
    strengths and leaves the fixed-excitation sector invariant, so the three
    terms are restricted to the sector once and each grid row (fixed first
    ratio) is diagonalized as one stack of sector Hamiltonians.  Sector
    leakage is bounded by ``||Q U(tau) P|| <= tau ||Q H P||``, with
    ``||Q H P||`` at most the residual-weighted sum of the three terms.

    Raises ``ValueError`` when the loop phases ``|E|*tau`` are so large that
    their float64 roundoff exceeds ``PHASE_ROUNDOFF_LIMIT``.  Rows are
    indexed by the first axis and the output is deterministic.
    """
    axis = sweep_axes(spec)
    g, ideal = _sweep_target(spec)
    sector, logical_frame = g.frames()
    (e0, e1, e2), (r0, r1, r2) = zip(*(restrict(term, sector) for term in g.terms()))
    logical = [sector.labels.index(label) for label in logical_frame.labels]
    tau = g.tau
    strengths = spec.omega / axis
    n = len(axis)
    fidelity = np.empty((n, n))
    leakage = np.empty((n, n))
    for i, d1 in enumerate(strengths):
        values, vectors = np.linalg.eigh(e0 + d1 * e1 + strengths[:, None, None] * e2)
        roundoff = float(np.max(np.abs(values))) * tau * _EPS
        if not roundoff <= PHASE_ROUNDOFF_LIMIT:
            raise ValueError(
                f"loop phase |E|*tau = {roundoff / _EPS:.3g} at ratio1 = {axis[i]:.6g} "
                f"leaves float64 roundoff {roundoff:.3g} above the gate tolerance "
                f"{PHASE_ROUNDOFF_LIMIT:g}; raise ratio_min or lower m"
            )
        rows = vectors[:, logical, :]
        block = (rows * np.exp(-1j * tau * values)[:, None, :]) @ rows.conj().swapaxes(1, 2)
        fidelity[i] = np.clip(gate_fidelity(ideal, block), 0.0, 1.0)
        leakage[i] = np.minimum((tau * (r0 + d1 * r1 + strengths * r2)) ** 2, 1.0)
    return SweepTable(axis1=axis.copy(), axis2=axis.copy(), fidelity=fidelity,
                      leakage=leakage)
