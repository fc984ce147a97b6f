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
import numbers
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import linalg, spin_model
from .holonomy import (
    GATE_PRESETS,  # noqa: F401  (read here by tests/test_acceptance.py and demo 04)
    TIME_SAMPLES,
    GateParams1Q,
    GateParams2Q,
    GateReport,
    analytic_gate_1q,
    analytic_gate_2q,
    evolve_and_project,
    loop_target,
    require_phase_precision,
)
from .spin_model import SubspaceFrame, restrict
# Bound only for bench/tests/test_bench.py, which checks that tracing patches them here.
from .spin_model import build_h1, build_h2  # noqa: F401

# Largest sweep grid (steps_per_axis squared) that SweepSpec accepts; the
# CSV rendering of a grid this size is already about 15 MB.
MAX_SWEEP_POINTS = 250_000

# Roundoff allowed in the operator norm (at most 1) of a projected block.
_NORM_SLACK = 1e-9

# Grid points run_sweep evaluates per pass: whole rows, as many as fit (at
# least one), which bounds its temporaries whatever the grid size.
SWEEP_CHUNK_POINTS = 1024


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for a two-axis DM robustness sweep.

    Axis values are the dimensionless ratios omega / D_z per bond.  The gate
    target and its parameters are those of :func:`holonomy.loop_target`,
    which the spec calls once, when it is built, to set ``loop``: the loop
    parameters and ideal gate that :func:`run_sweep` runs.
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
    loop: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("ratio_min", "ratio_max", "omega", "theta", "gamma", "theta_tilde"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.ratio_min <= 0.0:
            raise ValueError(f"ratio_min must be positive, got {self.ratio_min}")
        if self.ratio_min > self.ratio_max:
            raise ValueError(
                f"ratio_min {self.ratio_min} exceeds ratio_max {self.ratio_max}"
            )
        if not isinstance(self.steps_per_axis, numbers.Integral):
            raise ValueError(
                f"steps_per_axis must be an integer, got {self.steps_per_axis}"
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
        # A bound on the largest sector energy; the loop refuses a negative omega.
        if not 4 * (self.omega + self.omega / self.ratio_min) < math.inf:
            raise ValueError(
                f"DM strength omega/ratio_min = {self.omega}/{self.ratio_min} overflows"
            )
        object.__setattr__(self, "loop", loop_target(
            self.theta, self.gamma, gate=self.gate_target, theta_tilde=self.theta_tilde,
            m=self.m, omega=self.omega))


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


def _require_contraction(top: float) -> None:
    # Refuse a projected block whose operator norm ``top`` exceeds 1 by
    # more than roundoff.
    if not top <= 1.0 + _NORM_SLACK:
        raise ValueError(f"projected block has operator norm {top:.6f} > 1")


def gate_fidelity(ideal: np.ndarray, actual_projected: np.ndarray) -> float | np.ndarray:
    """Average state fidelity of a (possibly leaky) projected evolution.

    ``F = (|tr(V^dag U)|^2 + tr(U^dag U)) / (k (k + 1))`` with ``V`` the
    ideal unitary and ``U`` the projected block; equal to 1 exactly when the
    block matches the ideal up to a global phase, and penalizing leakage
    through the trace term.  A single ``k x k`` block gives a float; a
    stack of blocks of shape ``(..., k, k)`` gives an array of fidelities.
    Blocks with non-finite entries or operator norm above 1 are refused with
    ``ValueError``.
    """
    ideal = np.asarray(ideal, dtype=complex)
    actual = np.asarray(actual_projected, dtype=complex)
    if ideal.ndim != 2 or ideal.shape[0] != ideal.shape[1] or actual.shape[-2:] != ideal.shape:
        raise ValueError(f"dimension mismatch: {ideal.shape} vs {actual.shape}")
    if not np.isfinite(actual).all():
        raise ValueError("projected block has non-finite (NaN or infinite) entries")
    _require_contraction(np.max(np.linalg.norm(actual, ord=2, axis=(-2, -1))))
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
    g: GateParams1Q, d1_ratio: float, d2_ratio: float, samples: int = TIME_SAMPLES
) -> GateReport:
    """Single-qubit holonomic loop with DM noise on both bonds.

    DM strengths are ``omega / ratio``; infinite ratios mean no noise.  The
    loop runs for the unperturbed duration and is compared against the ideal
    closed-form gate.
    """
    ideal = analytic_gate_1q(g.theta, g.gamma)
    return _perturbed_gate(g, ideal, d1_ratio, d2_ratio, samples)


def perturbed_gate_2q(
    g: GateParams2Q, d32_ratio: float, d42_ratio: float, samples: int = TIME_SAMPLES
) -> GateReport:
    """Two-qubit holonomic loop with DM noise on both bridge bonds."""
    ideal = analytic_gate_2q(g.theta_tilde)
    return _perturbed_gate(g, ideal, d32_ratio, d42_ratio, samples)


def sweep_axes(spec: SweepSpec) -> np.ndarray:
    if not spec.log_scale:
        return np.linspace(spec.ratio_min, spec.ratio_max, spec.steps_per_axis)
    # logspace computes the ends as 10**log10(ratio), which can round past
    # the largest float.
    with np.errstate(over="ignore"):
        axis = np.logspace(math.log10(spec.ratio_min), math.log10(spec.ratio_max),
                           spec.steps_per_axis)
    if not axis[-1] < math.inf:
        raise ValueError(f"ratio_max = {spec.ratio_max:g} overflows the logarithmic "
                         f"ratio axis; lower it or use a linear one")
    return axis


@cache
def _loop_setup(loop: type):
    # A loop type's unit DM bonds restricted to its sector, ((G1, r1), (G2, r2))
    # with read-only G, and _lambda_split of their pattern: any H0 of the type
    # couples the same entries and adds only the excited levels' energies.
    sector, logical = loop.frames()
    bonds = tuple(restrict(bond, sector) for bond in spin_model.dm_bonds(sector.n_qubits))
    for bond, _ in bonds:
        bond.setflags(write=False)
    return (bonds, *_lambda_split((bonds[0][0] != 0) | (bonds[1][0] != 0), sector, logical))


def _require_lambda_entries(nonzero: np.ndarray, allowed: np.ndarray, labels) -> None:
    # Refuse the first nonzero entry of a symmetric pattern outside ``allowed``.
    stray = nonzero & ~allowed
    if stray.any():
        a, b = (labels[i] for i in np.argwhere(stray)[0])
        raise ValueError(f"sector Hamiltonian is not a lambda system: <{a}|H|{b}> is not zero")


def _lambda_blocks(h0: np.ndarray, sector: SubspaceFrame, loop: type):
    # H0 (restricted to ``sector``) and the unit bonds of ``loop`` as equal,
    # uncoupled lambda systems: block j couples one excited level to the
    # logical rows rows[j], with coupling rows couplings[i, j] and energies
    # detunings[i, j] in term i.  A non-Hermitian H0, or one with any other
    # nonzero entry, is refused: the closed form meets no other Hamiltonian.
    ((g1, _), (g2, _)), (rows, hubs, ground), allowed = _loop_setup(loop)
    stack = np.array([h0, g1, g2])
    linalg.require_hermitian(stack, "sector Hamiltonian")
    _require_lambda_entries((h0 != 0) | (h0.T != 0), allowed, sector.labels)
    return rows, stack[:, hubs[:, None], ground], stack[:, hubs, hubs].real


def _lambda_split(nonzero: np.ndarray, sector: SubspaceFrame, logical: SubspaceFrame):
    # The split ``(rows, hubs, ground)`` of a nonzero pattern into lambda
    # blocks: logical rows, excited level and sector rows of each block, and
    # the entries the blocks allow, all read-only; ValueError otherwise.
    labels = sector.labels
    nonzero = nonzero | nonzero.T
    ground = [labels.index(label) for label in logical.labels]
    excited = [i for i in range(len(labels)) if i not in ground]
    partner = [next((e for e in excited if nonzero[g, e]), None) for g in ground]
    if None in partner:
        raise ValueError(f"sector Hamiltonian is not a lambda system: logical level "
                         f"{labels[ground[partner.index(None)]]} couples to no excited level")
    allowed = np.zeros_like(nonzero)
    allowed[ground, partner] = allowed[partner, ground] = True
    allowed[excited, excited] = True
    _require_lambda_entries(nonzero, allowed, labels)
    hubs = list(dict.fromkeys(partner))
    rows = [[pos for pos, e in enumerate(partner) if e == hub] for hub in hubs]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("sector Hamiltonian is not a lambda system of equal blocks")
    rows = np.array(rows)
    split = rows, np.array(hubs), np.array(ground)[rows]
    for array in (*split, allowed):
        array.setflags(write=False)
    return split, allowed


def _lambda_points(blocks, d1: np.ndarray, d2: np.ndarray):
    # Coupling vectors (..., blocks, k) and detunings (..., blocks) of the
    # excited levels at DM strengths d1, d2 (broadcast against each other),
    # summed in the order (H0 + d1*G1) + d2*G2 of the full Hamiltonian.
    _, (c0, c1, c2), (x0, x1, x2) = blocks
    return ((c0 + d1[..., None] * c1) + d2[..., None] * c2,
            (x0 + d1 * x1) + d2 * x2)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the fidelity/leakage grid for a sweep specification.

    The perturbed Hamiltonian ``H0 + d1*G1 + d2*G2`` is linear in the DM
    strengths and leaves the fixed-excitation sector invariant, so the three
    terms are restricted to the sector and split into lambda systems once
    (the unit bonds ``G1``, ``G2`` and the split once per loop type and
    process, by ``_loop_setup``): one for the single-qubit
    loop, two (one per value of the first logical qubit) for the two-qubit
    loop.  In each, the logical block is zero and only the bright state
    ``b = conj(c)/|c|`` of the logical rows couples, through the coupling
    vector ``c``, to one excited level at detuning ``delta``, so the
    projected gate has the closed form (Sjoqvist et al., NJP 14, 103035
    (2012))

        ``U = I - (1 - A) b b^dag``,
        ``A = exp(-i delta tau/2) (cos(alpha tau) + i delta/(2 alpha) sin(alpha tau))``,

    with ``alpha = hypot(|c|, delta/2)``; the block's singular values are 1
    and ``|A|``, and its energies 0 and ``delta/2 +- alpha``.  ``|c|`` and
    ``alpha`` are built with ``hypot``, never by squaring a coupling, and
    the grid is evaluated about ``SWEEP_CHUNK_POINTS`` points (whole rows of
    fixed first ratio) at a time.  Sector leakage is bounded by
    ``||Q U(tau) P|| <= tau ||Q H P||``, with ``||Q H P||`` at most the
    residual-weighted sum of the three terms.

    Raises ``ValueError`` when the sector terms are not such lambda systems,
    and when the loop phases ``|E|*tau`` are so large that their float64
    roundoff exceeds ``holonomy.PHASE_ROUNDOFF_LIMIT`` (see
    :func:`holonomy.require_phase_precision`); the message names the row
    with the largest loop phase among the rows of the first chunk that
    fails.  Rows are indexed by the first axis and the output is
    deterministic.
    """
    axis = sweep_axes(spec)
    g, ideal = spec.loop
    sector, _ = g.frames()
    h0, r0 = restrict(g.hamiltonian(), sector)
    blocks = _lambda_blocks(h0, sector, type(g))
    (_, r1), (_, r2) = _loop_setup(type(g))[0]
    rows = blocks[0]
    # tr V_j^dag and V_j^dag of the ideal gate's diagonal blocks.
    ideal_dag = ideal.conj().T[rows[:, :, None], rows[:, None, :]]
    trace_dag = np.trace(ideal_dag, axis1=-2, axis2=-1)
    k = len(ideal)
    tau = g.tau
    strengths = spec.omega / axis
    d2 = strengths[:, None]
    n = len(axis)
    fidelity = np.empty((n, n))
    rows_per_chunk = max(1, SWEEP_CHUNK_POINTS // n)
    for start in range(0, n, rows_per_chunk):
        d1 = strengths[start:start + rows_per_chunk, None, None]
        c, delta = _lambda_points(blocks, d1, d2)
        size = np.hypot.reduce(np.abs(c), axis=-1)
        half = delta / 2
        alpha = np.hypot(size, half)
        # Largest |E| per row; the guard sees the chunk's largest (or first
        # NaN) and names its row.
        top = (np.abs(half) + alpha).max(axis=(1, 2))
        i = int(top.argmax())
        require_phase_precision(top[i], tau, where=f" at ratio1 = {axis[start + i]:.6g}",
                                remedy="raise ratio_min or lower m")
        phase = alpha * tau
        a = np.exp(-0.5j * tau * delta) * (
            np.cos(phase) + 1j * (half / alpha) * np.sin(phase))
        norm = np.abs(a)
        _require_contraction(norm.max())
        # c underflows to 0 where a loop with no exchange coupling meets DM
        # strengths below the float range; the block is then the identity.
        unit = np.divide(c, size[..., None], out=np.zeros_like(c), where=size[..., None] > 0)
        # b^dag V_j^dag b with b = conj(unit).
        bright = np.einsum("...ja,jab,...jb->...j", unit, ideal_dag, unit.conj())
        overlap = (trace_dag - (1 - a) * bright).sum(axis=-1)
        trace_term = (rows.shape[1] - 1 + norm**2).sum(axis=-1)
        np.clip((np.abs(overlap) ** 2 + trace_term) / (k * (k + 1)), 0.0, 1.0,
                out=fidelity[start:start + len(d1)])
    leakage = np.minimum(
        (tau * (r0 + strengths[:, None] * r1 + strengths * r2)) ** 2, 1.0)
    return SweepTable(axis1=axis.copy(), axis2=axis.copy(), fidelity=fidelity,
                      leakage=leakage)
