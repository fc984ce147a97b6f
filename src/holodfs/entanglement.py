"""Local-equivalence classification of two-qubit gates.

Local invariants follow Makhlin (Quant. Inf. Proc. 1, 243 (2002)); the
canonical Weyl-chamber coordinates use the eigenphase algorithm of Childs et
al. (PRA 68, 052311 (2003)).  Conventions that the numbers depend on:

* Magic basis ``Q`` with columns (|00>+|11>, -i|00>+i|11>, |01>-|10>,
  -i|01>-i|10>)/sqrt(2).
* Weyl chamber = tetrahedron with vertices O=(0,0,0), A1=(pi,0,0),
  A2=(pi/2,pi/2,0), A3=(pi/2,pi/2,pi/2); the CNOT class sits at the point
  L=(pi/2,0,0).  Coordinates are reduced into the chamber by eigenphase
  sorting and the c3<0 reflection; the residual identification of
  (c1,c2,0) with (pi-c1,c2,0) on the base is deliberately not folded, so
  the one-parameter gate family traces the whole edge O-A1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron, unitarity_defect
from .spin_model import SIGMA_Y

EP_MAX = 2.0 / 9.0

_Q_MAGIC = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / math.sqrt(2)

_SYSY = kron(SIGMA_Y, SIGMA_Y)

# Maps the reduced eigenphase vector to (c1, c2, c3).
_COORD_MIX = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)

CNOT_POINT = (math.pi / 2, 0.0, 0.0)

# Largest Monte-Carlo sample count: the draws take 64 bytes per sample, so
# the cap bounds them at 640 MB.
MAX_MC_SAMPLES = 10_000_000
# Rows per chunk of the Monte-Carlo kernel: each complex temporary of a
# chunk is 0.5 MB at most, so a chunk's working set stays in cache.
_MC_CHUNK = 8192


@dataclass(frozen=True)
class EntanglementReport:
    """Classification of one two-qubit gate.

    ``ep`` is the entangling power; for gates from the structured family it
    is the exact closed form, otherwise the seeded Monte-Carlo estimate
    whose standard error is then reported in ``ep_stderr``.
    """

    g1: complex
    g2: float
    weyl: tuple[float, float, float]
    ep: float
    cnot_equivalent: bool
    ep_stderr: float | None = None


def require_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    """Return ``u`` as a complex array after checking that it is a finite
    4x4 matrix with unitarity defect at most ``tol``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite (NaN or infinite) entries")
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds {tol:.0e}")
    return u


def local_invariants(u: np.ndarray, tol: float = 1e-10) -> tuple[complex, float]:
    """Makhlin local invariants (G1, G2) of a two-qubit unitary.

    G1 is complex in general, G2 real; both are unchanged under
    ``u -> (a (x) b) u (c (x) d)`` for any single-qubit unitaries and under
    global phases.
    """
    u = require_unitary(u, tol)
    ub = _Q_MAGIC.conj().T @ u @ _Q_MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr**2 / (16.0 * det)
    g2 = (tr**2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)


def _invariants_from_weyl(c1: float, c2: float, c3: float) -> tuple[complex, float]:
    # Closed form of (G1, G2) on the chamber, used as an unwrapping check.
    g1_re = (
        math.cos(c1) ** 2 * math.cos(c2) ** 2 * math.cos(c3) ** 2
        - math.sin(c1) ** 2 * math.sin(c2) ** 2 * math.sin(c3) ** 2
    )
    g1_im = 0.25 * math.sin(2 * c1) * math.sin(2 * c2) * math.sin(2 * c3)
    g2 = 4.0 * g1_re - math.cos(2 * c1) * math.cos(2 * c2) * math.cos(2 * c3)
    return complex(g1_re, g1_im), g2


def weyl_coordinates(u: np.ndarray, tol: float = 1e-10) -> tuple[float, float, float]:
    """Canonical Weyl-chamber point (c1, c2, c3) of a two-qubit unitary.

    The eigenphases of ``u (YY u^T YY) / sqrt(det u)`` carry the coordinates
    as the four combinations +-c1 +- c2 +- c3; sorting, integer reduction and
    the c3<0 reflection bring them into the chamber.  A consistency check
    against the Makhlin invariants guards the phase unwrapping and raises if
    it cannot be trusted.
    """
    u = require_unitary(u, tol)
    u_tilde = _SYSY @ u.T @ _SYSY
    ev = np.linalg.eigvals(u @ u_tilde / np.sqrt(np.linalg.det(u).astype(complex)))
    two_s = np.angle(ev) / math.pi
    two_s[two_s <= -0.5] += 2.0
    s = np.sort(two_s / 2.0)[::-1]
    n = int(round(s.sum()))
    s -= np.concatenate([np.ones(n), np.zeros(4 - n)])
    s = np.roll(s, -n)
    c1, c2, c3 = _COORD_MIX @ s[:3]
    if c3 < -1e-9:
        c1, c3 = 1.0 - c1, -c3
    coords = (
        math.pi * float(c1),
        math.pi * abs(float(c2)),
        math.pi * abs(float(c3)),
    )
    g1_direct, g2_direct = local_invariants(u, tol)
    g1_chamber, g2_chamber = _invariants_from_weyl(*coords)
    mismatch = abs(g1_direct - g1_chamber) + abs(g2_direct - g2_chamber)
    if mismatch > 1e-7:
        raise RuntimeError(
            f"phase unwrapping ambiguity: chamber point {coords} disagrees with "
            f"local invariants (mismatch {mismatch:.3e})"
        )
    return coords


def entangling_power_analytic(theta_tilde: float) -> float:
    """Exact entangling power (2/9) sin^2(2 theta_tilde) of the gate family."""
    return EP_MAX * math.sin(2.0 * theta_tilde) ** 2


def entangling_power_mc(
    u: np.ndarray, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo entangling power: mean linear entropy over product inputs.

    Draws ``samples`` pairs of independent Haar-random single-qubit states
    ``a``, ``b`` (complex Gaussians, left unnormalized), applies ``u`` and
    averages the linear entropy of the reduced output state.  For a normalized
    pure two-qubit state with 2x2 amplitude matrix ``m`` the linear entropy is
    ``1 - tr(rho_1^2) = 2 |det m|^2``, so with ``psi = u (a (x) b)`` each
    sample is ``2 |psi_0 psi_3 - psi_1 psi_2|^2 / (|a|^2 |b|^2)^2``.  The
    draws are processed in chunks of ``_MC_CHUNK`` rows to keep the
    temporaries in cache.  Returns the estimate and its standard error;
    fixed ``seed`` gives bit-identical results.  ``samples`` must lie in
    [1000, ``MAX_MC_SAMPLES``], checked before anything is allocated.
    """
    if not 1000 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(
            f"Monte-Carlo samples={samples} is outside [1000, "
            f"MAX_MC_SAMPLES={MAX_MC_SAMPLES}]"
        )
    u = np.asarray(u, dtype=complex)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((2, samples, 2))
    im = rng.standard_normal((2, samples, 2))
    entropy = np.empty(samples)
    # (state, component, sample) layout, so every elementwise pass runs
    # along the long sample axis.
    amps = np.empty((2, 2, min(samples, _MC_CHUNK)), dtype=complex)
    for start in range(0, samples, _MC_CHUNK):
        n = min(_MC_CHUNK, samples - start)
        rows = slice(start, start + n)
        ab = amps[:, :, :n]
        ab.real = re[:, rows].transpose(0, 2, 1)
        ab.imag = im[:, rows].transpose(0, 2, 1)
        psi = u @ (ab[0, :, None] * ab[1, None, :]).reshape(4, n)
        det = psi[0] * psi[3] - psi[1] * psi[2]
        sq = ab.real**2 + ab.imag**2
        norm = (sq[0, 0] + sq[0, 1]) * (sq[1, 0] + sq[1, 1])
        entropy[rows] = 2.0 * (det.real**2 + det.imag**2) / norm**2
    estimate = float(entropy.mean())
    stderr = float(entropy.std(ddof=1) / math.sqrt(samples))
    return estimate, stderr


def is_cnot_point(weyl: tuple[float, float, float], tol: float) -> bool:
    """Whether a Weyl point lies within ``tol`` of L = (pi/2, 0, 0) in every coordinate."""
    return all(abs(c - ref) <= tol for c, ref in zip(weyl, CNOT_POINT))


def is_cnot_class(u: np.ndarray, tol: float = 1e-6) -> bool:
    """Whether the canonical Weyl point of ``u`` lies at L = (pi/2, 0, 0)."""
    return is_cnot_point(weyl_coordinates(u), tol)


def classify_gate(
    u: np.ndarray,
    ep_samples: int = 100_000,
    seed: int = 0,
    cnot_tol: float = 1e-6,
) -> EntanglementReport:
    """Full classification of an arbitrary two-qubit unitary.

    The entangling power is estimated by Monte Carlo since no closed form is
    assumed for general input.
    """
    g1, g2 = local_invariants(u)
    weyl = weyl_coordinates(u)
    ep, stderr = entangling_power_mc(u, ep_samples, seed)
    return EntanglementReport(
        g1=g1,
        g2=g2,
        weyl=weyl,
        ep=ep,
        cnot_equivalent=is_cnot_point(weyl, cnot_tol),
        ep_stderr=stderr,
    )
