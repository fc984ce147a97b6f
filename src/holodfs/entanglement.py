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

The entangling power (Zanardi, Zalka & Faoro, PRA 62, 030301 (2000)) is a
seeded Monte-Carlo estimate that samples only ``t = |a1|^2`` of the first
input qubit and averages the rest of the product input in closed form, so
that a sample is a quadratic in ``t``; the estimate is taken from two
running power sums of the draws and its standard error from the quadratic's
exact variance (``entangling_power_mc``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import unitarity_defect
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

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)

CNOT_POINT = (math.pi / 2, 0.0, 0.0)
# Default tolerances: the unitarity defect a gate may show, and the Weyl
# distance, per coordinate, within which it counts as CNOT-equivalent.
UNITARITY_TOL = 1e-10
CNOT_TOL = 1e-6

# Largest Monte-Carlo sample count.  The estimator keeps no samples-sized
# array, so the cap bounds its time, not its memory: about 40 ms at the cap
# on one core of a 2-vCPU x86_64 VM.
MAX_MC_SAMPLES = 10_000_000
# Monte-Carlo samples of an entangling-power estimate unless a caller sets them.
MC_SAMPLES = 100_000
# Samples per chunk of the Monte-Carlo kernel.  It must be even, so that a
# chunk takes whole 64-bit words and the draws do not depend on it.  Its
# buffer of j takes 64 kB, so a chunk's working set stays in cache, and it
# stays below the 10,000 elements from which OpenBLAS threads a dot product
# (in the bench, 32768 samples per chunk lost this kernel's gain).
_MC_CHUNK = 8192
# A draw t = 1/2 + (j + 1/2) 2^-32 of a signed 32-bit integer j is
# _MC_CENTER + j _MC_SCALE, both terms exact.
_MC_SCALE = 2.0**-32
_MC_CENTER = 0.5 + _MC_SCALE / 2
# Float64 resolution of an entangling power: a few ulps of EP_MAX.  The
# reported standard error of an estimate is never below it, since a gate
# whose sampled entropies are all equal (a local gate, SWAP, the Weyl points
# (c1, pi/4, pi/4) and (pi/4, pi/4, c3)) has an exact value that carries
# this much roundoff.
EP_RESOLUTION = 4 * EP_MAX * math.ulp(1.0)
# det m = (1/2) psi^T _OMEGA psi for the amplitudes psi of a two-qubit state.
_OMEGA = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
# Sums the (p, q) entries of a 2x2 coefficient array by monomial a_p a_q.
_MONOMIALS = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)
# Twice the Haar moments E|b0^2|^2, E|b0 b1|^2, E|b1^2|^2 of a qubit b, the
# diagonal of F's middle factor; the cross moments of (b0^2, b0 b1, b1^2)
# vanish by the phase symmetry of b1.
_HAAR_MOMENTS = np.array([2 / 3, 1 / 3, 2 / 3])


@dataclass(frozen=True)
class EntanglementReport:
    """Classification of one two-qubit gate.

    ``ep`` is the seeded Monte-Carlo estimate of the entangling power and
    ``ep_stderr`` its standard error, for every input gate;
    ``unitarity_defect`` is the largest entry of ``|u^dag u - I|``.
    """

    g1: complex
    g2: float
    weyl: tuple[float, float, float]
    ep: float
    cnot_equivalent: bool
    ep_stderr: float
    unitarity_defect: float


def require_unitary(u: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Return ``u`` as a complex array, and its unitarity defect, after
    checking that it is a finite 4x4 matrix with that defect at most ``tol``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite (NaN or infinite) entries")
    defect = unitarity_defect(u)
    if not defect <= tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds {tol:.0e}")
    return u, defect


def local_invariants(u: np.ndarray, tol: float = UNITARITY_TOL) -> tuple[complex, float]:
    """Makhlin local invariants (G1, G2) of a two-qubit unitary.

    G1 is complex in general, G2 real; both are unchanged under
    ``u -> (a (x) b) u (c (x) d)`` for any single-qubit unitaries and under
    global phases.
    """
    u, _ = require_unitary(u, tol)
    return _local_invariants(u, np.linalg.det(u))


def _local_invariants(u: np.ndarray, det: complex) -> tuple[complex, float]:
    # local_invariants of a checked unitary whose determinant is given.
    ub = _Q_MAGIC.conj().T @ u @ _Q_MAGIC
    m = ub.T @ ub
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


def weyl_coordinates(u: np.ndarray, tol: float = UNITARITY_TOL) -> tuple[float, float, float]:
    """Canonical Weyl-chamber point (c1, c2, c3) of a two-qubit unitary.

    The eigenphases of ``u (YY u^T YY) / sqrt(det u)`` carry the coordinates
    as the four combinations +-c1 +- c2 +- c3; sorting, integer reduction and
    the c3<0 reflection bring them into the chamber.  A consistency check
    against the Makhlin invariants guards the phase unwrapping and raises if
    it cannot be trusted.
    """
    u, _ = require_unitary(u, tol)
    det = np.linalg.det(u)
    return _weyl_coordinates(u, det, _local_invariants(u, det))


def _weyl_coordinates(
    u: np.ndarray, det: complex, invariants: tuple[complex, float]
) -> tuple[float, float, float]:
    # weyl_coordinates of a checked unitary whose determinant and local
    # invariants are given.
    u_tilde = _SYSY @ u.T @ _SYSY
    ev = np.linalg.eigvals(u @ u_tilde / np.sqrt(det))
    # The four eigenphases in plain floats: each in (-1/4, 3/4] turns,
    # sorted down; their sum is an integer n, removed by lowering the n
    # largest by one and moving them last.  n is -1 only when all four sit
    # at the -1/4 edge (the SWAP point, through roundoff); then the smallest
    # is raised by one and moved first.  c1 starts from +0.0, so that a
    # zero c1 is never reported as -0.0.
    s = sorted(((v + 2.0 if v <= -0.5 else v) / 2.0
                for v in (np.angle(ev) / math.pi).tolist()), reverse=True)
    n = round(sum(s))
    s = s[n:] + [v - 1.0 for v in s[:n]] if n >= 0 else [v + 1.0 for v in s[n:]] + s[:n]
    c1, c2, c3 = 0.0 + s[0] + s[1], s[0] + s[2], s[1] + s[2]
    if c3 < -1e-9:
        c1, c3 = 1.0 - c1, -c3
    coords = (math.pi * c1, math.pi * abs(c2), math.pi * abs(c3))
    g1_direct, g2_direct = invariants
    g1_chamber, g2_chamber = _invariants_from_weyl(*coords)
    mismatch = abs(g1_direct - g1_chamber) + abs(g2_direct - g2_chamber)
    if not mismatch <= 1e-7:
        raise RuntimeError(
            f"phase unwrapping ambiguity: chamber point {coords} disagrees with "
            f"local invariants (mismatch {mismatch:.3e})"
        )
    return coords


def entangling_power_analytic(theta_tilde: float) -> float:
    """Exact entangling power (2/9) sin^2(2 theta_tilde) of the gate family."""
    return EP_MAX * math.sin(2.0 * theta_tilde) ** 2


def require_mc_samples(samples: int) -> None:
    """Refuse a Monte-Carlo sample count that is not an integer in [1000, MAX_MC_SAMPLES]."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"Monte-Carlo samples must be an integer, got {samples}")
    if not 1000 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(
            f"Monte-Carlo samples={samples} is outside [1000, "
            f"MAX_MC_SAMPLES={MAX_MC_SAMPLES}]"
        )


def require_mc_seed(seed: int) -> None:
    """Refuse a Monte-Carlo seed that is not a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"Monte-Carlo seed must be a non-negative integer, got {seed}")


def _require_cnot_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"CNOT tolerance must be finite and non-negative, got {tol}")


def _det_coefficients(u: np.ndarray) -> np.ndarray:
    # det psi = psi_0 psi_3 - psi_1 psi_2 = (1/2) x^T K x for psi = u x and
    # K = u^T Omega u.  With x = a (x) b, grouping the terms of x^T K x by
    # the monomials m_a = (a0^2, a0 a1, a1^2) and m_b = (b0^2, b0 b1, b1^2)
    # gives det psi = m_a^T C m_b with the 3x3 matrix C returned here.
    k = (u.T @ _OMEGA @ u).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return 0.5 * _MONOMIALS @ k @ _MONOMIALS.T


def _entropy_coefficients(u: np.ndarray) -> tuple[float, float, float]:
    # The mean of 2 |m_a^T C m_b|^2 over a Haar qubit b is m_a^dag F m_a
    # with F = conj(C) diag(2/3, 1/3, 2/3) C^T.  For a = (sqrt(1 - t), z)
    # with t = |z|^2, m_a = (1 - t, sqrt(1 - t) z, z^2), and every
    # off-diagonal term of m_a^dag F m_a carries the phase of z once or
    # twice, so its mean over that phase is
    #   F00 (1 - t)^2 + F11 t (1 - t) + F22 t^2,
    # whose coefficients, the diagonal (F00, F11, F22) of F, are returned.
    # diag F is |C|^2 @ (2/3, 1/3, 2/3).
    return tuple((np.abs(_det_coefficients(u)) ** 2 @ _HAAR_MOMENTS).tolist())


def entangling_power_mc(
    u: np.ndarray, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo entangling power: mean linear entropy over product inputs.

    The entangling power is the mean, over independent Haar-random qubits
    ``a`` and ``b``, of the linear entropy of the reduced state of
    ``u (a (x) b)``.  For a normalized pure two-qubit state with 2x2
    amplitude matrix ``m`` that entropy is ``1 - tr(rho_1^2) = 2 |det m|^2``,
    and ``det m = m_a^T C m_b`` with the monomials
    ``m_a = (a0^2, a0 a1, a1^2)``, ``m_b`` likewise and a 3x3 matrix ``C``
    built once from ``u``.  The entropy has degree two in ``b`` and its
    conjugate, so its mean over ``b`` is exact from three Haar moments:
    ``m_a^dag F m_a`` with ``F = conj(C) diag(2/3, 1/3, 2/3) C^T``.  Up to
    a global phase, which does not change the entropy, a Haar ``a`` is
    ``(sqrt(1 - t), sqrt(t) e^{i phi})`` with ``t = |a1|^2`` uniform on
    [0, 1] and ``phi`` uniform and independent.  The mean of
    ``m_a^dag F m_a`` over ``phi`` is exact too, the quadratic
    ``F00 (1 - t)^2 + F11 t (1 - t) + F22 t^2``, so the estimator samples
    only ``t`` and averages that quadratic.  It has the expectation of the
    linear entropy and a smaller variance (exactly 0 for the identity).

    ``samples`` counts the ``t`` draws.  They come from the bit generator
    of ``np.random.default_rng(seed)``: each 64-bit word of ``random_raw``
    splits into two signed 32-bit integers ``j``, read little-endian (low
    half first) on every platform, and ``t = 1/2 + (j + 1/2) 2^-32`` is the
    midpoint of one of 2^32 equal cells, never 0 or 1; that biases the
    quadratic's mean by at most ``|F00 - F11 + F22| / (12 * 2^64)``.  An odd
    count drops the high half of the last word, and the first ``n`` draws
    of a larger count are the ``n`` draws.  With ``t = c + d``, ``c = 1/2 +
    2^-33`` and ``d = j 2^-32``, a sample is ``alpha + beta d + gamma d^2``,
    so the estimate, the sample mean, is ``alpha + beta m1 + gamma m2`` in
    the means ``m1``, ``m2`` of ``d`` and ``d^2``.  The kernel streams the
    two power sums one ``_MC_CHUNK`` at a time through one chunk-sized
    buffer and keeps no samples-sized array.  The standard error is exact,
    ``sqrt(Var / samples)``, with the variance of the quadratic over a
    uniform ``t`` in its shifted-Legendre form, a sum of squares:
    ``Var = (F22 - F00)^2 / 12 + (F00 - F11 + F22)^2 / 180``.  It depends on
    the gate and the sample count only.  A fixed ``seed`` gives
    bit-identical results, and chunk sizes agree to roundoff.  The standard
    error reported is at least ``EP_RESOLUTION``, the float64 resolution of
    an entangling power.  ``samples`` must lie in [1000, ``MAX_MC_SAMPLES``]
    and ``seed`` must be a non-negative integer (``bool`` is refused), both
    checked before anything is allocated.
    """
    require_mc_samples(samples)
    require_mc_seed(seed)
    f00, f11, f22 = _entropy_coefficients(np.asarray(u, dtype=complex))
    e1, e2 = f11 - 2 * f00, f00 - f11 + f22
    bit_generator = np.random.default_rng(seed).bit_generator
    # One chunk's draws j.
    buffer = np.empty(min(samples, _MC_CHUNK))
    s1 = s2 = 0.0
    for start in range(0, samples, _MC_CHUNK):
        count = min(_MC_CHUNK, samples - start)
        x = buffer[:count]
        words = bit_generator.random_raw((count + 1) // 2)
        np.copyto(x, words.astype("<u8", copy=False).view("<i4")[:count])
        del words  # freed before the next chunk's words are drawn
        s1 += x.sum()
        s2 += x @ x
    # Means of d^k = (j 2^-32)^k; the scales are powers of two, so exact.
    m1, m2 = s1 * _MC_SCALE / samples, s2 * _MC_SCALE**2 / samples
    # f00 + t (e1 + t e2) = alpha + beta d + gamma d^2 at t = _MC_CENTER + d.
    alpha = f00 + _MC_CENTER * (e1 + _MC_CENTER * e2)
    beta, gamma = e1 + 2 * _MC_CENTER * e2, e2
    estimate = alpha + beta * m1 + gamma * m2
    variance = (f22 - f00) ** 2 / 12 + e2 * e2 / 180
    return float(estimate), max(math.sqrt(variance / samples), EP_RESOLUTION)


def is_cnot_point(weyl: tuple[float, float, float], tol: float) -> bool:
    """Whether a Weyl point lies within ``tol`` of L = (pi/2, 0, 0) in every
    coordinate; ``tol`` must be finite and non-negative."""
    _require_cnot_tol(tol)
    return all(abs(c - ref) <= tol for c, ref in zip(weyl, CNOT_POINT))


def is_cnot_class(u: np.ndarray, tol: float = CNOT_TOL) -> bool:
    """Whether the canonical Weyl point of ``u`` lies at L = (pi/2, 0, 0)."""
    return is_cnot_point(weyl_coordinates(u), tol)


def classify_gate(
    u: np.ndarray,
    ep_samples: int = MC_SAMPLES,
    seed: int = 0,
    cnot_tol: float = CNOT_TOL,
    tol: float = UNITARITY_TOL,
) -> EntanglementReport:
    """Full classification of an arbitrary two-qubit unitary.

    ``u`` must be unitary to within ``tol``, and ``cnot_tol`` finite and
    non-negative (checked first).  The entangling power of every two-qubit
    unitary is ``(2/9)(1 - |G1|)`` (Balakrishnan & Sankaranarayanan, PRA 82,
    034301 (2010)), which ``tests/test_mc_kernel.py`` pins through a qubit
    2-design.  ``ep`` stays the seeded Monte-Carlo estimate of
    ``entangling_power_mc`` (``ep_samples`` draws of ``|a1|^2``, the rest
    of the input averaged in closed form), with its standard error ``ep_stderr`` floored
    at ``EP_RESOLUTION``, because its readers (the benchmark's oracles among
    them) check it as an estimate.  ``unitarity_defect`` is that of the
    unitarity check.
    """
    _require_cnot_tol(cnot_tol)
    u, defect = require_unitary(u, tol)
    det = np.linalg.det(u)
    g1, g2 = _local_invariants(u, det)
    weyl = _weyl_coordinates(u, det, (g1, g2))
    ep, stderr = entangling_power_mc(u, ep_samples, seed)
    return EntanglementReport(
        g1=g1,
        g2=g2,
        weyl=weyl,
        ep=ep,
        cnot_equivalent=is_cnot_point(weyl, cnot_tol),
        ep_stderr=stderr,
        unitarity_defect=defect,
    )
