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

import itertools
import math
import numbers
import os
import threading
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

# Maps the reduced eigenphase vector to (c1, c2, c3).
_COORD_MIX = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)

CNOT_POINT = (math.pi / 2, 0.0, 0.0)
# Default tolerances: the unitarity defect a gate may show, and the Weyl
# distance, per coordinate, within which it counts as CNOT-equivalent.
UNITARITY_TOL = 1e-10
CNOT_TOL = 1e-6

# Largest Monte-Carlo sample count: the entropy vector takes 8 bytes per
# sample, so the cap bounds it at 80 MB.  The standard error is taken in
# place in that vector and the draws live only per block (about 0.6 MB of
# draws and temporaries per worker), so the estimator needs no second
# samples-sized array.
MAX_MC_SAMPLES = 10_000_000
# Monte-Carlo samples of an entangling-power estimate unless a caller sets them.
MC_SAMPLES = 100_000
# Samples per block of the Monte-Carlo kernel, each with its own random
# stream: a block's uniform draws are 0.18 MB, its 8192 disk points 0.13 MB
# and each per-sample real temporary 64 kB, so a block's working set stays
# in cache.
_MC_CHUNK = 8192
# Float64 resolution of an entangling power: a few ulps of EP_MAX.  The
# reported standard error of an estimate is never below it, since a gate
# whose sampled entropies are all equal (a local gate, SWAP, the Weyl points
# (c1, pi/4, pi/4)) has an exact value that carries this much roundoff.
EP_RESOLUTION = 4 * EP_MAX * math.ulp(1.0)
# det m = (1/2) psi^T _OMEGA psi for the amplitudes psi of a two-qubit state.
_OMEGA = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
# Sums the (p, q) entries of a 2x2 coefficient array by monomial a_p a_q.
_MONOMIALS = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)
# Twice the Haar moments E|b0^2|^2, E|b0 b1|^2, E|b1^2|^2 of a qubit b; the
# cross moments of (b0^2, b0 b1, b1^2) vanish by the phase symmetry of b1.
_HAAR_MOMENTS = np.diag([2 / 3, 1 / 3, 2 / 3])


@dataclass(frozen=True)
class EntanglementReport:
    """Classification of one two-qubit gate.

    ``ep`` is the seeded Monte-Carlo estimate of the entangling power and
    ``ep_stderr`` its standard error, for every input gate.
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
    if not defect <= tol:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} exceeds {tol:.0e}")
    return u


def local_invariants(u: np.ndarray, tol: float = UNITARITY_TOL) -> tuple[complex, float]:
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


def weyl_coordinates(u: np.ndarray, tol: float = UNITARITY_TOL) -> tuple[float, float, float]:
    """Canonical Weyl-chamber point (c1, c2, c3) of a two-qubit unitary.

    The eigenphases of ``u (YY u^T YY) / sqrt(det u)`` carry the coordinates
    as the four combinations +-c1 +- c2 +- c3; sorting, integer reduction and
    the c3<0 reflection bring them into the chamber.  A consistency check
    against the Makhlin invariants guards the phase unwrapping and raises if
    it cannot be trusted.
    """
    invariants = local_invariants(u, tol)
    return _weyl_coordinates(np.asarray(u, dtype=complex), invariants)


def _weyl_coordinates(
    u: np.ndarray, invariants: tuple[complex, float]
) -> tuple[float, float, float]:
    # weyl_coordinates of a checked unitary whose local invariants are given.
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
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"Monte-Carlo samples must be an integer, got {samples}")
    if not 1000 <= samples <= MAX_MC_SAMPLES:
        raise ValueError(
            f"Monte-Carlo samples={samples} is outside [1000, "
            f"MAX_MC_SAMPLES={MAX_MC_SAMPLES}]"
        )


def require_mc_seed(seed: int) -> None:
    """Refuse a Monte-Carlo seed that is not a non-negative integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"Monte-Carlo seed must be a non-negative integer, got {seed}")


def _require_cnot_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"CNOT tolerance must be finite and non-negative, got {tol}")


def _mc_workers() -> int:
    """Threads for the Monte-Carlo estimator: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _det_coefficients(u: np.ndarray) -> np.ndarray:
    # det psi = psi_0 psi_3 - psi_1 psi_2 = (1/2) x^T K x for psi = u x and
    # K = u^T Omega u.  With x = a (x) b, grouping the terms of x^T K x by
    # the monomials m_a = (a0^2, a0 a1, a1^2) and m_b = (b0^2, b0 b1, b1^2)
    # gives det psi = m_a^T C m_b with the 3x3 matrix C returned here.
    k = (u.T @ _OMEGA @ u).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return 0.5 * _MONOMIALS @ k @ _MONOMIALS.T


def _entropy_coefficients(u: np.ndarray) -> list[float]:
    # The mean of 2 |m_a^T C m_b|^2 over a Haar qubit b is m_a^dag F m_a
    # with F = conj(C) diag(2/3, 1/3, 2/3) C^T.  For a = (s, z), z = x + iy,
    # t = |z|^2, r = 1 - t and s = sqrt(r), m_a = (r, s z, z^2) and
    #   m_a^dag F m_a = f0 + t (f1 + t f2) + s ((p0 + p1 t) x + (q0 + q1 t) y)
    #                   + r (g (x^2 - y^2) + h x y),
    # whose real coefficients are returned in that order.
    c = _det_coefficients(u)
    f = c.conj() @ _HAAR_MOMENTS @ c.T
    f00, f11, f22 = f.diagonal().real
    lin0, lin1, quad = 2 * f[0, 1], 2 * (f[1, 2] - f[0, 1]), 2 * f[0, 2]
    return [f00, f11 - 2 * f00, f00 - f11 + f22, lin0.real, lin1.real,
            -lin0.imag, -lin1.imag, quad.real, -2 * quad.imag]


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    # count complex points uniform in the open unit disk, by rejection from
    # the square [-1, 1)^2 (acceptance pi/4).  Each round draws 4/3 of the
    # shortfall plus 64 candidates, so a block's 8192 points need a second
    # round only on a 10-sigma shortfall.  The result depends only on the
    # stream, and the first n points of a larger count are the n points.
    rounds = []
    shortfall = count
    while shortfall:
        z = 2.0 * rng.random(2 * (shortfall * 4 // 3 + 64)).view(complex) - (1 + 1j)
        rounds.append(z[z.real * z.real + z.imag * z.imag < 1.0][:shortfall])
        shortfall -= len(rounds[-1])
    return rounds[0] if len(rounds) == 1 else np.concatenate(rounds)


def _mc_block(coefficients: list[float], rng: np.random.Generator, out: np.ndarray) -> None:
    # Conditional linear entropies of len(out) inputs a drawn from rng,
    # written to out: each is the mean over a Haar b, the polynomial of
    # _entropy_coefficients at one disk point z.  Elementwise real ufuncs
    # only: they release the GIL and call no BLAS.
    f0, f1, f2, p0, p1, q0, q1, g, h = coefficients
    z = _disk_points(rng, len(out))
    x, y = z.real, z.imag
    xx = x * x
    yy = y * y
    t = xx + yy
    r = 1.0 - t
    s = np.sqrt(r)
    # r (g (x^2 - y^2) + h x y)
    xx -= yy
    xx *= g
    yy = x * y
    yy *= h
    xx += yy
    xx *= r
    # s ((p0 + p1 t) x + (q0 + q1 t) y)
    lin = t * p1
    lin += p0
    lin *= x
    lin_y = t * q1
    lin_y += q0
    lin_y *= y
    lin += lin_y
    lin *= s
    # f0 + t (f1 + t f2)
    np.multiply(t, f2, out=out)
    out += f1
    out *= t
    out += f0
    out += lin
    out += xx


def _in_threads(task, workers: int) -> None:
    # task() runs here and on workers - 1 threads of its own, all joined
    # before return; the first error is re-raised.
    errors = []

    def guarded():
        try:
            task()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        guarded()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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
    ``m_a^dag F m_a`` with ``F = conj(C) diag(2/3, 1/3, 2/3) C^T``.  The
    estimator samples only ``a`` and averages that conditional mean, which
    has the same expectation and a smaller variance (exactly 0 for the
    identity).  Each ``a`` is ``(sqrt(1 - |z|^2), z)`` with ``z`` uniform in
    the open unit disk: for a Haar qubit ``|a1|^2`` is uniform on [0, 1] and
    the relative phase uniform and independent, which is the law of ``z``,
    and the global phase does not change the entropy.

    ``samples`` counts the ``a`` inputs.  They form blocks of
    ``_MC_CHUNK``; block ``i`` of ``n`` samples draws its ``n`` disk points,
    by rejection from uniforms in the square, from its own stream
    ``SeedSequence(seed).spawn(n_blocks)[i]``.  The blocks run on up to
    ``_mc_workers()`` threads, and the mean and the standard error
    ``std(ddof=1) / sqrt(samples)`` are taken over the whole entropy vector
    afterwards (the deviations in place, with numpy's own arithmetic), so
    the result depends only on ``(u, samples, seed)``, not on the thread
    count, and a fixed ``seed`` gives bit-identical results.  The standard
    error reported is at least ``EP_RESOLUTION``, the float64 resolution of
    an entangling power.  ``samples`` must lie in [1000, ``MAX_MC_SAMPLES``]
    and ``seed`` must be a non-negative integer, both checked before
    anything is allocated.
    """
    require_mc_samples(samples)
    require_mc_seed(seed)
    coefficients = _entropy_coefficients(np.asarray(u, dtype=complex))
    n_blocks = -(-samples // _MC_CHUNK)
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    entropy = np.empty(samples)
    # Each thread takes the next block as it finishes one, so a thread that
    # gets less CPU time leaves its share to the others.
    next_block = itertools.count()
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                i = next(next_block)
            if i >= n_blocks:
                return
            block = entropy[i * _MC_CHUNK:(i + 1) * _MC_CHUNK]
            _mc_block(coefficients, np.random.default_rng(streams[i]), block)

    _in_threads(run, min(_mc_workers(), n_blocks))
    estimate = entropy.mean()
    # std(ddof=1) without its samples-sized temporary: the same operations
    # in the same order, so the same bits.
    entropy -= estimate
    entropy *= entropy
    stderr = math.sqrt(entropy.sum() / (samples - 1)) / math.sqrt(samples)
    return float(estimate), max(stderr, EP_RESOLUTION)


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
    ``entangling_power_mc`` (``ep_samples`` first inputs, the second input
    averaged in closed form), with its standard error ``ep_stderr`` floored
    at ``EP_RESOLUTION``, because its readers (the benchmark's oracles among
    them) check it as an estimate.
    """
    _require_cnot_tol(cnot_tol)
    g1, g2 = local_invariants(u, tol)
    weyl = _weyl_coordinates(np.asarray(u, dtype=complex), (g1, g2))
    ep, stderr = entangling_power_mc(u, ep_samples, seed)
    return EntanglementReport(
        g1=g1,
        g2=g2,
        weyl=weyl,
        ep=ep,
        cnot_equivalent=is_cnot_point(weyl, cnot_tol),
        ep_stderr=stderr,
    )
