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
# place in that vector and the draws live only per block, so the estimator
# needs no second samples-sized array.
MAX_MC_SAMPLES = 10_000_000
# Monte-Carlo samples of an entangling-power estimate unless a caller sets them.
MC_SAMPLES = 100_000
# Samples per block of the Monte-Carlo kernel, each with its own random
# stream: a block's uniform draws are 0.34 MB, its 16,384 disk points
# 0.25 MB and each per-sample complex temporary 128 kB, so a block's working
# set stays in cache.
_MC_CHUNK = 8192
# det m = (1/2) psi^T _OMEGA psi for the amplitudes psi of a two-qubit state.
_OMEGA = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
# Sums the (p, q) entries of a 2x2 coefficient array by monomial a_p a_q.
_MONOMIALS = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)


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


def _det_coefficients(u: np.ndarray) -> list[list[complex]]:
    # det psi = psi_0 psi_3 - psi_1 psi_2 = (1/2) x^T K x for psi = u x and
    # K = u^T Omega u.  With x = a (x) b, grouping the terms of x^T K x by
    # the monomials m_a = (a0^2, a0 a1, a1^2) and m_b = (b0^2, b0 b1, b1^2)
    # gives det psi = m_a^T C m_b with the 3x3 matrix C returned here.
    k = (u.T @ _OMEGA @ u).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return (0.5 * _MONOMIALS @ k @ _MONOMIALS.T).tolist()


def _disk_points(rng: np.random.Generator, count: int) -> np.ndarray:
    # count complex points uniform in the open unit disk, by rejection from
    # the square [-1, 1)^2 (acceptance pi/4).  Each round draws 4/3 of the
    # shortfall plus 64 candidates, so a block's 16,384 points need a second
    # round only on a 13-sigma shortfall; the result depends only on the
    # stream.
    rounds = []
    shortfall = count
    while shortfall:
        z = 2.0 * rng.random(2 * (shortfall * 4 // 3 + 64)).view(complex) - (1 + 1j)
        rounds.append(z[z.real * z.real + z.imag * z.imag < 1.0][:shortfall])
        shortfall -= len(rounds[-1])
    return rounds[0] if len(rounds) == 1 else np.concatenate(rounds)


def _mc_block(c: list[list[complex]], rng: np.random.Generator, out: np.ndarray) -> None:
    # Linear entropies of len(out) product inputs drawn from rng, written to
    # out.  Of 2 len(out) disk points z, the first half are the a inputs and
    # the second half the b inputs; each is the normalised qubit
    # (sqrt(1 - |z|^2), z), Haar up to a global phase, with the monomials
    # (1 - |z|^2, sqrt(1 - |z|^2) z, z^2).  Elementwise ufuncs only: they
    # release the GIL and call no BLAS.
    n = len(out)
    z = _disk_points(rng, 2 * n)
    r = 1.0 - (z.real * z.real + z.imag * z.imag)
    monomials = (r, np.sqrt(r) * z, z * z)
    m_a = [m[:n] for m in monomials]
    m_b = [m[n:] for m in monomials]
    det = np.zeros(n, dtype=complex)
    for m, row in zip(m_a, c):
        w = row[0] * m_b[0]
        w += row[1] * m_b[1]
        w += row[2] * m_b[2]
        w *= m
        det += w
    np.multiply(det.real * det.real + det.imag * det.imag, 2.0, out=out)


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

    Draws ``samples`` pairs of independent Haar-random single-qubit states
    ``a``, ``b``, applies ``u`` and averages the linear entropy of the
    reduced output state.  Each qubit is ``(sqrt(1 - |z|^2), z)`` with ``z``
    uniform in the open unit disk: for a Haar qubit ``|a1|^2`` is uniform
    on [0, 1] and the relative phase uniform and independent, which is the
    law of ``z``, and the global phase does not change the entropy.  For a
    normalized pure two-qubit state with 2x2 amplitude matrix ``m`` the
    linear entropy is ``1 - tr(rho_1^2) = 2 |det m|^2``; for
    ``psi = u (a (x) b)``, ``det m = m_a^T C m_b`` with the monomials
    ``m_a = (a0^2, a0 a1, a1^2)``, ``m_b`` likewise and a 3x3 matrix ``C``
    built once from ``u``, so each sample is ``2 |m_a^T C m_b|^2`` (exactly
    0 for the identity).

    The samples form blocks of ``_MC_CHUNK``; block ``i`` of ``n`` samples
    draws ``2 n`` disk points, by rejection from uniforms in the square,
    from its own stream ``SeedSequence(seed).spawn(n_blocks)[i]``: the
    first ``n`` are the ``a`` inputs, the rest the ``b`` inputs.  The
    blocks run on up to ``_mc_workers()`` threads, and the mean and the
    standard error ``std(ddof=1) / sqrt(samples)`` are taken over the whole
    entropy vector afterwards (the deviations in place, with numpy's own
    arithmetic), so the result depends only on ``(u, samples, seed)``, not
    on the thread count, and a fixed ``seed`` gives bit-identical results.
    ``samples`` must lie in [1000, ``MAX_MC_SAMPLES``] and ``seed`` must be
    a non-negative integer, both checked before anything is allocated.
    """
    require_mc_samples(samples)
    require_mc_seed(seed)
    c = _det_coefficients(np.asarray(u, dtype=complex))
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
            _mc_block(c, np.random.default_rng(streams[i]), block)

    _in_threads(run, min(_mc_workers(), n_blocks))
    estimate = entropy.mean()
    # std(ddof=1) without its samples-sized temporary: the same operations
    # in the same order, so the same bits.
    entropy -= estimate
    entropy *= entropy
    stderr = math.sqrt(entropy.sum() / (samples - 1)) / math.sqrt(samples)
    return float(estimate), stderr


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
    2-design; ``ep`` stays the seeded Monte-Carlo estimate, with its standard
    error ``ep_stderr``, because its readers (the benchmark's oracles among
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
