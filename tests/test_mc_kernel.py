"""The streaming Monte-Carlo entangling-power kernel against its oracles.

``reference_entangling_power_mc`` is the dense einsum estimator the kernel
replaced: it normalizes the draws, builds every reduced density matrix and
takes ``1 - tr(rho_1^2)``.  It draws the same random stream, so the two must
agree to roundoff.  The closed form ``(2/9)(1 - |G1|)`` (Balakrishnan &
Sankaranarayanan, PRA 82, 034301 (2010)) is the statistical oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randmat import random_su2, random_unitary
from holodfs import entanglement as ent
from holodfs.spin_model import SIGMA_X, SIGMA_Y, SIGMA_Z

REL_TOL = 1e-12
# The reference forms 1 - tr(rho_1^2) with tr(rho_1^2) near 1 for weakly
# entangling gates, so each of its samples carries an absolute roundoff of
# a few machine epsilons that the determinant form does not have (at the
# identity it returns about -1.2e-15 where the kernel returns 1e-32).
ABS_FLOOR = 1e-14

def reference_entangling_power_mc(u, samples, seed):
    u = np.asarray(u, dtype=complex)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((2, samples, 2)) + 1j * rng.standard_normal((2, samples, 2))
    amps /= np.linalg.norm(amps, axis=2, keepdims=True)
    product = np.einsum("ni,nj->nij", amps[0], amps[1]).reshape(samples, 4)
    m = (product @ u.T).reshape(samples, 2, 2)
    rho1 = np.einsum("nij,nkj->nik", m, m.conj())
    purity = np.einsum("nik,nik->n", rho1, rho1.conj()).real
    entropy = 1.0 - purity
    return float(entropy.mean()), float(entropy.std(ddof=1) / math.sqrt(samples))


def dressed_canonical(c1, c2, c3, rng):
    """exp(i(c1 XX + c2 YY + c3 ZZ)/2) between random local SU(2) factors."""
    h = sum(c * np.kron(p, p) for c, p in zip((c1, c2, c3), (SIGMA_X, SIGMA_Y, SIGMA_Z)))
    values, vectors = np.linalg.eigh(h)
    canonical = (vectors * np.exp(0.5j * values)) @ vectors.conj().T
    left = np.kron(random_su2(rng), random_su2(rng))
    right = np.kron(random_su2(rng), random_su2(rng))
    return left @ canonical @ right


def _assert_close(value, reference):
    assert abs(value - reference) <= REL_TOL * abs(reference) + ABS_FLOOR


def _assert_matches_reference(u, samples, seed):
    estimate, stderr = ent.entangling_power_mc(u, samples, seed)
    ref_estimate, ref_stderr = reference_entangling_power_mc(u, samples, seed)
    _assert_close(estimate, ref_estimate)
    _assert_close(stderr, ref_stderr)


sample_counts = st.integers(min_value=1000, max_value=20_000)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(deadline=None, max_examples=40)
@given(unitary_seed=seeds, seed=seeds, samples=sample_counts)
@example(unitary_seed=0, seed=0, samples=1000)
@example(unitary_seed=1, seed=1, samples=ent._MC_CHUNK)
@example(unitary_seed=2, seed=2, samples=ent._MC_CHUNK + 1)
@example(unitary_seed=3, seed=3, samples=2 * ent._MC_CHUNK - 1)
@example(unitary_seed=4, seed=4, samples=20_000)
def test_haar_unitaries_match_reference(unitary_seed, seed, samples):
    u = random_unitary(np.random.default_rng(unitary_seed), 4)
    _assert_matches_reference(u, samples, seed)


@settings(deadline=None, max_examples=40)
@given(
    point=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    dressing_seed=seeds,
    seed=seeds,
    samples=sample_counts,
)
@example(point=(0.0, 0.0, 0.0), dressing_seed=1, seed=1, samples=5000)
@example(point=(0.5, 0.5, 0.0), dressing_seed=2, seed=2, samples=ent._MC_CHUNK + 1)
def test_dressed_canonical_gates_match_reference(point, dressing_seed, seed, samples):
    # Map the unit cube onto the Weyl chamber: pi >= c1 >= c2 >= c3 >= 0
    # covers the interior, the faces and the identity class at the origin.
    c1, c2, c3 = sorted((math.pi * x for x in point), reverse=True)
    u = dressed_canonical(c1, c2, c3, np.random.default_rng(dressing_seed))
    _assert_matches_reference(u, samples, seed)


@settings(deadline=None, max_examples=100)
@given(unitary_seed=seeds, state_seed=seeds)
def test_linear_entropy_is_twice_squared_determinant(unitary_seed, state_seed):
    u = random_unitary(np.random.default_rng(unitary_seed), 4)
    rng = np.random.default_rng(state_seed)
    a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = u @ np.kron(a, b)
    det_m = psi[0] * psi[3] - psi[1] * psi[2]
    closed = 2.0 * abs(det_m) ** 2 / (np.linalg.norm(a) * np.linalg.norm(b)) ** 4
    m = (psi / np.linalg.norm(psi)).reshape(2, 2)
    rho1 = m @ m.conj().T
    assert abs(closed - (1.0 - np.trace(rho1 @ rho1).real)) <= 1e-12


@pytest.mark.parametrize("index", range(8))
def test_haar_estimate_within_three_sigma_of_closed_form(index):
    u = random_unitary(np.random.default_rng(100 + index), 4)
    g1, _ = ent.local_invariants(u)
    exact = ent.EP_MAX * (1.0 - abs(g1))
    estimate, stderr = ent.entangling_power_mc(u, 100_000, seed=index)
    assert abs(estimate - exact) <= 3 * stderr


def test_chunked_kernel_keeps_memory_near_the_draws():
    samples = 100_000
    u = random_unitary(np.random.default_rng(7), 4)
    tracemalloc.start()
    try:
        ent.entangling_power_mc(u, samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = 2 * samples * 4 * 8  # real and imaginary parts of (2, samples, 2)
    # The draws, the entropy vector and a few MB of per-chunk temporaries;
    # building every density matrix at once peaked at 33.6 MB.
    assert peak < draws + samples * 8 + 3_000_000

