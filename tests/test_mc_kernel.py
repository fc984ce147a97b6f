"""The streaming Monte-Carlo entangling-power kernel against its oracles.

The kernel draws ``t = |a1|^2`` of each first input qubit uniform on
(0, 1) and averages the phase of ``a1`` and the whole second input in
closed form, so a sample is a quadratic in ``t``; it keeps only two power
sums of the draws, and its standard error is the quadratic's exact one.
Its draws are checked on their own: each 64-bit word of
``np.random.default_rng(seed).bit_generator.random_raw`` is taken once and
split into two signed 32-bit integers ``j``, low half first, with ``t = 1/2
+ (j + 1/2) 2^-32``; a larger count starts with a smaller one, an odd count
drops the high half of the last word, and the draws are uniform.

``reference_entangling_power_mc`` is the dense estimator.  It splits the
same raw words in pure Python, and for each drawn ``t`` it builds the three
qubits ``(sqrt(1 - t), sqrt(t) w^k)`` with ``w = exp(2 pi i / 3)``, pairs
each with the four tetrahedral states (a qubit 2-design, so their mean is
the Haar mean over the second input of any entropy of degree two in it),
builds every reduced density matrix and takes the mean of ``1 - tr(rho_1^2)``
over the 12 products, then the mean and ``std(ddof=1)`` over the samples.
The entropy holds the phase of ``a1`` with frequencies up to 2, which three
equally spaced phases cancel, so the two estimates must agree to roundoff.
``reference_stderr`` is the exact standard error: it recovers the quadratic
from the same dense entropy at three values of ``t`` and takes its variance
over a uniform ``t`` from the moments of ``t``.  The closed form ``(2/9)(1 -
|G1|)`` (Balakrishnan & Sankaranarayanan, PRA 82, 034301 (2010)) is the
statistical oracle.
"""

import math
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randmat import dressed_canonical, random_unitary
from holodfs import entanglement as ent

REL_TOL = 1e-12
# The reference forms 1 - tr(rho_1^2) with tr(rho_1^2) near 1 for weakly
# entangling gates, so each of its samples carries an absolute roundoff of
# a few machine epsilons that the determinant form does not have (at the
# identity it returns about -1.2e-15 where the kernel returns exactly 0).
ABS_FLOOR = 1e-14
# The benchmark's oracle accepts an estimate within this many standard
# errors of (2/9)(1 - |G1|).
ORACLE_SIGMAS = 4.0

# The four qubit states whose Bloch vectors form a regular tetrahedron: a
# SIC-POVM, and so a qubit 2-design (Renes et al., J. Math. Phys. 45, 2171
# (2004)).  The linear entropy 2|det psi|^2 of psi = u (a (x) b) has degree
# two in a, b and their conjugates, so its mean over these states for b is
# its Haar mean over b, and its mean over the 16 products is the entangling
# power, exactly, with no sampling error.
_POLAR = math.acos(-1.0 / 3.0)
TETRAHEDRON = np.array(
    [[1.0, 0.0]] + [[math.cos(_POLAR / 2), np.exp(2j * math.pi * k / 3) * math.sin(_POLAR / 2)]
                    for k in range(3)])
DESIGN_TOL = 1e-12
# Three equally spaced phases: their mean of exp(i n phi) is 0 for n = 1, 2.
PHASES = np.exp(2j * math.pi * np.arange(3) / 3)


def raw_words(samples, seed):
    """The 64-bit words the kernel takes for ``samples`` draws."""
    return np.random.default_rng(seed).bit_generator.random_raw(-(-samples // 2))


def split_draws(words, samples):
    """``t = 1/2 + (j + 1/2) 2^-32`` for the signed 32-bit halves ``j`` of
    ``words``, low half first, the first ``samples`` of them."""
    t = []
    for word in words.tolist():
        for half in (word & 0xFFFFFFFF, word >> 32):
            j = half - (1 << 32) if half >= 1 << 31 else half
            t.append(0.5 + (j + 0.5) / 2**32)
    return np.array(t[:samples])


def draws(samples, seed):
    """The kernel's draws of ``t = |a1|^2``."""
    return split_draws(raw_words(samples, seed), samples)


def phase_qubits(t):
    """The qubits ``(sqrt(1 - t), sqrt(t) w^k)``, k = 0, 1, 2, as a (len(t), 3, 2) array."""
    a1 = np.sqrt(t)[:, None] * PHASES
    return np.stack([np.broadcast_to(np.sqrt(1.0 - t)[:, None], a1.shape), a1], axis=2)


def reference_entropies(u, t):
    """The linear entropy of ``u`` for each first-input ``t``, averaged over
    three phases of ``a1`` and the four tetrahedral second inputs."""
    a = phase_qubits(t)
    product = np.einsum("nki,bj->nkbij", a, TETRAHEDRON).reshape(len(t), 12, 4)
    m = (product @ np.asarray(u, dtype=complex).T).reshape(len(t), 12, 2, 2)
    rho1 = np.einsum("nbij,nbkj->nbik", m, m.conj())
    purity = np.einsum("nbik,nbik->nb", rho1, rho1.conj()).real
    return (1.0 - purity).mean(axis=1)


def reference_entangling_power_mc(u, samples, seed, t=None):
    entropy = reference_entropies(u, draws(samples, seed) if t is None else t)
    return float(entropy.mean()), float(entropy.std(ddof=1) / math.sqrt(samples))


def reference_stderr(u, samples):
    """The exact standard error of a ``samples``-draw mean of the reference
    entropy, a quadratic ``e0 + e1 t + e2 t^2`` in a uniform ``t``, floored
    at ``EP_RESOLUTION``."""
    q0, q_half, q1 = reference_entropies(u, np.array([0.0, 0.5, 1.0])).tolist()
    e2 = 2.0 * (q0 - 2.0 * q_half + q1)
    e1 = q1 - q0 - e2
    # Var t = 1/12, Cov(t, t^2) = 1/12 and Var t^2 = 4/45 for uniform t.
    variance = e1 * e1 / 12 + e1 * e2 / 6 + 4 * e2 * e2 / 45
    return max(math.sqrt(variance / samples), ent.EP_RESOLUTION)


def _assert_close(value, reference):
    assert abs(value - reference) <= REL_TOL * abs(reference) + ABS_FLOOR


def _assert_matches_reference(u, samples, seed):
    estimate, stderr = ent.entangling_power_mc(u, samples, seed)
    ref_estimate, _ = reference_entangling_power_mc(u, samples, seed)
    _assert_close(estimate, ref_estimate)
    _assert_close(stderr, reference_stderr(u, samples))


class RecordingBitGenerator:
    """Stands in for the bit generator of ``np.random.default_rng(seed)``:
    the same words, each array of them it returns recorded in ``words``."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self.words = []

    def random_raw(self, size):
        words = self.bit_generator.random_raw(size)
        self.words.append(words.copy())
        return words


class RecordingGenerator:
    """Stands in for ``np.random.default_rng(seed)``."""

    def __init__(self, rng):
        self.bit_generator = RecordingBitGenerator(rng.bit_generator)


def recorded_words(samples, seed):
    """The word arrays the kernel takes for one estimate at ``(samples, seed)``."""
    u = random_unitary(np.random.default_rng(seed), 4)
    generators = []
    default_rng = np.random.default_rng

    def recording(s):
        generators.append(RecordingGenerator(default_rng(s)))
        return generators[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        ent.entangling_power_mc(u, samples, seed)
    assert len(generators) == 1
    return generators[0].bit_generator.words


def test_draws_of_a_larger_count_start_with_the_smaller_count():
    n = 3 * ent._MC_CHUNK // 2 + 1
    first = np.concatenate(recorded_words(n, 2022))
    larger = np.concatenate(recorded_words(2 * n, 2022))
    assert len(first) == (n + 1) // 2 and len(larger) == n
    assert np.array_equal(first, larger[:len(first)])
    assert np.array_equal(larger, raw_words(2 * n, 2022))


@pytest.mark.parametrize("chunk", [1000, 4096, ent._MC_CHUNK])
def test_every_sample_is_drawn_once_on_any_chunk_size(chunk, monkeypatch):
    # Each chunk takes the words of its draws, and together they are the
    # documented words, each taken once.
    monkeypatch.setattr(ent, "_MC_CHUNK", chunk)
    samples = 9 * ent._MC_CHUNK + 3
    words = recorded_words(samples, 0)
    assert [len(w) for w in words] == [chunk // 2] * 9 + [2]
    assert np.array_equal(np.concatenate(words), raw_words(samples, 0))


def test_split_reads_the_low_half_first_as_a_signed_integer():
    # Words chosen so that each half is its own value: -1 then 1, 0 then
    # -2^31, 2^31 - 1 then 0; t never reaches 0 or 1.
    words = np.array([0x00000001FFFFFFFF, 0x8000000000000000, 0x000000007FFFFFFF],
                     dtype=np.uint64)
    scale = 2.0**-32
    expected = [0.5 - 0.5 * scale, 0.5 + 1.5 * scale, 0.5 + 0.5 * scale,
                0.5 - (2**31 - 0.5) * scale, 1.0 - 0.5 * scale, 0.5 + 0.5 * scale]
    assert split_draws(words, 6).tolist() == expected


def test_phase_averaged_qubits_match_the_haar_second_moment():
    # E[(a a^dag) (x) (a a^dag)] = (I + SWAP)/6 for Haar qubits in d = 2,
    # here with each drawn t weighted over its three phases.  Entries that
    # are exactly 0 or real for every draw have zero standard error; the
    # 1e-12 floor covers their roundoff.
    samples = 250_000
    a = phase_qubits(draws(samples, 2024))
    x = (a[:, :, :, None] * a[:, :, None, :]).reshape(samples, 3, 4)
    swap = np.eye(4)[[0, 2, 1, 3]]
    expected = (np.eye(4) + swap) / 6.0
    for i, j in np.ndindex(4, 4):
        entry = (x[:, :, i] * x[:, :, j].conj()).mean(axis=1)
        for part, exact in ((entry.real, expected[i, j]), (entry.imag, 0.0)):
            stderr = part.std(ddof=1) / math.sqrt(samples)
            assert abs(part.mean() - exact) <= 5 * stderr + 1e-12, (i, j)


def test_drawn_t_is_uniform():
    stats = pytest.importorskip("scipy.stats")
    t = split_draws(np.concatenate(recorded_words(100_000, 7)), 100_000)
    assert 0.0 < t.min() and t.max() < 1.0
    assert stats.kstest(t, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("samples", [1000, ent._MC_CHUNK + 1])
def test_estimate_takes_the_first_draws_of_a_larger_count(samples):
    u = random_unitary(np.random.default_rng(samples), 4)
    estimate, stderr = ent.entangling_power_mc(u, samples, seed=9)
    t = draws(3 * samples, seed=9)[:samples]
    ref_estimate, _ = reference_entangling_power_mc(u, samples, 9, t=t)
    _assert_close(estimate, ref_estimate)
    _assert_close(stderr, reference_stderr(u, samples))


@pytest.mark.parametrize("samples", [1001, 2 * ent._MC_CHUNK + 1])
def test_odd_count_drops_the_high_half_of_the_last_word(samples):
    u = random_unitary(np.random.default_rng(samples), 4)
    estimate, _ = ent.entangling_power_mc(u, samples, seed=10)
    t = draws(samples + 1, seed=10)
    low, _ = reference_entangling_power_mc(u, samples, 10, t=t[:-1])
    high, _ = reference_entangling_power_mc(u, samples, 10, t=np.append(t[:-2], t[-1]))
    _assert_close(estimate, low)
    assert abs(estimate - high) > 1e3 * abs(estimate - low)


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


@pytest.mark.parametrize("unitary_seed", range(4))
def test_exact_stderr_matches_the_sample_stderr(unitary_seed):
    # At 20,000 draws the sample standard deviation of a quadratic in a
    # uniform t scatters by well under 1% about the exact one.
    u = random_unitary(np.random.default_rng(200 + unitary_seed), 4)
    _, stderr = ent.entangling_power_mc(u, 20_000, seed=unitary_seed)
    _, sample_stderr = reference_entangling_power_mc(u, 20_000, seed=unitary_seed)
    assert abs(stderr - sample_stderr) <= 0.03 * sample_stderr


def test_stderr_does_not_depend_on_the_seed():
    u = random_unitary(np.random.default_rng(17), 4)
    results = [ent.entangling_power_mc(u, 5000, seed) for seed in range(5)]
    assert len({estimate for estimate, _ in results}) == 5
    assert {stderr for _, stderr in results} == {results[0][1]}
    _assert_close(results[0][1], reference_stderr(u, 5000))


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


def design_entangling_power(u):
    inputs = np.einsum("ai,bj->abij", TETRAHEDRON, TETRAHEDRON).reshape(16, 4)
    psi = inputs @ np.asarray(u, dtype=complex).T
    det = psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2]
    return float(np.mean(2.0 * np.abs(det) ** 2))


def _assert_design_matches_closed_form(u):
    g1, _ = ent.local_invariants(u)
    assert abs(design_entangling_power(u) - ent.EP_MAX * (1.0 - abs(g1))) <= DESIGN_TOL


def test_tetrahedral_states_are_a_qubit_2_design():
    # Second moment of a 2-design: E[(a a^dag)^(x)2] = (I + SWAP)/6.
    swap = np.eye(4)[[0, 2, 1, 3]]
    moment = np.mean([np.kron(np.outer(a, a.conj()), np.outer(a, a.conj()))
                      for a in TETRAHEDRON], axis=0)
    assert np.max(np.abs(moment - (np.eye(4) + swap) / 6)) <= 1e-15


@settings(deadline=None, max_examples=100)
@given(unitary_seed=seeds)
def test_design_average_equals_closed_form_on_haar_unitaries(unitary_seed):
    _assert_design_matches_closed_form(random_unitary(np.random.default_rng(unitary_seed), 4))


@pytest.mark.parametrize("u, exact", [
    (np.eye(4), 0.0),
    (np.eye(4)[[0, 1, 3, 2]], 2.0 / 9.0),
], ids=["identity", "cnot"])
def test_design_average_at_the_identity_and_cnot(u, exact):
    assert abs(design_entangling_power(u) - exact) <= DESIGN_TOL
    _assert_design_matches_closed_form(u)


@settings(deadline=None, max_examples=100)
@given(point=st.tuples(*[st.floats(0.0, 1.0)] * 3), dressing_seed=seeds)
def test_design_average_equals_closed_form_on_dressed_canonical_gates(point, dressing_seed):
    c1, c2, c3 = sorted((math.pi * x for x in point), reverse=True)
    u = dressed_canonical(c1, c2, c3, np.random.default_rng(dressing_seed))
    _assert_design_matches_closed_form(u)


@pytest.fixture
def no_threads(monkeypatch):
    """Fail any attempt of the estimator to start a thread."""

    def refuse(*args, **kwargs):
        raise AssertionError("the estimator started a thread")

    monkeypatch.setattr(threading, "Thread", refuse)


@pytest.mark.parametrize("samples", [ent._MC_CHUNK + 1, 5 * ent._MC_CHUNK + 17,
                                     13 * ent._MC_CHUNK - 1])
def test_results_do_not_depend_on_the_chunk_size(samples, monkeypatch):
    # Every even chunk size takes the same draws; the power sums are added
    # in another grouping, so the estimates agree to roundoff, and the
    # standard error does not depend on the draws.
    u = random_unitary(np.random.default_rng(11), 4)
    results = []
    for chunk in (1000, 4096, ent._MC_CHUNK, samples + samples % 2):
        monkeypatch.setattr(ent, "_MC_CHUNK", chunk)
        results.append(ent.entangling_power_mc(u, samples, seed=21))
    for estimate, stderr in results[1:]:
        assert abs(estimate - results[0][0]) <= 1e-13 * results[0][0]
        assert abs(stderr - results[0][1]) <= 1e-13 * results[0][1]
    _assert_matches_reference(u, samples, seed=21)


@pytest.mark.parametrize("samples", [1000, ent._MC_CHUNK + 1, 13 * ent._MC_CHUNK - 1])
def test_reruns_are_bit_identical(samples):
    u = random_unitary(np.random.default_rng(13), 4)
    first = ent.entangling_power_mc(u, samples, seed=22)
    assert all(ent.entangling_power_mc(u, samples, seed=22) == first for _ in range(3))


@pytest.mark.parametrize("samples", [5 * ent._MC_CHUNK + 17, 13 * ent._MC_CHUNK - 1])
def test_results_do_not_depend_on_the_worker_count(samples):
    # Callers may run estimates on threads of their own: the estimator keeps
    # no state between calls, so concurrent estimates give the same bits.
    u = random_unitary(np.random.default_rng(11), 4)
    expected = ent.entangling_power_mc(u, samples, seed=21)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches per estimate
    try:
        for count in (2, 3, 8):
            results = [None] * count

            def estimate(i):
                results[i] = ent.entangling_power_mc(u, samples, seed=21)

            workers = [threading.Thread(target=estimate, args=(i,)) for i in range(count)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
            assert results == [expected] * count
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("samples", [1000, ent._MC_CHUNK - 1, ent._MC_CHUNK])
def test_single_block_starts_no_thread(samples, no_threads):
    u = random_unitary(np.random.default_rng(samples), 4)
    _assert_matches_reference(u, samples, seed=samples)


def test_one_worker_starts_no_thread(no_threads):
    # The estimator runs on one worker, the calling thread, at any count.
    u = random_unitary(np.random.default_rng(12), 4)
    _assert_matches_reference(u, 4 * ent._MC_CHUNK + 1, seed=12)


def test_identity_gives_exactly_zero():
    assert ent.entangling_power_mc(np.eye(4), 3 * ent._MC_CHUNK, seed=3) == (
        0.0, ent.EP_RESOLUTION)


def _assert_passes_the_oracle(u, seed):
    g1, _ = ent.local_invariants(u)
    exact = ent.EP_MAX * (1.0 - abs(g1))
    estimate, stderr = ent.entangling_power_mc(u, ent.MC_SAMPLES, seed)
    assert stderr >= ent.EP_RESOLUTION
    assert abs(estimate - exact) <= ORACLE_SIGMAS * stderr


# Weyl points whose conditional entropy does not depend on the first input:
# every estimate is 1/6 up to roundoff, with a standard error far below the
# roundoff of the exact value.
@pytest.mark.parametrize("point", [
    (math.pi / 4, math.pi / 4, math.pi / 4),
    (math.pi / 2, math.pi / 4, math.pi / 4),
    (5 * math.pi / 8, math.pi / 4, math.pi / 4),
    (math.pi / 4, math.pi / 4, 0.0),
    (3 * math.pi / 4, math.pi / 4, 0.0),
    (math.pi / 4, math.pi / 4, math.pi / 8),
    (3 * math.pi / 4, math.pi / 4, math.pi / 8),
])
@pytest.mark.parametrize("dressing_seed", range(3))
def test_flat_conditional_entropy_passes_the_oracle(point, dressing_seed):
    u = dressed_canonical(*point, np.random.default_rng(dressing_seed))
    _assert_passes_the_oracle(u, seed=dressing_seed)


# Local gates and SWAP entangle no product input, so every entropy is 0 up
# to roundoff, and the exact value is about 1e-16 of roundoff.
@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (math.pi / 2,) * 3], ids=["local", "swap"])
@pytest.mark.parametrize("dressing_seed", range(3))
def test_dressed_local_and_swap_gates_pass_the_oracle(point, dressing_seed):
    u = dressed_canonical(*point, np.random.default_rng(dressing_seed))
    _assert_passes_the_oracle(u, seed=dressing_seed)


# Vertices O, A1, A2, A3 of the Weyl chamber.  Leaving out vertex i of a
# barycentric combination puts the point on the opposite face: c1 + c2 = pi,
# c1 = c2, c2 = c3 and c3 = 0 in that order.
CHAMBER_VERTICES = np.array([[0.0, 0.0, 0.0], [math.pi, 0.0, 0.0],
                             [math.pi / 2, math.pi / 2, 0.0], [math.pi / 2] * 3])


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    weights=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    face=st.sampled_from([None, 0, 1, 2, 3]),
    dressing_seed=seeds,
    seed=seeds,
)
@example(weights=(1.0, 1.0, 1.0, 1.0), face=0, dressing_seed=0, seed=0)
@example(weights=(1.0, 1.0, 1.0, 1.0), face=1, dressing_seed=1, seed=1)
@example(weights=(1.0, 1.0, 1.0, 1.0), face=2, dressing_seed=2, seed=2)
@example(weights=(1.0, 1.0, 1.0, 1.0), face=3, dressing_seed=3, seed=3)
@example(weights=(0.0, 1.0, 0.0, 0.0), face=None, dressing_seed=4, seed=4)
def test_dressed_weyl_points_pass_the_oracle(weights, face, dressing_seed, seed):
    w = np.array(weights)
    if face is not None:
        w[face] = 0.0
    if not w.sum() > 0.0:
        w[0 if face else 1] = 1.0
    point = w @ CHAMBER_VERTICES / w.sum()
    u = dressed_canonical(*point, np.random.default_rng(dressing_seed))
    _assert_passes_the_oracle(u, seed)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_estimator_runs_in_a_forked_child():
    u = random_unitary(np.random.default_rng(15), 4)
    samples = 3 * ent._MC_CHUNK
    expected = ent.entangling_power_mc(u, samples, seed=15)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, struct.pack("dd", *ent.entangling_power_mc(u, samples, seed=15)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the estimator hung in a forked child")
        time.sleep(0.01)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    assert os.waitstatus_to_exitcode(status) == 0
    assert struct.unpack("dd", payload) == expected


def _assert_memory_within_the_chunk_buffers(samples):
    u = random_unitary(np.random.default_rng(7), 4)
    tracemalloc.start()
    try:
        ent.entangling_power_mc(u, samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One chunk-sized float buffer of j (64 kB) and the words of one chunk
    # (32 kB); about 99.5 kB measured, and no samples-sized array.  An
    # entropy vector took 8 MB at 1,000,000 samples.
    assert peak < 110_000


def test_chunked_kernel_keeps_memory_near_the_draws():
    _assert_memory_within_the_chunk_buffers(100_000)


def test_million_samples_keep_memory_within_the_chunk_buffers():
    _assert_memory_within_the_chunk_buffers(1_000_000)
