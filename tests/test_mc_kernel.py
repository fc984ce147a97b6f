"""The streaming Monte-Carlo entangling-power kernel against its oracles.

The kernel draws each input qubit as ``(sqrt(1 - |z|^2), z)`` with ``z``
uniform in the unit disk (``_disk_points``).  The sampler is checked on its
own: point count, bounds and determinism, the extra rejection round, the
Haar second moment ``E[(a a^dag)^(x)2] = (I + SWAP)/6`` and the uniform law
of ``|z|^2``.

``reference_entangling_power_mc`` is the dense einsum estimator: it
normalizes the draws, builds every reduced density matrix and takes
``1 - tr(rho_1^2)``.  It reads the same per-block disk draws
(``block_draws``), so the two must agree to roundoff.  The closed form
``(2/9)(1 - |G1|)`` (Balakrishnan & Sankaranarayanan, PRA 82, 034301
(2010)) is the statistical oracle.
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

from randmat import random_su2, random_unitary
from holodfs import entanglement as ent
from holodfs.spin_model import SIGMA_X, SIGMA_Y, SIGMA_Z

REL_TOL = 1e-12
# The reference forms 1 - tr(rho_1^2) with tr(rho_1^2) near 1 for weakly
# entangling gates, so each of its samples carries an absolute roundoff of
# a few machine epsilons that the determinant form does not have (at the
# identity it returns about -1.2e-15 where the kernel returns exactly 0).
ABS_FLOOR = 1e-14


def block_draws(samples, seed):
    """The kernel's product inputs as a (2, samples, 2) array of (a, b) pairs.

    Block ``i`` of ``n <= _MC_CHUNK`` samples takes ``2 n`` disk points from
    ``SeedSequence(seed).spawn(n_blocks)[i]``: the first ``n`` give the
    ``a`` inputs, the rest the ``b`` inputs, each ``(sqrt(1 - |z|^2), z)``.
    """
    n_blocks = -(-samples // ent._MC_CHUNK)
    halves = []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        n = min(ent._MC_CHUNK, samples - i * ent._MC_CHUNK)
        z = ent._disk_points(np.random.default_rng(stream), 2 * n)
        halves.append(qubits(z).reshape(2, n, 2))
    return np.concatenate(halves, axis=1)


def qubits(z):
    """The normalised qubits (sqrt(1 - |z|^2), z) as rows of a (len(z), 2) array."""
    return np.stack([np.sqrt(1.0 - np.abs(z) ** 2), z], axis=1)


def reference_entangling_power_mc(u, samples, seed):
    u = np.asarray(u, dtype=complex)
    amps = block_draws(samples, seed)
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


@pytest.mark.parametrize("count", [1, 1000, 2 * ent._MC_CHUNK, 2 * ent._MC_CHUNK + 1])
def test_disk_points_fill_the_count_inside_the_disk(count):
    z = ent._disk_points(np.random.default_rng(count), count)
    assert z.shape == (count,) and z.dtype == complex
    assert np.all(np.abs(z) < 1.0)
    assert np.array_equal(z, ent._disk_points(np.random.default_rng(count), count))


class FirstRoundStub:
    """A generator whose first ``random`` call puts only ``inside`` points
    in the disk (at 0) and the rest outside it; later calls go to ``rng``."""

    def __init__(self, rng, inside):
        self.rng, self.inside, self.sizes = rng, inside, []

    def random(self, size):
        self.sizes.append(size)
        if len(self.sizes) > 1:
            return self.rng.random(size)
        first = np.full(size, 0.999)
        first[:2 * self.inside] = 0.5
        return first


@pytest.mark.parametrize("inside", [0, 100])
def test_disk_points_draw_another_round_for_the_shortfall(inside):
    count = 1000
    stub = FirstRoundStub(np.random.default_rng(5), inside)
    z = ent._disk_points(stub, count)
    assert len(stub.sizes) == 2
    assert np.array_equal(z[:inside], np.zeros(inside))
    # The second round is sized from the shortfall alone, so it is the
    # first round of a fresh stream asked for the shortfall.
    assert np.array_equal(z[inside:], ent._disk_points(np.random.default_rng(5), count - inside))


def test_disk_qubits_match_the_haar_second_moment():
    # E[(a a^dag) (x) (a a^dag)] = (I + SWAP)/6 for Haar qubits in d = 2.
    # Entries that are exactly 0 or real for every draw have zero standard
    # error; the 1e-12 floor covers their roundoff.
    samples = 1_000_000
    a = qubits(ent._disk_points(np.random.default_rng(2024), samples))
    x = (a[:, :, None] * a[:, None, :]).reshape(samples, 4)
    swap = np.eye(4)[[0, 2, 1, 3]]
    expected = (np.eye(4) + swap) / 6.0
    for i, j in np.ndindex(4, 4):
        entry = x[:, i] * x[:, j].conj()
        for part, exact in ((entry.real, expected[i, j]), (entry.imag, 0.0)):
            stderr = part.std(ddof=1) / math.sqrt(samples)
            assert abs(part.mean() - exact) <= 5 * stderr + 1e-12, (i, j)


def test_disk_radius_squared_is_uniform():
    stats = pytest.importorskip("scipy.stats")
    z = ent._disk_points(np.random.default_rng(7), 100_000)
    assert stats.kstest(np.abs(z) ** 2, "uniform").pvalue > 1e-3


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


# The four qubit states whose Bloch vectors form a regular tetrahedron: a
# SIC-POVM, and so a qubit 2-design (Renes et al., J. Math. Phys. 45, 2171
# (2004)).  The linear entropy 2|det psi|^2 of psi = u (a (x) b) has degree
# two in a, b and their conjugates, so its mean over the 16 products of
# these states is the entangling power exactly, with no sampling error.
_POLAR = math.acos(-1.0 / 3.0)
TETRAHEDRON = np.array(
    [[1.0, 0.0]] + [[math.cos(_POLAR / 2), np.exp(2j * math.pi * k / 3) * math.sin(_POLAR / 2)]
                    for k in range(3)])
DESIGN_TOL = 1e-12


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
def workers(monkeypatch):
    """Force the estimator's thread count: ``workers(n)``."""
    return lambda n: monkeypatch.setattr(ent, "_mc_workers", lambda: n)


@pytest.fixture
def no_threads(monkeypatch):
    """Fail any attempt of the estimator to start a thread."""

    def refuse(*args, **kwargs):
        raise AssertionError("the estimator started a thread")

    monkeypatch.setattr(ent.threading, "Thread", refuse)


@pytest.mark.parametrize("samples", [5 * ent._MC_CHUNK + 17, 13 * ent._MC_CHUNK - 1])
def test_results_do_not_depend_on_the_worker_count(samples, workers):
    u = random_unitary(np.random.default_rng(11), 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches per block
    try:
        results = []
        for count in (1, 2, 3, 8):
            workers(count)
            results.append(ent.entangling_power_mc(u, samples, seed=21))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)
    _assert_close(results[0][0], reference_entangling_power_mc(u, samples, 21)[0])


@pytest.mark.parametrize("samples", [1000, ent._MC_CHUNK - 1, ent._MC_CHUNK])
def test_single_block_starts_no_thread(samples, workers, no_threads):
    workers(2)
    u = random_unitary(np.random.default_rng(samples), 4)
    _assert_matches_reference(u, samples, seed=samples)


def test_one_worker_starts_no_thread(workers, no_threads):
    workers(1)
    u = random_unitary(np.random.default_rng(12), 4)
    _assert_matches_reference(u, 4 * ent._MC_CHUNK + 1, seed=12)


def test_block_boundary_splits_into_two_streams(workers):
    u = random_unitary(np.random.default_rng(13), 4)
    samples = ent._MC_CHUNK + 1
    workers(2)
    threaded = ent.entangling_power_mc(u, samples, seed=13)
    workers(1)
    assert ent.entangling_power_mc(u, samples, seed=13) == threaded
    _assert_matches_reference(u, samples, seed=13)


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    assert ent._mc_workers() >= 1
    monkeypatch.setattr(ent.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ent._mc_workers() == 1
    monkeypatch.delattr(ent.os, "sched_getaffinity")
    monkeypatch.setattr(ent.os, "cpu_count", lambda: 3)
    assert ent._mc_workers() == 3


def test_worker_error_reaches_the_caller():
    def fail_off_the_calling_thread():
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker thread")

    with pytest.raises(MemoryError, match="worker thread"):
        ent._in_threads(fail_off_the_calling_thread, 3)


def test_every_block_runs_once_on_any_worker_count(workers, monkeypatch):
    # Each block must be written by exactly one thread, whichever it is.
    block = ent._mc_block
    starts = []

    def recording(c, rng, out):
        starts.append(out.__array_interface__["data"][0])
        block(c, rng, out)

    monkeypatch.setattr(ent, "_mc_block", recording)
    samples = 9 * ent._MC_CHUNK + 3
    for count in (1, 2, 5):
        workers(count)
        starts.clear()
        ent.entangling_power_mc(np.eye(4), samples, seed=0)
        assert len(starts) == len(set(starts)) == 10


def test_identity_gives_exactly_zero():
    assert ent.entangling_power_mc(np.eye(4), 3 * ent._MC_CHUNK, seed=3) == (0.0, 0.0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_estimator_runs_in_a_forked_child(workers):
    workers(2)
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


def _assert_memory_near_the_draws(samples, workers):
    workers(2)
    u = random_unitary(np.random.default_rng(7), 4)
    tracemalloc.start()
    try:
        ent.entangling_power_mc(u, samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One entropy vector (8 bytes per sample; the standard error is taken
    # in place in it) and at most 2 MB of draws and temporaries per worker
    # (about 1.5 MB measured).  Taking std(ddof=1) allocated a second
    # samples-sized vector: 16 MB at 1,000,000 samples.
    assert peak < samples * 8 + 2 * 2_000_000


def test_chunked_kernel_keeps_memory_near_the_draws(workers):
    _assert_memory_near_the_draws(100_000, workers)


def test_million_samples_take_one_entropy_vector(workers):
    _assert_memory_near_the_draws(1_000_000, workers)
