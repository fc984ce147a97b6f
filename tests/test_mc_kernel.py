"""The streaming Monte-Carlo entangling-power kernel against its oracles.

``reference_entangling_power_mc`` is the dense einsum estimator the kernel
replaced: it normalizes the draws, builds every reduced density matrix and
takes ``1 - tr(rho_1^2)``.  It reads the same per-block random streams
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

    Block ``i`` of ``_MC_CHUNK`` samples draws ``standard_normal((4, 2 n))``
    from ``SeedSequence(seed).spawn(n_blocks)[i]``, read as the complex rows
    a0, a1, b0, b1.
    """
    n_blocks = -(-samples // ent._MC_CHUNK)
    rows = []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        n = min(ent._MC_CHUNK, samples - i * ent._MC_CHUNK)
        rows.append(np.random.default_rng(stream).standard_normal((4, 2 * n)).view(complex))
    return np.concatenate(rows, axis=1).reshape(2, 2, samples).transpose(0, 2, 1)


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


def test_chunked_kernel_keeps_memory_near_the_draws(workers):
    workers(2)
    samples = 100_000
    u = random_unitary(np.random.default_rng(7), 4)
    tracemalloc.start()
    try:
        ent.entangling_power_mc(u, samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The entropy vector and the temporary of its std (8 bytes per sample
    # each) and about 2 MB of draws and temporaries per worker; drawing all
    # Gaussians at once took 6.4 MB on its own.
    assert peak < 2 * samples * 8 + 2 * 2_000_000
