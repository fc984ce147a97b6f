"""The stacked parallel-transport check and the vectorised eigenvector phase
fix against the loops they replaced.

``loop_max_logical_block`` is the per-sample loop ``evolve_and_project`` ran
before its dynamics check was stacked, and ``loop_fix_column_phases`` the
per-column loop of ``linalg._fix_column_phases``.  Both rewrites do the same
arithmetic per sampled time and per column, so they must agree to roundoff
(the phase fix bit for bit).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmat import random_hermitian, random_unitary
from holodfs import holonomy as ho
from holodfs import linalg
from holodfs.spin_model import SubspaceFrame

DYN_TOL = 1e-15
# Sample counts on and around one and two chunks, then arbitrary ones.
SAMPLES = st.one_of(
    st.sampled_from([2, ho._TIME_CHUNK - 1, ho._TIME_CHUNK, ho._TIME_CHUNK + 1,
                     2 * ho._TIME_CHUNK, 2 * ho._TIME_CHUNK + 1]),
    st.integers(2, 600),
)


def loop_max_logical_block(h, values, vectors, frame, tau, samples):
    coeff = vectors.conj().T @ frame
    max_dyn = 0.0
    for t in np.linspace(0.0, tau, samples):
        evolved = vectors @ (np.exp(-1j * values * t)[:, None] * coeff)
        block = evolved.conj().T @ h @ evolved
        max_dyn = max(max_dyn, float(np.max(np.abs(block))))
    return max_dyn


def loop_fix_column_phases(vectors):
    out = np.array(vectors, dtype=complex)
    for col in range(out.shape[1]):
        v = out[:, col]
        mags = np.abs(v)
        pivot = np.flatnonzero(mags > 1e-6 * mags.max())[0]
        out[:, col] = v * (np.conj(v[pivot]) / mags[pivot])
    return out


def random_frame(rng, dim, k):
    vectors = random_unitary(rng, dim)[:, :k]
    return SubspaceFrame(n_qubits=4, labels=tuple("x" * (i + 1) for i in range(k)),
                         vectors=vectors)


def unit_hermitian(rng, dim):
    h = random_hermitian(rng, dim)
    return h / np.linalg.norm(h, 2)


class TestStackedDynamicsCheck:
    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from([3, 6, 8, 16]), k=st.integers(1, 4), samples=SAMPLES,
           tau=st.floats(0.05, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_on_random_hamiltonians(self, dim, k, samples, tau, seed):
        rng = np.random.default_rng(seed)
        h = unit_hermitian(rng, dim)
        frame = random_frame(rng, dim, min(k, dim))
        report = ho.evolve_and_project(h, frame, tau, samples=samples)
        values, vectors = linalg.eigh(h)
        expected = loop_max_logical_block(h, values, vectors, frame.vectors, tau, samples)
        assert abs(report.max_dynamical_norm - expected) <= DYN_TOL

    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from([3, 6, 8, 16]), k=st.integers(1, 4), samples=SAMPLES,
           tau=st.floats(0.05, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_when_the_block_moves(self, dim, k, samples, tau, seed):
        # A basis that does not diagonalise h makes the logical block vary
        # with time, so every sampled time can set the maximum.
        rng = np.random.default_rng(seed)
        h = unit_hermitian(rng, dim)
        values = rng.uniform(-1.0, 1.0, dim)
        vectors = random_unitary(rng, dim)
        frame = random_unitary(rng, dim)[:, :min(k, dim)]
        got = ho._max_logical_block(h, values, vectors, frame, tau, samples)
        expected = loop_max_logical_block(h, values, vectors, frame, tau, samples)
        assert abs(got - expected) <= DYN_TOL

    @pytest.mark.parametrize("samples", [2, 255, 256, 257, 511, 512, 513, 600])
    def test_last_sampled_time_counts(self, samples):
        # h = |1><1| with the frame |0> carried by a Hadamard basis: the
        # block is sin^2(t/2), rising over [0, 3], so the last time is the max.
        h = np.diag([0.0, 1.0]).astype(complex)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
        got = ho._max_logical_block(h, np.array([0.0, 1.0]), hadamard,
                                    np.array([[1.0], [0.0]], dtype=complex), 3.0, samples)
        assert got == pytest.approx(math.sin(1.5) ** 2, abs=1e-15)

    def test_memory_is_bounded_by_the_chunk(self):
        rng = np.random.default_rng(3)
        h = unit_hermitian(rng, 16)
        frame = random_frame(rng, 16, 4)
        tracemalloc.start()
        try:
            ho.evolve_and_project(h, frame, 5.0, samples=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One unchunked (100000, 16, 4) complex stack alone would be 102 MB;
        # the sample times themselves are 0.8 MB.
        assert peak < 4_000_000

    def test_sample_cap_edge(self, monkeypatch):
        monkeypatch.setattr(ho, "MAX_TIME_SAMPLES", 300)
        rng = np.random.default_rng(5)
        h = unit_hermitian(rng, 3)
        frame = random_frame(rng, 3, 2)
        ho.evolve_and_project(h, frame, 1.0, samples=300)
        with pytest.raises(ValueError, match="samples=301 exceeds MAX_TIME_SAMPLES=300"):
            ho.evolve_and_project(h, frame, 1.0, samples=301)


class TestPhasePrecisionGuard:
    EPS = float(np.finfo(float).eps)

    def test_limit_edge(self):
        tau = ho.PHASE_ROUNDOFF_LIMIT / self.EPS
        ho.require_phase_precision(np.array([-0.99, 0.5]), tau)
        with pytest.raises(ValueError, match=r"\|E\|\*tau = 4\.55e\+06"):
            ho.require_phase_precision(np.array([0.5, -1.01]), tau)

    def test_nan_phase_is_refused(self):
        with pytest.raises(ValueError, match="above the gate tolerance"):
            ho.require_phase_precision(np.array([0.0, np.nan]), 1.0)

    def test_message_names_place_and_remedy(self):
        with pytest.raises(ValueError, match=r"at row 3 .*; do less$"):
            ho.require_phase_precision(np.array([1e10]), 1e10, where=" at row 3",
                                       remedy="do less")

    def test_evolve_and_project_refuses_lost_phases(self):
        frame = SubspaceFrame(n_qubits=1, labels=("a",), vectors=np.eye(2)[:, :1])
        h = np.diag([1.0, -1.0]).astype(complex)
        ho.evolve_and_project(h, frame, 1e6)
        with pytest.raises(ValueError, match=r"\|E\|\*tau = 1e\+08 .*lower the winding"):
            ho.evolve_and_project(h, frame, 1e8)


def random_columns(seed, rows, cols, zero_frac):
    # Complex entries, a share of them exactly zero, columns scaled over 24
    # decades; each column keeps at least one nonzero entry.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    m[rng.random((rows, cols)) < zero_frac] = 0.0
    keep = rng.integers(0, rows, cols)
    m[keep, np.arange(cols)] = 1.0 - 2.0j
    m[rng.random((rows, cols)) < 0.1] *= 1e-7  # entries near the pivot threshold
    return m * 10.0 ** rng.uniform(-12.0, 12.0, cols)


class TestFixColumnPhases:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16), cols=st.integers(1, 16),
           zero_frac=st.sampled_from([0.0, 0.3, 0.7]))
    def test_equals_column_loop(self, seed, rows, cols, zero_frac):
        m = random_columns(seed, rows, cols, zero_frac)
        assert np.array_equal(linalg._fix_column_phases(m), loop_fix_column_phases(m))

    @pytest.mark.parametrize("m, pivots", [
        # A column far below another's scale keys its phase off its own
        # first non-negligible entry, not off the matrix's largest.
        (np.array([[1.0, 0.0], [0.0, 3e-9j]]), [0, 1]),
        (np.array([[0.0, 2.0], [1e-8 - 1e-8j, 1.0j]]), [1, 0]),
        (np.array([[1e-7j, 1.0], [-1.0, 0.0]]), [1, 0]),
        (np.array([[-5.0j]]), [0]),
    ])
    def test_equals_column_loop_on_mixed_scales(self, m, pivots):
        got = linalg._fix_column_phases(m)
        assert np.array_equal(got, loop_fix_column_phases(m))
        lead = got[pivots, np.arange(m.shape[1])]
        assert np.all(lead.real > 0.0) and np.all(np.abs(lead.imag) <= 1e-15 * lead.real)
