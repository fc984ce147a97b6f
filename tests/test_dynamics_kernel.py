"""The stacked parallel-transport check against the loop it replaced and
against the static block it equals, and the dynamics results against the
gauge freedom of the eigenvectors.

``loop_max_logical_block`` is the per-sample loop ``evolve_and_project`` ran
before its dynamics check was stacked; the stacked check evaluates the same
expression with its products regrouped, so the two agree to roundoff.
Every reported quantity is a function of the eigensystem that does not
depend on the eigenvector basis, so re-phasing the eigenvectors and mixing
them inside degenerate clusters must leave the reports unchanged to
roundoff.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmat import random_hermitian, random_unitary
from holodfs import holonomy as ho
from holodfs import linalg
from holodfs.spin_model import SubspaceFrame, restrict

DYN_TOL = 1e-15


def chunk_length(dim, k):
    # Sampled times per stacked pass for a dim x dim Hamiltonian and a k-dim
    # frame: as many as keep one gemm below the single-thread size.
    return max(1, (ho._GEMM_SINGLE_THREAD - 1) // (dim * dim * k))


@st.composite
def routes(draw):
    # A Hamiltonian dimension, a frame width and a sample count on and
    # around one and two chunks of that route, or an arbitrary one.
    dim = draw(st.sampled_from([3, 6, 8, 16]))
    k = draw(st.integers(1, min(4, dim)))
    chunk = chunk_length(dim, k)
    samples = draw(st.one_of(
        st.sampled_from([2, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1]),
        st.integers(2, 600),
    ))
    return dim, k, samples


def loop_max_logical_block(h, values, vectors, frame, tau, samples):
    coeff = vectors.conj().T @ frame
    max_dyn = 0.0
    for t in np.linspace(0.0, tau, samples):
        evolved = vectors @ (np.exp(-1j * values * t)[:, None] * coeff)
        block = evolved.conj().T @ h @ evolved
        max_dyn = max(max_dyn, float(np.max(np.abs(block))))
    return max_dyn


def random_frame(rng, dim, k):
    vectors = random_unitary(rng, dim)[:, :k]
    return SubspaceFrame(n_qubits=4, labels=tuple("x" * (i + 1) for i in range(k)),
                         vectors=vectors)


def unit_hermitian(rng, dim):
    h = random_hermitian(rng, dim)
    return h / np.linalg.norm(h, 2)


class TestStackedDynamicsCheck:
    @settings(max_examples=80, deadline=None)
    @given(route=routes(), tau=st.floats(0.05, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_on_random_hamiltonians(self, route, tau, seed):
        dim, k, samples = route
        rng = np.random.default_rng(seed)
        h = unit_hermitian(rng, dim)
        frame = random_frame(rng, dim, k)
        report = ho.evolve_and_project(h, frame, tau, samples=samples)
        values, vectors = linalg.eigh(h)
        expected = loop_max_logical_block(h, values, vectors, frame.vectors, tau, samples)
        assert abs(report.max_dynamical_norm - expected) <= DYN_TOL

    @settings(max_examples=80, deadline=None)
    @given(route=routes(), tau=st.floats(0.05, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_when_the_block_moves(self, route, tau, seed):
        # A basis that does not diagonalise h makes the logical block vary
        # with time, so every sampled time can set the maximum.
        dim, k, samples = route
        rng = np.random.default_rng(seed)
        h = unit_hermitian(rng, dim)
        values = rng.uniform(-1.0, 1.0, dim)
        vectors = random_unitary(rng, dim)
        frame = random_unitary(rng, dim)[:, :k]
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

    def test_gemm_size_cap_can_cut_chunks_to_single_times(self, monkeypatch):
        # A cap below one time's product leaves chunks of one sampled time.
        monkeypatch.setattr(ho, "_GEMM_SINGLE_THREAD", 1)
        rng = np.random.default_rng(11)
        h = unit_hermitian(rng, 8)
        values, vectors = rng.uniform(-1.0, 1.0, 8), random_unitary(rng, 8)
        frame = random_unitary(rng, 8)[:, :3]
        got = ho._max_logical_block(h, values, vectors, frame, 4.0, 37)
        expected = loop_max_logical_block(h, values, vectors, frame, 4.0, 37)
        assert abs(got - expected) <= DYN_TOL

    @pytest.mark.parametrize("dim, k", [(3, 2), (16, 4)])
    def test_memory_is_bounded_by_the_chunk(self, dim, k):
        rng = np.random.default_rng(3)
        h = unit_hermitian(rng, dim)
        frame = random_frame(rng, dim, k)
        tracemalloc.start()
        try:
            ho.evolve_and_project(h, frame, 5.0, samples=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One unchunked (100000, 16, 4) complex stack alone would be 102 MB;
        # a 3 x 2 chunk of 3640 times is 0.35 MB per array, and the sample
        # times themselves are 0.8 MB.
        assert peak < 4_000_000

    def test_sample_cap_edge(self, monkeypatch):
        monkeypatch.setattr(ho, "MAX_TIME_SAMPLES", 300)
        rng = np.random.default_rng(5)
        h = unit_hermitian(rng, 3)
        frame = random_frame(rng, 3, 2)
        ho.evolve_and_project(h, frame, 1.0, samples=300)
        with pytest.raises(ValueError, match="samples=301 exceeds MAX_TIME_SAMPLES=300"):
            ho.evolve_and_project(h, frame, 1.0, samples=301)


class TestStaticBlockIdentity:
    # For a constant h, U(t) commutes with h, so F(t)^dag h F(t) = F0^dag h F0
    # at every t: the sampled maximum is the static block up to roundoff of
    # a few ulps per term of the d-term sums (about 12 ulps worst in 20000
    # random draws).
    ULPS = 32

    @settings(max_examples=80, deadline=None)
    @given(route=routes(), tau=st.floats(0.05, 30.0), scale=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_maximum_equals_the_static_block(self, route, tau, scale, seed):
        dim, k, samples = route
        rng = np.random.default_rng(seed)
        h = 10.0**scale * unit_hermitian(rng, dim)
        frame = random_frame(rng, dim, k)
        static = np.max(np.abs(frame.vectors.conj().T @ h @ frame.vectors))
        report = ho.evolve_and_project(h, frame, tau, samples=samples)
        bound = self.ULPS * np.finfo(float).eps * np.linalg.norm(h, 2)
        assert abs(report.max_dynamical_norm - static) <= bound


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


# Loop Hamiltonians and logical frames in full space and in their sector:
# the Hadamard and pi/8 lambda loops and a two-qubit double-lambda loop.
LOOPS = [ho.params_for_rotation(3 * math.pi / 4, math.pi),
         ho.params_for_rotation(0.0, math.pi / 4),
         ho.GateParams2Q(theta_tilde=0.6)]


def loop_cases():
    for g in LOOPS:
        h = g.terms()[0]
        sector, logical = g.frames()
        h_eff, _ = restrict(h, sector)
        yield h, logical, g.tau
        yield h_eff, g.frames(effective=True)[1], g.tau


CASES = list(loop_cases())
# Eigenvalues closer than this belong to one degenerate cluster.
CLUSTER_GAP = 1e-9
GAUGE_TOL = 1e-14


def regauged(eigh, rng):
    # eigh followed by V -> V D, with D a random phase on each isolated
    # eigenvector and a Haar unitary on each degenerate cluster.
    def wrapped(h):
        values, vectors = eigh(h)
        d = np.zeros((len(values), len(values)), dtype=complex)
        cuts = np.flatnonzero(np.diff(values) > CLUSTER_GAP) + 1
        for cluster in np.split(np.arange(len(values)), cuts):
            d[np.ix_(cluster, cluster)] = random_unitary(rng, len(cluster))
        return values, vectors @ d

    return wrapped


def test_full_space_loops_have_degenerate_clusters():
    # The gauge test below mixes eigenvectors only where clusters exist; the
    # 3-dim lambda sectors are non-degenerate and get phases alone.
    for h, _, _ in CASES[::2]:
        values, _ = linalg.eigh(h)
        assert np.any(np.diff(values) <= CLUSTER_GAP)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(CASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_reports_do_not_depend_on_the_eigenvector_gauge(case, seed):
    h, frame, tau = CASES[case]
    plain = ho.evolve_and_project(h, frame, tau)
    plain_u = linalg.expm_hermitian(h, tau)
    with mock.patch.object(linalg, "eigh", regauged(linalg.eigh, np.random.default_rng(seed))):
        gauged = ho.evolve_and_project(h, frame, tau)
        gauged_u = linalg.expm_hermitian(h, tau)
    assert np.max(np.abs(gauged.holonomy - plain.holonomy)) <= GAUGE_TOL
    assert np.max(np.abs(gauged_u - plain_u)) <= GAUGE_TOL
    for name in ("max_dynamical_norm", "cyclicity_residual", "leakage"):
        assert abs(getattr(gauged, name) - getattr(plain, name)) <= GAUGE_TOL
