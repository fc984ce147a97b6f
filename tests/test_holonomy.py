import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from holodfs import holonomy as ho
from holodfs import linalg
from holodfs import spin_model as sm

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def effective_h1(g: ho.GateParams1Q):
    h, _ = sm.restrict(sm.build_h1(g.couplings()), sm.dfs3_frame())
    return h


def effective_h2(g: ho.GateParams2Q):
    h, _ = sm.restrict(sm.build_h2(g.couplings()), sm.dfs6_frame())
    return h


def analytic_u_tau(g: ho.GateParams1Q, t: float) -> np.ndarray:
    # Closed-form lambda-system evolution operator at time t in the basis
    # {|0_L>, |1_L>, |a>}, built from the analytic eigensystem (dark state
    # at energy zero, bright doublet at omega*(cos phi +- 1)) rather than
    # from a matrix exponential: an oracle independent of the numerical route.
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
    dark = np.array([c, -s, 0.0], dtype=complex)
    bright = np.array([s, c, 0.0], dtype=complex)
    anc = np.array([0.0, 0.0, 1.0], dtype=complex)
    cp, sp = math.cos(g.phi / 2), math.sin(g.phi / 2)
    u = np.outer(dark, dark.conj())
    for vector, energy in ((cp * anc + sp * bright, g.omega * (math.cos(g.phi) + 1.0)),
                           (sp * anc - cp * bright, g.omega * (math.cos(g.phi) - 1.0))):
        u = u + np.exp(-1j * energy * t) * np.outer(vector, vector.conj())
    return u


class TestGateParams:
    def test_coupling_normalization(self):
        g = ho.GateParams1Q(theta=1.0, phi=0.7, m=2, omega=1.4)
        c = g.couplings()
        assert c.j1a**2 + c.j2a**2 + c.b**2 == pytest.approx(g.omega**2, abs=1e-12)
        assert g.tau == pytest.approx(2 * math.pi / 1.4)

    def test_1q_validation(self):
        with pytest.raises(ValueError, match="theta"):
            ho.GateParams1Q(theta=4.0, phi=0.5)
        with pytest.raises(ValueError, match="winding"):
            ho.GateParams1Q(theta=1.0, phi=0.5, m=0)

    def test_2q_odd_winding_required(self):
        with pytest.raises(ValueError, match="odd"):
            ho.GateParams2Q(theta_tilde=0.5, m_tilde=2)
        g = ho.GateParams2Q(theta_tilde=0.5, m_tilde=3)
        assert g.tau == pytest.approx(3 * math.pi)

    def test_2q_angle_range(self):
        with pytest.raises(ValueError, match="theta_tilde"):
            ho.GateParams2Q(theta_tilde=2.0)

    @pytest.mark.parametrize("build, name", [
        (lambda: ho.GateParams1Q(theta=1.0, phi=1.0, omega=1e-310), "omega"),
        (lambda: ho.GateParams2Q(theta_tilde=0.6, omega_tilde=1e-310), "omega_tilde"),
    ])
    def test_overflowing_loop_duration_names_the_scale(self, build, name):
        with pytest.raises(ValueError, match=f"^loop duration tau = .* {name}=1e-310$"):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: ho.GateParams1Q(theta=1.0, phi=1.0, omega=1.7976931348623157e308), "omega"),
        (lambda: ho.GateParams2Q(theta_tilde=0.6, omega_tilde=1e308), "omega_tilde"),
    ], ids=["1q", "2q"])
    def test_overflowing_field_term_names_the_scale(self, build, name):
        with pytest.raises(ValueError, match=rf"^{name}=.* overflows the loop Hamiltonian"):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda: ho.GateParams2Q(0.6, m_tilde=3.0), "m_tilde"),
        (lambda: ho.params_for_rotation(1.0, 2.0, m=2.0), "m"),
        (lambda: ho.GateParams1Q(theta=1.0, phi=0.5, m=math.nan), "m"),
    ], ids=["m_tilde=3.0", "m=2.0", "m=nan"])
    def test_non_integral_winding_is_refused(self, build, name):
        with pytest.raises(ValueError, match=f"^winding {name} must be a positive integer"):
            build()


class TestSharedLoopMembers:
    LOOPS = [ho.GateParams1Q(theta=1.1, phi=0.6, m=2, omega=1.3),
             ho.GateParams2Q(theta_tilde=0.4, m_tilde=3, omega_tilde=0.7)]

    @pytest.mark.parametrize("g", LOOPS)
    def test_terms_are_the_perturbed_hamiltonian(self, g):
        d1, d2 = 0.37, -1.9
        if isinstance(g, ho.GateParams1Q):
            build, direct = sm.build_h1, dataclasses.replace(g.couplings(), d1a_z=d1, d2a_z=d2)
        else:
            build, direct = sm.build_h2, dataclasses.replace(g.couplings(), d32_z=d1, d42_z=d2)
        h0, g1, g2 = g.terms()
        assert np.array_equal(h0, build(g.couplings()))
        assert np.array_equal(g.hamiltonian(), h0)
        assert np.array_equal(h0 + d1 * g1 + d2 * g2, build(direct))

    @pytest.mark.parametrize("g, sizes", zip(LOOPS, [(3, 2), (6, 4)]))
    def test_frames_nest_in_the_hamiltonian_space(self, g, sizes):
        sector, logical = g.frames()
        assert (sector.size, logical.size) == sizes
        assert set(logical.labels) <= set(sector.labels)
        assert sector.dim == logical.dim == len(g.terms()[0])

    @pytest.mark.parametrize("g, other", zip(LOOPS, [ho.GateParams1Q(theta=0.2, phi=2.0),
                                                     ho.GateParams2Q(theta_tilde=1.2)]))
    @pytest.mark.parametrize("effective", [False, True])
    def test_frames_are_shared_frozen_and_equal_to_fresh_ones(self, g, other, effective):
        # The frames are built once per process: repeated calls, from any
        # loop of the same kind, return the very same frozen objects.
        sector, logical = g.frames(effective=effective)
        for a, b, c in zip((sector, logical), g.frames(effective),
                           other.frames(effective=effective)):
            assert a is b is c
            assert not a.vectors.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.labels = ()
        assert logical.dim == (sector.size if effective else sector.dim)
        build_logical = (sm.logical_frame_1q if isinstance(g, ho.GateParams1Q)
                         else sm.logical_frame_2q).__wrapped__
        fresh = (sm.dfs_frame.__wrapped__(sector.n_qubits, sector.labels[0].count("1")),
                 build_logical(effective))
        for cached, built in zip((sector, logical), fresh):
            assert cached is not built
            assert (cached.n_qubits, cached.labels) == (built.n_qubits, built.labels)
            assert np.array_equal(cached.vectors, built.vectors)


class TestAnalyticUTau:
    def test_initial_time_is_identity(self):
        g = ho.GateParams1Q(theta=0.4, phi=1.0)
        assert_allclose(analytic_u_tau(g, 0.0), np.eye(3), atol=1e-14)

    def test_loop_closure_block_structure(self):
        g = ho.GateParams1Q(theta=1.9, phi=0.8, m=1, omega=1.2)
        u = analytic_u_tau(g, g.tau)
        # Logical block equals the closed-form gate; ancilla picks up a phase.
        assert np.max(np.abs(u[:2, 2])) < 1e-12
        assert np.max(np.abs(u[2, :2])) < 1e-12
        assert_allclose(u[:2, :2], ho.analytic_gate_1q(g.theta, g.gamma), atol=1e-12)
        assert abs(u[2, 2]) == pytest.approx(1.0, abs=1e-12)
        assert u[2, 2] == pytest.approx(np.exp(-1j * g.gamma), abs=1e-12)

    def test_matches_numerical_exponential_on_grid(self):
        g = ho.GateParams1Q(theta=2.1, phi=2.4, m=1, omega=0.9)
        h = effective_h1(g)
        for t in np.linspace(0.0, 2 * g.tau, 20):
            diff = analytic_u_tau(g, t) - linalg.expm_hermitian(h, t)
            assert np.max(np.abs(diff)) < 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            analytic_u_tau(ho.GateParams1Q(theta=0.1, phi=0.1), -1.0)


class TestAnalyticGate1Q:
    def test_full_turn_is_identity(self):
        for theta in (0.0, 0.7, math.pi):
            assert_allclose(
                ho.analytic_gate_1q(theta, 2 * math.pi), np.eye(2), atol=1e-12
            )

    def test_hadamard_point(self):
        u = ho.analytic_gate_1q(3 * math.pi / 4, math.pi)
        assert linalg.phase_invariant_distance(u, HADAMARD) < 1e-12
        # Direct substitution gives -(X + Z)/sqrt(2).
        assert_allclose(u, -HADAMARD, atol=1e-12)

    def test_pi_eighth_gate(self):
        u = ho.analytic_gate_1q(0.0, math.pi / 4)
        target = np.diag([1.0, np.exp(-1j * math.pi / 4)])
        assert linalg.phase_invariant_distance(u, target) < 1e-12
        assert_allclose(
            u, np.exp(-1j * math.pi / 8) * np.diag(
                [np.exp(1j * math.pi / 8), np.exp(-1j * math.pi / 8)]
            ),
            atol=1e-12,
        )

    def test_unitary(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            u = ho.analytic_gate_1q(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert linalg.unitarity_defect(u) < 1e-12


class TestAnalyticGate2Q:
    def test_quarter_angle_matrix(self):
        r = 1 / math.sqrt(2)
        expected = np.array(
            [
                [r, -r, 0, 0],
                [-r, -r, 0, 0],
                [0, 0, -r, -r],
                [0, 0, -r, r],
            ]
        )
        assert_allclose(ho.analytic_gate_2q(math.pi / 4), expected, atol=1e-15)

    def test_zero_angle_is_local(self):
        assert_allclose(
            ho.analytic_gate_2q(0.0), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0
        )

    def test_unitary(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            u = ho.analytic_gate_2q(rng.uniform(0, math.pi / 2))
            assert linalg.unitarity_defect(u) < 1e-12

    def test_conditional_rotation_structure(self):
        tt = 0.9
        u = ho.analytic_gate_2q(tt)
        for axis_sign, block in ((-1.0, u[:2, :2]), (1.0, u[2:, 2:])):
            axis_op = math.sin(tt) * sm.SIGMA_X + axis_sign * math.cos(tt) * sm.SIGMA_Z
            rotation = -1j * axis_op  # pi rotation about the tilted axis
            assert linalg.phase_invariant_distance(block, rotation) < 1e-12


class TestParamsForRotation:
    def test_hadamard_parameters(self):
        g = ho.params_for_rotation(3 * math.pi / 4, math.pi, m=1)
        assert g.phi == pytest.approx(math.pi / 2)
        assert g.couplings().b == pytest.approx(0.0, abs=1e-15)

    def test_pi_eighth_parameters(self):
        g = ho.params_for_rotation(0.0, math.pi / 4, m=1)
        assert g.phi == pytest.approx(math.acos(-0.75))

    def test_full_turn_pure_field_loop(self):
        g = ho.params_for_rotation(1.234, 2 * math.pi, m=1)
        assert g.phi == pytest.approx(0.0)
        c = g.couplings()
        assert abs(c.j1a) < 1e-12 and abs(c.j2a) < 1e-12
        report = ho.evolve_and_project(
            effective_h1(g), sm.logical_frame_1q(effective=True), g.tau
        )
        assert np.max(np.abs(report.holonomy - np.eye(2))) < 1e-10

    def test_unreachable_angle_names_minimal_winding(self):
        with pytest.raises(ValueError, match="m=2"):
            ho.params_for_rotation(0.5, 7.0, m=1)

    @pytest.mark.parametrize("gamma", [-1.0, -7.0, -1e-300])
    def test_negative_angle_names_the_sign_and_the_same_gate(self, gamma):
        with pytest.raises(ValueError, match="is negative, and no winding reaches") as refused:
            ho.params_for_rotation(0.5, gamma, m=4)
        same = gamma % (2 * math.pi)
        assert f"gamma={same:g} gives the same gate" in str(refused.value)
        assert np.allclose(ho.analytic_gate_1q(0.5, same), ho.analytic_gate_1q(0.5, gamma),
                           rtol=0.0, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            theta = rng.uniform(0, math.pi)
            m = int(rng.integers(1, 4))
            gamma = rng.uniform(0, 2 * m * math.pi)
            g = ho.params_for_rotation(theta, gamma, m=m)
            report = ho.evolve_and_project(
                effective_h1(g),
                sm.logical_frame_1q(effective=True),
                g.tau,
                ideal=ho.analytic_gate_1q(theta, gamma),
            )
            assert report.analytic_distance < 1e-10

    @settings(deadline=None, max_examples=40)
    @given(theta=st.floats(0.0, math.pi), m=st.integers(1, 3), fraction=st.floats(0.0, 1.0))
    @example(theta=0.0, m=1, fraction=0.0)
    @example(theta=math.pi, m=3, fraction=1.0)
    def test_synthesized_gate_is_the_closed_form(self, theta, m, fraction):
        # The loop for a rotation by gamma in [0, 2 m pi], run in full
        # space, closes on the closed-form gate at the gate-formula tolerance.
        gamma = fraction * 2 * m * math.pi
        g = ho.params_for_rotation(theta, gamma, m=m)
        report = ho.evolve_and_project(
            sm.build_h1(g.couplings()),
            sm.logical_frame_1q(),
            g.tau,
            ideal=ho.analytic_gate_1q(theta, gamma),
        )
        assert report.analytic_distance < 1e-9


class TestEvolveAndProject:
    def test_lambda_loop_closes_on_analytic_gate(self):
        g = ho.GateParams1Q(theta=0.77, phi=1.9, m=1)
        report = ho.evolve_and_project(
            effective_h1(g),
            sm.logical_frame_1q(effective=True),
            g.tau,
            ideal=ho.analytic_gate_1q(g.theta, g.gamma),
        )
        assert report.analytic_distance < 1e-10
        assert report.leakage < 1e-10
        assert report.max_dynamical_norm < 1e-12
        assert report.cyclicity_residual < 1e-10

    def test_quarter_period_leakage(self):
        g = ho.GateParams1Q(theta=0.9, phi=1.1, m=1, omega=1.3)
        tau = math.pi / (2 * g.omega)
        report = ho.evolve_and_project(
            effective_h1(g), sm.logical_frame_1q(effective=True), tau
        )
        # Brute-force oracle: population of the evolved logical states that
        # remains inside the frame, averaged over the two basis states.
        u = linalg.expm_hermitian(effective_h1(g), tau)
        block = sm.logical_frame_1q(effective=True).vectors.conj().T @ u[:, :2]
        oracle = 1 - (np.linalg.norm(block) ** 2) / 2
        assert report.leakage == pytest.approx(oracle, abs=1e-13)
        # Off-diagonal bright-ancilla mixing distributes over both logical
        # states, giving half of sin(phi)^2 sin(omega tau)^2 on average.
        closed_form = 0.5 * math.sin(g.phi) ** 2 * math.sin(g.omega * tau) ** 2
        assert report.leakage == pytest.approx(closed_form, abs=1e-12)
        assert report.leakage > 0.1

    def test_partial_loop_block_not_unitary(self):
        g = ho.GateParams1Q(theta=0.9, phi=1.1, m=1)
        u = linalg.expm_hermitian(effective_h1(g), math.pi / 2)
        block = linalg.project_onto(u, sm.logical_frame_1q(effective=True))
        singulars = np.linalg.svd(block, compute_uv=False)
        # The dark direction never leaks (singular value 1); the bright
        # component has left the frame, making the block non-unitary.
        assert singulars.max() == pytest.approx(1.0, abs=1e-12)
        assert singulars.min() < 1.0 - 0.1
        assert linalg.unitarity_defect(block) > 0.1

    def test_full_and_effective_reports_agree(self):
        g = ho.GateParams1Q(theta=2.4, phi=0.5, m=2)
        full = ho.evolve_and_project(
            sm.build_h1(g.couplings()), sm.logical_frame_1q(), g.tau
        )
        eff = ho.evolve_and_project(
            effective_h1(g), sm.logical_frame_1q(effective=True), g.tau
        )
        assert np.max(np.abs(full.holonomy - eff.holonomy)) < 1e-11
        assert full.leakage == pytest.approx(eff.leakage, abs=1e-11)
        assert full.max_dynamical_norm == pytest.approx(
            eff.max_dynamical_norm, abs=1e-11
        )

    def test_gate_formula_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, math.pi)
            m = int(rng.integers(1, 4))
            g = ho.GateParams1Q(theta=theta, phi=phi, m=m)
            report = ho.evolve_and_project(
                sm.build_h1(g.couplings()),
                sm.logical_frame_1q(),
                g.tau,
                ideal=ho.analytic_gate_1q(theta, g.gamma),
            )
            assert report.analytic_distance < 1e-9

    def test_two_qubit_equivalence(self):
        rng = np.random.default_rng(52)
        for m_tilde in (1, 3):
            for _ in range(5):
                tt = rng.uniform(0.05, math.pi / 2 - 0.05)
                g = ho.GateParams2Q(theta_tilde=tt, m_tilde=m_tilde)
                ideal = ho.analytic_gate_2q(tt)
                eff = ho.evolve_and_project(
                    effective_h2(g), sm.logical_frame_2q(effective=True), g.tau
                )
                # Phase-exact match for the effective run.
                assert np.max(np.abs(eff.holonomy - ideal)) < 1e-9
                full = ho.evolve_and_project(
                    sm.build_h2(g.couplings()), sm.logical_frame_2q(), g.tau
                )
                assert np.max(np.abs(full.holonomy - ideal)) < 1e-9

    def test_even_winding_gives_identity(self):
        p = sm.CouplingParams2Q(j32=math.sin(0.4), j42=math.cos(0.4))
        tau = 2 * math.pi / p.omega  # winding 2
        report = ho.evolve_and_project(
            sm.build_h2(p), sm.logical_frame_2q(), tau
        )
        assert np.max(np.abs(report.holonomy - np.eye(4))) < 1e-10

    def test_parallel_transport_everywhere(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            g = ho.GateParams1Q(
                theta=rng.uniform(0, math.pi), phi=rng.uniform(0, math.pi)
            )
            report = ho.evolve_and_project(
                effective_h1(g), sm.logical_frame_1q(effective=True), g.tau
            )
            assert report.max_dynamical_norm < 1e-12
            g2 = ho.GateParams2Q(theta_tilde=rng.uniform(0.05, 1.5))
            report2 = ho.evolve_and_project(
                effective_h2(g2), sm.logical_frame_2q(effective=True), g2.tau
            )
            assert report2.max_dynamical_norm < 1e-12

    def test_validation(self):
        g = ho.GateParams1Q(theta=0.3, phi=0.3)
        with pytest.raises(ValueError, match="samples"):
            ho.evolve_and_project(
                effective_h1(g), sm.logical_frame_1q(effective=True), g.tau, samples=1
            )
        with pytest.raises(ValueError, match="incompatible"):
            ho.evolve_and_project(effective_h1(g), sm.logical_frame_1q(), g.tau)

    def test_composed_rotations_reach_y_axis(self):
        # Two pi rotations about xz-plane axes compose to a rotation about y
        # by twice the angle between the axes.
        theta1, theta2 = 2.2, 1.5
        product = ho.analytic_gate_1q(theta1, math.pi) @ ho.analytic_gate_1q(
            theta2, math.pi
        )
        delta = theta1 - theta2
        best = min(
            linalg.phase_invariant_distance(product, ry)
            for ry in (
                np.array(
                    [[math.cos(delta), -math.sin(delta)],
                     [math.sin(delta), math.cos(delta)]],
                    dtype=complex,
                ),
                np.array(
                    [[math.cos(delta), math.sin(delta)],
                     [-math.sin(delta), math.cos(delta)]],
                    dtype=complex,
                ),
            )
        )
        assert best < 1e-12


class TestDiscretizedHolonomy:
    def test_zero_hamiltonian(self):
        frame = sm.logical_frame_1q(effective=True)
        w = ho.discretized_holonomy(np.zeros((3, 3)), frame, 1.0, 200)
        assert np.max(np.abs(w - np.eye(2))) == 0.0

    def test_converges_first_order_to_holonomy(self):
        g = ho.params_for_rotation(3 * math.pi / 4, math.pi)
        h = effective_h1(g)
        frame = sm.logical_frame_1q(effective=True)
        exact = ho.evolve_and_project(h, frame, g.tau).holonomy
        e1 = np.linalg.norm(ho.discretized_holonomy(h, frame, g.tau, 1000) - exact)
        e2 = np.linalg.norm(ho.discretized_holonomy(h, frame, g.tau, 2000) - exact)
        assert e1 < 1e-2
        assert e1 / e2 == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("effective", [True, False], ids=["effective", "full"])
    @pytest.mark.parametrize("theta_tilde", [0.6, 1.2])
    def test_two_qubit_loop_converges_first_order(self, theta_tilde, effective):
        # The 6-dim sector and the 16-dim space, each with its 4-dim logical frame.
        g = ho.GateParams2Q(theta_tilde)
        h = effective_h2(g) if effective else g.hamiltonian()
        frame = g.frames(effective)[1]
        exact = ho.evolve_and_project(h, frame, g.tau).holonomy
        e1 = np.linalg.norm(ho.discretized_holonomy(h, frame, g.tau, 1000) - exact)
        e2 = np.linalg.norm(ho.discretized_holonomy(h, frame, g.tau, 2000) - exact)
        assert e1 < 1e-2
        assert e1 / e2 == pytest.approx(2.0, abs=0.1)

    def test_matches_analytic_gate_at_fine_resolution(self):
        g = ho.params_for_rotation(3 * math.pi / 4, math.pi)
        h = effective_h1(g)
        frame = sm.logical_frame_1q(effective=True)
        w = ho.discretized_holonomy(h, frame, g.tau, 10_000)
        ideal = ho.analytic_gate_1q(3 * math.pi / 4, math.pi)
        assert np.linalg.norm(w - ideal) < 1e-3

    def test_stationary_frame_ignores_dynamical_phases(self):
        # Eigenvector frame of a diagonal generator: the subspace never
        # moves, so the Wilson line is the identity even though the
        # projected evolution is a nontrivial diagonal of phases.
        h = np.diag([0.3, -0.7, 1.1]).astype(complex)
        frame = sm.SubspaceFrame(
            n_qubits=3, labels=("001", "100"), vectors=np.eye(3)[:, :2]
        )
        w = ho.discretized_holonomy(h, frame, 2.0, 1000)
        assert np.max(np.abs(w - np.eye(2))) < 1e-10
        report = ho.evolve_and_project(h, frame, 2.0)
        assert np.max(np.abs(report.holonomy - np.eye(2))) > 0.5

    def test_step_count_validation(self):
        frame = sm.logical_frame_1q(effective=True)
        with pytest.raises(ValueError, match="steps"):
            ho.discretized_holonomy(np.zeros((3, 3)), frame, 1.0, 50)

    def test_rank_collapse_raises(self):
        g = ho.params_for_rotation(3 * math.pi / 4, math.pi)
        h = effective_h1(g)
        frame = sm.logical_frame_1q(effective=True)
        # Non-resonant long duration: each step rotates the bright component
        # nearly out of the frame and the overlap loses rank.
        with pytest.raises(RuntimeError, match="rank collapse"):
            ho.discretized_holonomy(h, frame, 51 * g.tau, 100)
