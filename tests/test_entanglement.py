import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randmat import dressed_canonical, random_su2
from holodfs import entanglement as ent
from holodfs.holonomy import analytic_gate_2q

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Vertices O, A1, A2, A3 of the Weyl chamber, and the CNOT point L.
CHAMBER = np.array([[0.0, 0.0, 0.0], [math.pi, 0.0, 0.0],
                    [math.pi / 2, math.pi / 2, 0.0], [math.pi / 2] * 3])
L_POINT = (math.pi / 2, 0.0, 0.0)


@st.composite
def chamber_points(draw):
    """A point of the chamber: a named vertex or L, or a convex combination of
    one to four vertices, which lies on a vertex, an edge, a face or inside."""
    if draw(st.booleans()):
        return tuple(draw(st.sampled_from([*map(tuple, CHAMBER), L_POINT])))
    support = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
    weights = np.zeros(4)
    weights[support] = [draw(st.floats(0.01, 1.0)) for _ in support]
    return tuple(weights / weights.sum() @ CHAMBER)


def dress(u, rng):
    """Apply random SU(2) x SU(2) factors on both sides."""
    left = np.kron(random_su2(rng), random_su2(rng))
    right = np.kron(random_su2(rng), random_su2(rng))
    return left @ u @ right


class TestLocalInvariants:
    def test_identity(self):
        g1, g2 = ent.local_invariants(np.eye(4))
        assert g1 == pytest.approx(1.0, abs=1e-12)
        assert g2 == pytest.approx(3.0, abs=1e-12)

    def test_swap(self):
        g1, g2 = ent.local_invariants(SWAP)
        assert g1 == pytest.approx(-1.0, abs=1e-12)
        assert g2 == pytest.approx(-3.0, abs=1e-12)

    def test_cnot(self):
        g1, g2 = ent.local_invariants(CNOT)
        assert g1 == pytest.approx(0.0, abs=1e-12)
        assert g2 == pytest.approx(1.0, abs=1e-12)

    def test_gate_family_closed_form(self):
        for tt in np.linspace(0.01, math.pi / 2 - 0.01, 10):
            g1, g2 = ent.local_invariants(analytic_gate_2q(tt))
            assert g1 == pytest.approx(math.cos(2 * tt) ** 2, abs=1e-9)
            assert g2 == pytest.approx(math.cos(4 * tt) + 2, abs=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            ent.local_invariants(np.ones((4, 4)))

    def test_invariant_under_local_dressing(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            tt = rng.uniform(0.05, math.pi / 2 - 0.05)
            u = analytic_gate_2q(tt)
            g = ent.local_invariants(u)
            gd = ent.local_invariants(dress(u, rng))
            assert abs(g[0] - gd[0]) < 1e-9
            assert abs(g[1] - gd[1]) < 1e-9

    @settings(deadline=None, max_examples=60)
    @given(point=chamber_points(), gate_seed=st.integers(0, 2**32 - 1),
           dressing_seed=st.integers(0, 2**32 - 1), phase=st.floats(0.0, 2 * math.pi))
    def test_invariant_under_random_local_unitaries(self, point, gate_seed, dressing_seed,
                                                    phase):
        # A gate of any local class, between random local unitaries and
        # times a global phase, keeps both invariants.
        u = dressed_canonical(*point, np.random.default_rng(gate_seed))
        g1, g2 = ent.local_invariants(u)
        gd1, gd2 = ent.local_invariants(
            np.exp(1j * phase) * dress(u, np.random.default_rng(dressing_seed)))
        assert abs(g1 - gd1) < 1e-9
        assert abs(g2 - gd2) < 1e-9


class TestWeylCoordinates:
    def test_identity(self):
        assert np.allclose(ent.weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-12)

    def test_cnot_at_point_l(self):
        c = ent.weyl_coordinates(CNOT)
        assert np.allclose(c, (math.pi / 2, 0, 0), atol=1e-12)

    def test_swap_at_far_vertex(self):
        c = ent.weyl_coordinates(SWAP)
        assert np.allclose(c, (math.pi / 2, math.pi / 2, math.pi / 2), atol=1e-12)

    def test_gate_family_covers_base_edge(self):
        for tt in np.linspace(0.02, math.pi / 2 - 0.02, 12):
            c = ent.weyl_coordinates(analytic_gate_2q(tt))
            assert abs(c[0] - 2 * tt) < 1e-8
            assert abs(c[1]) < 1e-8
            assert abs(c[2]) < 1e-8

    def test_invariant_under_local_dressing(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            tt = rng.uniform(0.05, math.pi / 2 - 0.05)
            u = analytic_gate_2q(tt)
            c = ent.weyl_coordinates(u)
            cd = ent.weyl_coordinates(dress(u, rng))
            assert max(abs(a - b) for a, b in zip(c, cd)) < 1e-9

    def test_equal_invariants_equal_points(self):
        # Dressed copies of a family gate share (g1, g2) and must land on
        # the identical canonical point.
        rng = np.random.default_rng(29)
        for _ in range(8):
            tt = rng.uniform(0.05, math.pi / 2 - 0.05)
            u, v = analytic_gate_2q(tt), dress(analytic_gate_2q(tt), rng)
            gu, gv = ent.local_invariants(u), ent.local_invariants(v)
            assert abs(gu[0] - gv[0]) + abs(gu[1] - gv[1]) < 1e-9
            cu, cv = ent.weyl_coordinates(u), ent.weyl_coordinates(v)
            assert max(abs(a - b) for a, b in zip(cu, cv)) < 1e-8

    @settings(deadline=None, max_examples=300)
    @given(point=chamber_points(), seed=st.integers(0, 2**32 - 1),
           phase=st.floats(0.0, 2 * math.pi))
    # The SWAP point with all four eigenphases rounded onto the -1/4 edge.
    @example(point=(math.pi / 2,) * 3, seed=271, phase=4.234643543035343)
    def test_round_trip_of_dressed_canonical_gates(self, point, seed, phase):
        # A canonical gate between random local unitaries, times a global
        # phase, lands on its own point; on the base (c3 = 0) also on its
        # mirror (pi - c1, c2, 0), which is deliberately not folded.
        u = np.exp(1j * phase) * dressed_canonical(*point, np.random.default_rng(seed))
        c1, c2, c3 = point
        allowed = [point] + ([(math.pi - c1, c2, c3)] if c3 == 0.0 else [])
        found = ent.weyl_coordinates(u)
        assert min(max(abs(a - b) for a, b in zip(found, p)) for p in allowed) <= 1e-7


class TestEntanglingPower:
    def test_analytic_maximum(self):
        assert ent.entangling_power_analytic(math.pi / 4) == pytest.approx(2 / 9)

    def test_analytic_local_point(self):
        assert ent.entangling_power_analytic(0.0) == 0.0

    def test_analytic_half_maximum(self):
        # sin^2(pi/4) = 1/2 gives exactly one ninth.
        assert ent.entangling_power_analytic(math.pi / 8) == pytest.approx(1 / 9)

    def test_mc_identity_gate(self):
        estimate, stderr = ent.entangling_power_mc(np.eye(4), 2000, seed=0)
        assert estimate == pytest.approx(0.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_mc_matches_analytic_at_maximum(self):
        estimate, stderr = ent.entangling_power_mc(
            analytic_gate_2q(math.pi / 4), 100_000, seed=1
        )
        assert abs(estimate - 2 / 9) < 3 * stderr

    def test_mc_cnot(self):
        estimate, stderr = ent.entangling_power_mc(CNOT, 100_000, seed=2)
        assert abs(estimate - 2 / 9) < 3 * stderr

    def test_mc_seed_determinism(self):
        u = analytic_gate_2q(0.6)
        first = ent.entangling_power_mc(u, 5000, seed=7)
        second = ent.entangling_power_mc(u, 5000, seed=7)
        assert first == second

    def test_mc_sample_floor(self):
        with pytest.raises(ValueError, match="samples"):
            ent.entangling_power_mc(np.eye(4), 100, seed=0)

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, True, False])
    def test_mc_refuses_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            ent.entangling_power_mc(np.eye(4), 1000, seed=seed)

    @pytest.mark.parametrize("samples", [True, False, 1000.0])
    def test_mc_refuses_a_sample_count_that_is_not_an_integer(self, samples):
        # bool is an Integral, but True would run as 1 and a bool seed as 0 or 1.
        with pytest.raises(ValueError, match=f"samples must be an integer, got {samples}"):
            ent.entangling_power_mc(np.eye(4), samples, seed=0)


class TestCnotClass:
    def test_cnot(self):
        assert ent.is_cnot_class(CNOT)

    def test_family_at_quarter_angle(self):
        assert ent.is_cnot_class(analytic_gate_2q(math.pi / 4))

    def test_swap_is_not(self):
        assert not ent.is_cnot_class(SWAP)

    def test_family_off_the_point(self):
        assert not ent.is_cnot_class(analytic_gate_2q(0.3))

    @pytest.mark.parametrize("axis", range(3))
    def test_point_tolerance_is_per_coordinate(self, axis):
        for offset, inside in ((0.9e-6, True), (1.1e-6, False)):
            point = list(ent.CNOT_POINT)
            point[axis] += offset
            assert ent.is_cnot_point(tuple(point), 1e-6) is inside

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-12])
    def test_point_refuses_a_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="CNOT tolerance must be finite and non-negative"):
            ent.is_cnot_point(ent.CNOT_POINT, tol)

    def test_zero_tolerance_is_allowed(self):
        assert ent.is_cnot_point(ent.CNOT_POINT, 0.0)


class TestClassifyGate:
    def test_cnot_report(self):
        report = ent.classify_gate(CNOT, ep_samples=20_000, seed=0)
        assert report.cnot_equivalent
        assert abs(report.g1) < 1e-9
        assert report.g2 == pytest.approx(1.0, abs=1e-9)
        assert abs(report.ep - 2 / 9) < 3 * report.ep_stderr

    def test_bad_cnot_tolerance_is_refused_before_monte_carlo(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Monte-Carlo estimate started")

        monkeypatch.setattr(ent, "entangling_power_mc", refuse)
        monkeypatch.setattr(ent, "local_invariants", refuse)
        with pytest.raises(ValueError, match="CNOT tolerance"):
            ent.classify_gate(CNOT, cnot_tol=math.nan)

    def test_identity_report(self):
        report = ent.classify_gate(np.eye(4), ep_samples=2000, seed=0)
        assert not report.cnot_equivalent
        assert report.ep == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.weyl, (0, 0, 0), atol=1e-9)
