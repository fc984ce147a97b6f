"""Structure and precision of the closed-form lambda kernel behind run_sweep.

The kernel applies ``U = I - (1 - A) b b^dag`` per lambda block, which is
exact only when the sector terms have the lambda shape; the first tests pin
that shape for both loops and check that anything else is refused.  The
last ones compare the kernel with a 40-digit matrix exponential of the
whole sector Hamiltonian.
"""

import mpmath
import numpy as np
import pytest

from holodfs import cli, noise, spin_model
from holodfs.holonomy import GateParams2Q, params_for_rotation
from holodfs.spin_model import pauli_on

EPS = float(np.finfo(float).eps)


# Logical rows and excited level of each lambda block, by label.
_BLOCKS = {
    "hadamard": [(("001", "100"), "010")],
    "two_qubit": [(("0101", "0110"), "0011"), (("1001", "1010"), "1100")],
}


def _loop(gate):
    if gate == "two_qubit":
        return GateParams2Q(theta_tilde=0.6)
    return params_for_rotation(*noise.GATE_PRESETS[gate])


def _sector_terms(g):
    sector, logical = g.frames()
    return sector, logical, [spin_model.restrict(t, sector)[0] for t in g.terms()]


@pytest.mark.parametrize("gate", sorted(_BLOCKS))
def test_sector_terms_have_the_lambda_shape_exactly(gate):
    sector, logical, terms = _sector_terms(_loop(gate))
    allowed = set()
    for rows, excited in _BLOCKS[gate]:
        allowed.add((excited, excited))
        for row in rows:
            allowed |= {(row, excited), (excited, row)}
    labels = sector.labels
    for term in terms:
        for a, b in np.argwhere(term != 0):
            assert (labels[a], labels[b]) in allowed
    rows, couplings, detunings = noise._lambda_blocks(terms[0], sector, type(_loop(gate)))
    assert [tuple(logical.labels[r] for r in block) for block in rows] == [
        block for block, _ in _BLOCKS[gate]]
    assert couplings.shape == (3, len(_BLOCKS[gate]), 2)
    assert detunings.shape == (3, len(_BLOCKS[gate]))


def _with_extra_bond(monkeypatch):
    # An XY bond Q1-Q2 couples the logical levels of different blocks.
    build_h2 = spin_model.build_h2
    bond = 0.1 * (pauli_on(4, 0, "x") @ pauli_on(4, 1, "x")
                  + pauli_on(4, 0, "y") @ pauli_on(4, 1, "y")) / 2
    monkeypatch.setattr(spin_model, "build_h2", lambda p: build_h2(p) + bond)


def test_coupling_across_blocks_is_refused(monkeypatch, capsys):
    _with_extra_bond(monkeypatch)
    spec = noise.SweepSpec(gate_target="two_qubit", theta_tilde=0.6, steps_per_axis=3)
    with pytest.raises(ValueError, match=r"not a lambda system: <0101\|H\|1001> is not zero"):
        noise.run_sweep(spec)
    argv = ["sweep", "--gate", "two-qubit", "--theta-tilde", "0.6", "--steps", "3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "holodfs sweep: sector Hamiltonian is not a lambda system" in captured.err
    assert captured.out == ""


def test_energy_of_a_logical_level_is_refused(monkeypatch):
    # A field on Q1 alone detunes the two logical levels from each other.
    build_h1 = spin_model.build_h1
    field = 0.1 * pauli_on(3, 0, "z")
    monkeypatch.setattr(spin_model, "build_h1", lambda p: build_h1(p) + field)
    with pytest.raises(ValueError, match=r"not a lambda system: <001\|H\|001> is not zero"):
        noise.run_sweep(noise.SweepSpec(gate_target="hadamard", steps_per_axis=2))


def test_non_hermitian_term_is_refused(monkeypatch):
    build_h1 = spin_model.build_h1
    skew = np.zeros((8, 8), dtype=complex)
    skew[int("001", 2), int("010", 2)] = 1e-6
    monkeypatch.setattr(spin_model, "build_h1", lambda p: build_h1(p) + skew)
    with pytest.raises(ValueError, match="sector Hamiltonian is not Hermitian"):
        noise.run_sweep(noise.SweepSpec(gate_target="hadamard", steps_per_axis=2))


def test_logical_level_without_excited_partner_is_refused():
    sector, logical, terms = _sector_terms(_loop("hadamard"))
    nonzero = np.any([t != 0 for t in terms], axis=0)
    nonzero[0, 2] = nonzero[2, 0] = False
    with pytest.raises(ValueError, match="logical level 001 couples to no excited level"):
        noise._lambda_split(nonzero, sector, logical)


def test_a_kept_split_still_checks_hermiticity():
    # The skew entry keeps the nonzero pattern of the loop's own terms, which
    # the kept split allows.
    g = _loop("hadamard")
    sector, _, terms = _sector_terms(g)
    noise._lambda_blocks(terms[0], sector, type(g))
    skewed = terms[0].copy()
    skewed[0, 2] += 1e-6
    with pytest.raises(ValueError, match="sector Hamiltonian is not Hermitian"):
        noise._lambda_blocks(skewed, sector, type(g))


def test_vanishing_coupling_leaves_the_logical_block_alone():
    # gamma = 2*pi puts the whole loop into the field term, and the DM
    # strengths omega/ratio underflow to 0 at ratio 1e300: c = 0 there, so
    # the logical block is the identity, which is also the ideal gate.
    spec = noise.SweepSpec(gate_target="custom", theta=1.0, gamma=2 * np.pi, omega=1e-300,
                           ratio_min=1.0, ratio_max=1e300, steps_per_axis=3)
    table = noise.run_sweep(spec)
    assert np.all(np.isfinite(table.fidelity))
    assert table.fidelity[2, 2] == 1.0


def _reference_fidelity(spec, i, j):
    # Average gate fidelity of the sector Hamiltonian at grid point (i, j),
    # from a 40-digit matrix exponential of the double-precision inputs.
    g, ideal = spec.loop
    sector, logical, terms = _sector_terms(g)
    strengths = spec.omega / noise.sweep_axes(spec)
    d1, d2 = (mpmath.mpf(float(x)) for x in (strengths[i], strengths[j]))
    dim = len(sector.labels)
    index = [sector.labels.index(label) for label in logical.labels]
    k = len(index)
    with mpmath.workdps(40):
        h = mpmath.matrix(dim, dim)
        for a in range(dim):
            for b in range(dim):
                e0, e1, e2 = (mpmath.mpc(complex(t[a, b])) for t in terms)
                h[a, b] = e0 + d1 * e1 + d2 * e2
        u = mpmath.expm(-1j * mpmath.mpf(g.tau) * h)
        overlap = sum(mpmath.conj(mpmath.mpc(complex(ideal[a, b]))) * u[index[a], index[b]]
                      for a in range(k) for b in range(k))
        trace = sum(abs(u[index[a], index[b]]) ** 2 for a in range(k) for b in range(k))
        return (abs(overlap) ** 2 + trace) / (k * (k + 1))


def _largest_phase(spec, i, j):
    # max |E| * tau of the sector Hamiltonian at grid point (i, j).
    g, _ = spec.loop
    _, _, (e0, e1, e2) = _sector_terms(g)
    strengths = spec.omega / noise.sweep_axes(spec)
    values = np.linalg.eigvalsh(e0 + strengths[i] * e1 + strengths[j] * e2)
    return float(np.max(np.abs(values))) * g.tau


def _sampled_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.integers(0, spec.steps_per_axis, (count, 2))]


@pytest.mark.parametrize("target", [
    {"gate_target": "hadamard"},
    {"gate_target": "custom", "theta": 1.2, "gamma": 3.0, "m": 2, "log_scale": False},
    {"gate_target": "two_qubit", "theta_tilde": 0.6},
    {"gate_target": "two_qubit", "theta_tilde": 0.3, "m": 3, "log_scale": False},
], ids=["hadamard", "custom2", "two_qubit1", "two_qubit3"])
def test_fidelity_matches_forty_digit_expm(target):
    spec = noise.SweepSpec(ratio_min=0.7, ratio_max=400.0, steps_per_axis=30, **target)
    table = noise.run_sweep(spec)
    for i, j in _sampled_points(spec, 20, seed=5):
        error = mpmath.mpf(float(table.fidelity[i, j])) - _reference_fidelity(spec, i, j)
        assert abs(error) <= 2e-15, (i, j)


@pytest.mark.parametrize("target", [
    {"gate_target": "hadamard"},
    {"gate_target": "two_qubit", "theta_tilde": 0.6},
], ids=["hadamard", "two_qubit"])
@pytest.mark.parametrize("omega", [1e300, 1e-300])
def test_fidelity_at_extreme_scales_matches_forty_digit_expm(target, omega):
    # Couplings near the ends of the float64 range: squaring one would
    # overflow or underflow.  The phase roundoff eps*|E|*tau is ~1e-11 here.
    spec = noise.SweepSpec(ratio_min=1e-5, ratio_max=100.0, steps_per_axis=12,
                           omega=omega, **target)
    table = noise.run_sweep(spec)
    assert np.all(np.isfinite(table.fidelity))
    for i, j in _sampled_points(spec, 8, seed=9) + [(0, 0)]:
        error = mpmath.mpf(float(table.fidelity[i, j])) - _reference_fidelity(spec, i, j)
        assert abs(error) <= 8 * EPS * _largest_phase(spec, i, j), (i, j)
    assert _largest_phase(spec, 0, 0) > 1e5
