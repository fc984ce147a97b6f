"""Output checks that do not depend on the code they check.

Every quantity here is rebuilt from the physics as the README states it
(closed-form rotations, the XY + DM chain Hamiltonians, Makhlin's G1 in the
README's magic basis), using only numpy and, for the sweep spot checks,
``scipy.linalg.expm``.  Nothing is imported from holodfs.  Each check takes
the text a command wrote and returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

GATE_TOL = 1e-9
WEYL_TOL = 1e-6
LEAKAGE_TOL = 1e-10
FIDELITY_TOL = 1e-9
EP_SIGMAS = 4.0
EP_MAX = 2.0 / 9.0
CNOT_POINT = (math.pi / 2, 0.0, 0.0)

# Preset targets as (theta, gamma) in the README's axis convention and as
# the literal gates they name, up to a global phase: the Hadamard gate, and
# the pi/8 gate about -z.
PRESET_ANGLES = {"hadamard": (3 * math.pi / 4, math.pi), "pi8": (0.0, math.pi / 4)}
PRESET_GATES = {
    "hadamard": (X + Z) / math.sqrt(2),
    "pi8": np.diag([1.0, np.exp(-1j * math.pi / 4)]),
}

# Magic basis columns (|00>+|11>, -i|00>+i|11>, |01>-|10>, -i|01>-i|10>)/sqrt(2).
_MAGIC = np.array(
    [[1, -1j, 0, 0], [0, 0, 1, -1j], [0, 0, -1, -1j], [1, 1j, 0, 0]], dtype=complex
) / math.sqrt(2)


def rotation(theta: float, gamma: float) -> np.ndarray:
    """Rotation by ``gamma`` about the xz-plane axis (sin theta, 0, -cos theta)."""
    axis = math.sin(theta) * X - math.cos(theta) * Z
    return math.cos(gamma / 2) * I2 - 1j * math.sin(gamma / 2) * axis


def two_qubit_gate(theta_tilde: float) -> np.ndarray:
    """Conditional pi rotations of logical qubit 2 about (sin, 0, -+cos) of theta_tilde."""
    s, c = math.sin(theta_tilde), math.cos(theta_tilde)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return -(np.kron(p0, s * X - c * Z) + np.kron(p1, s * X + c * Z))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between ``u`` and ``v`` minimised over a global phase."""
    overlap = np.trace(v.conj().T @ u)
    phase = np.conj(overlap) / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(phase * u - v))


def makhlin_g1(u: np.ndarray) -> complex:
    """Makhlin's G1 = tr(m)^2 / (16 det u) with m = u_B^T u_B in the magic basis."""
    ub = _MAGIC.conj().T @ u @ _MAGIC
    return complex(np.trace(ub.T @ ub) ** 2 / (16.0 * np.linalg.det(u)))


def exact_entangling_power(u: np.ndarray) -> float:
    """e_p = (2/9)(1 - |G1|) (Balakrishnan & Sankaranarayanan 2010)."""
    return EP_MAX * (1.0 - abs(makhlin_g1(u)))


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def canonical_gate(c1: float, c2: float, c3: float) -> np.ndarray:
    """exp(i (c1 XX + c2 YY + c3 ZZ) / 2); the three terms commute."""
    u = np.eye(4, dtype=complex)
    for c, p in ((c1, X), (c2, Y), (c3, Z)):
        u = u @ (math.cos(c / 2) * np.eye(4) + 1j * math.sin(c / 2) * np.kron(p, p))
    return u


def dressed_canonical(rng, weyl) -> np.ndarray:
    """k1 . canonical(weyl) . k2 with Haar-random local unitaries k1, k2."""
    k1 = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    k2 = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return k1 @ canonical_gate(*weyl) @ k2


# --- chain Hamiltonians for the sweep spot checks --------------------------

def _site_op(n: int, ops: dict) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for site in range(n):
        out = np.kron(out, ops.get(site, I2))
    return out


def _xy(n, i, j, strength):
    return strength / 2 * (_site_op(n, {i: X, j: X}) + _site_op(n, {i: Y, j: Y}))


def _dm(n, i, j, strength):
    return strength / 2 * (_site_op(n, {i: X, j: Y}) - _site_op(n, {i: Y, j: X}))


@dataclass(frozen=True)
class GateSpec:
    """A sweep's target gate: what ``sweep`` perturbs and compares against."""

    qubits: int
    angles: tuple  # (theta, gamma) for one logical qubit, (theta_tilde,) for two
    m: int
    omega: float

    def fidelity(self, ratio1: float, ratio2: float) -> float:
        """Average gate fidelity of the DM-perturbed loop via scipy's expm."""
        from scipy.linalg import expm

        w = self.omega
        tau = self.m * math.pi / w
        d1, d2 = w / ratio1, w / ratio2
        if self.qubits == 2:
            (theta_tilde,) = self.angles
            h = (_xy(4, 2, 1, w * math.sin(theta_tilde / 2))
                 + _xy(4, 3, 1, w * math.cos(theta_tilde / 2))
                 + _dm(4, 2, 1, d1) + _dm(4, 1, 3, d2))
            logical, ideal = [0b0101, 0b0110, 0b1001, 0b1010], two_qubit_gate(theta_tilde)
        else:
            theta, gamma = self.angles
            phi = math.acos(gamma / (self.m * math.pi) - 1.0)
            j1 = w * math.sin(phi) * math.cos(theta / 2)
            j2 = w * math.sin(phi) * math.sin(theta / 2)
            b = w * math.cos(phi)
            h = (_xy(3, 0, 1, j1) + _xy(3, 1, 2, j2)
                 + b * (_site_op(3, {0: Z}) + _site_op(3, {2: Z}))
                 + _dm(3, 0, 1, d1) + _dm(3, 1, 2, d2))
            logical, ideal = [0b001, 0b100], rotation(theta, gamma)
        u = expm(-1j * tau * h)[np.ix_(logical, logical)]
        k = len(logical)
        overlap = abs(np.trace(ideal.conj().T @ u)) ** 2
        return float((overlap + np.trace(u.conj().T @ u).real) / (k * (k + 1)))


# --- checks -----------------------------------------------------------------

def _matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _load(text: str, command: str) -> dict:
    payload = json.loads(text)
    if payload.get("command") != command:
        raise ValueError(f"expected command {command!r}, got {payload.get('command')!r}")
    return payload


def _gate_problems(payload: dict, target: np.ndarray) -> list[str]:
    problems = []
    for block in ("effective", "full"):
        distance = phase_distance(_matrix(payload[block]["holonomy"]), target)
        if not distance <= GATE_TOL:
            problems.append(f"{block} holonomy is {distance:.3e} from the closed form")
    return problems


def _ep_problems(ep: float, stderr: float, u: np.ndarray) -> list[str]:
    exact = exact_entangling_power(u)
    if not abs(ep - exact) <= EP_SIGMAS * stderr:
        return [f"Monte-Carlo entangling power {ep:.6f} +- {stderr:.2e} is more than "
                f"{EP_SIGMAS:g} sigma from the exact {exact:.6f}"]
    return []


def _weyl_problems(reported, expected) -> list[str]:
    reported = tuple(float(c) for c in reported)
    candidates = [tuple(expected)]
    if expected[2] == 0.0:
        # The base plane is not folded: (c1, c2, 0) and (pi - c1, c2, 0) are
        # the same class.
        candidates.append((math.pi - expected[0], expected[1], 0.0))
    error = min(max(abs(a - b) for a, b in zip(reported, c)) for c in candidates)
    if not error <= WEYL_TOL:
        return [f"Weyl point {reported} is {error:.3e} from {tuple(expected)}"]
    return []


def _g1_problems(reported, u: np.ndarray) -> list[str]:
    g1 = complex(*reported)
    expected = makhlin_g1(u)
    if not abs(g1 - expected) <= GATE_TOL:
        return [f"G1 {g1} differs from {expected} by {abs(g1 - expected):.3e}"]
    return []


def check_synth_1q(text: str, target: np.ndarray) -> list[str]:
    return _gate_problems(_load(text, "synth-1q"), target)


def check_verify(text: str, mode: str) -> list[str]:
    payload = _load(text, "verify")
    problems = []
    if payload.get("mode") != mode:
        problems.append(f"verify ran in mode {payload.get('mode')!r}, expected {mode!r}")
    if payload.get("pass") is not True:
        problems.append("verify did not report pass")
    return problems


def check_synth_2q(text: str, theta_tilde: float) -> list[str]:
    payload = _load(text, "synth-2q")
    problems = _gate_problems(payload, two_qubit_gate(theta_tilde))
    u = _matrix(payload["full"]["holonomy"])
    ent = payload["entanglement"]
    problems += _weyl_problems(ent["weyl"], (2 * theta_tilde, 0.0, 0.0))
    problems += _g1_problems(ent["g1"], u)
    problems += _ep_problems(ent["ep_mc"], ent["ep_mc_stderr"], u)
    exact = exact_entangling_power(u)
    if not abs(ent["ep"] - exact) <= GATE_TOL:
        problems.append(f"closed-form entangling power {ent['ep']} differs from {exact}")
    return problems


def check_classify(text: str, matrix: np.ndarray, weyl) -> list[str]:
    payload = _load(text, "classify")
    problems = _g1_problems(payload["g1"], matrix)
    if weyl is not None:
        problems += _weyl_problems(payload["weyl"], weyl)
    problems += _ep_problems(payload["ep"], payload["ep_stderr"], matrix)
    return problems


def check_sweep(text: str, target: GateSpec, ratio_min: float, ratio_max: float,
                steps: int, log: bool, spot) -> list[str]:
    lines = text.splitlines()
    if lines[:1] != ["ratio1,ratio2,fidelity,leakage"]:
        return [f"unexpected header {lines[:1]}"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape != (steps * steps, 4):
        return [f"expected {steps * steps} rows of 4 columns, got {rows.shape}"]
    problems = []
    if log:
        axis = np.logspace(math.log10(ratio_min), math.log10(ratio_max), steps)
    else:
        axis = np.linspace(ratio_min, ratio_max, steps)
    grid = np.stack([np.repeat(axis, steps), np.tile(axis, steps)], axis=1)
    axis_error = np.max(np.abs(rows[:, :2] - grid) / grid)
    if not axis_error <= 1e-11:
        problems.append(f"ratio columns differ from the requested grid by {axis_error:.3e}")
    fidelity, leakage = rows[:, 2], rows[:, 3]
    if not (np.all(fidelity >= 0.0) and np.all(fidelity <= 1.0)):
        problems.append(f"fidelity outside [0, 1]: range [{fidelity.min()}, {fidelity.max()}]")
    if not np.all(np.abs(leakage) <= LEAKAGE_TOL):
        problems.append(f"leakage {np.abs(leakage).max():.3e} exceeds {LEAKAGE_TOL:.0e}")
    for i, j in spot:
        expected = target.fidelity(axis[i], axis[j])
        got = float(fidelity[i * steps + j])
        if not abs(got - expected) <= FIDELITY_TOL:
            problems.append(f"fidelity at ({i}, {j}) is {got!r}, scipy route gives {expected!r}")
    return problems
