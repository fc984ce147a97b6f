# Classifying two-qubit gates up to local operations
# ===================================================
#
# Two-qubit gates that differ only by single-qubit rotations are equivalent
# for entanglement purposes.  The Makhlin invariants (G1, G2) and the Weyl
# chamber coordinates (c1, c2, c3) label the equivalence classes; the
# entangling power measures how much entanglement a gate creates on average
# over random product inputs.

import numpy as np

from holodfs import (
    analytic_gate_2q,
    entangling_power_analytic,
    entangling_power_mc,
    is_cnot_class,
    local_invariants,
    weyl_coordinates,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)

# --- reference points in the Weyl chamber ------------------------------------
print("gate        G1            G2      (c1, c2, c3)/pi")
for name, u in (("identity", np.eye(4, dtype=complex)), ("CNOT", CNOT),
                ("SWAP", SWAP)):
    g1, g2 = local_invariants(u)
    c = np.array(weyl_coordinates(u)) / np.pi
    print(f"{name:9s} {g1.real:+.3f}{g1.imag:+.3f}i  {g2:+.3f}   "
          f"({c[0]:.3f}, {c[1]:.3f}, {c[2]:.3f})")

# --- the holonomic family traces the base edge of the chamber -----------------
print("\ntheta_tilde   G1       G2      c1/pi    entangling power")
for tt in np.linspace(0.1, np.pi / 2 - 0.1, 8):
    g1, g2 = local_invariants(analytic_gate_2q(tt))
    c1 = weyl_coordinates(analytic_gate_2q(tt))[0] / np.pi
    ep = entangling_power_analytic(tt)
    print(f"  {tt:8.4f}  {g1.real:+.4f}  {g2:+.4f}   {c1:.4f}      {ep:.4f}")
print("\nG1 = cos^2(2 theta_tilde), G2 = cos(4 theta_tilde) + 2, the Weyl")
print("point is (2 theta_tilde, 0, 0): the whole edge from the identity")
print("corner to the far vertex, through the CNOT point at pi/4")

# --- the CNOT point -----------------------------------------------------------
u = analytic_gate_2q(np.pi / 4)
print(f"\nis the pi/4 gate in the CNOT class?  {is_cnot_class(u)}")
print(f"is CNOT itself?                      {is_cnot_class(CNOT)}")
print(f"is SWAP?                             {is_cnot_class(SWAP)}")

# --- Monte-Carlo calibration of the entangling power ---------------------------
# Random |a1|^2 of the first input, the rest of the product input averaged
# in closed form; the mean linear entropy of the output estimates the
# entangling power with a 1/sqrt(N) standard error.
print("\ntheta_tilde   closed form   Monte Carlo (1e5 samples)")
for i, tt in enumerate((np.pi / 8, np.pi / 4, 1.2)):
    exact = entangling_power_analytic(tt)
    estimate, stderr = entangling_power_mc(analytic_gate_2q(tt), 100_000, seed=i)
    print(f"  {tt:8.4f}    {exact:.5f}      {estimate:.5f} +- {stderr:.5f}")
print("\nthe maximum 2/9 is reached exactly at theta_tilde = pi/4, the same")
print("value CNOT attains: one loop of the bridge couplings buys a full")
print("entangler")
