"""Nonadiabatic holonomic gates in decoherence-free subspaces of XY chains.

Exact dense simulation of the lambda / double-lambda loop constructions:
gate synthesis, cyclicity and parallel-transport verification, Wilson-line
holonomy extraction, local-invariant / Weyl-chamber classification of the
two-qubit gates, entangling power, and Dzyaloshinskii-Moriya robustness
sweeps.
"""

from .linalg import (
    eigh,
    expm_hermitian,
    phase_invariant_distance,
    project_onto,
)
from .spin_model import (
    CouplingParams1Q,
    CouplingParams2Q,
    SubspaceFrame,
    build_h1,
    build_h2,
    dfs_frame,
    dfs3_frame,
    dfs6_frame,
    logical_frame_1q,
    logical_frame_2q,
    pauli_on,
    restrict,
)
from .holonomy import (
    GateParams1Q,
    GateParams2Q,
    GateReport,
    analytic_gate_1q,
    analytic_gate_2q,
    discretized_holonomy,
    evolve_and_project,
    params_for_rotation,
)
from .entanglement import (
    EntanglementReport,
    classify_gate,
    entangling_power_analytic,
    entangling_power_mc,
    is_cnot_class,
    local_invariants,
    weyl_coordinates,
)
from .noise import (
    SweepSpec,
    SweepTable,
    gate_fidelity,
    perturbed_gate_1q,
    perturbed_gate_2q,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "eigh",
    "expm_hermitian",
    "phase_invariant_distance",
    "project_onto",
    "CouplingParams1Q",
    "CouplingParams2Q",
    "SubspaceFrame",
    "build_h1",
    "build_h2",
    "dfs_frame",
    "dfs3_frame",
    "dfs6_frame",
    "logical_frame_1q",
    "logical_frame_2q",
    "pauli_on",
    "restrict",
    "GateParams1Q",
    "GateParams2Q",
    "GateReport",
    "analytic_gate_1q",
    "analytic_gate_2q",
    "discretized_holonomy",
    "evolve_and_project",
    "params_for_rotation",
    "EntanglementReport",
    "classify_gate",
    "entangling_power_analytic",
    "entangling_power_mc",
    "is_cnot_class",
    "local_invariants",
    "weyl_coordinates",
    "SweepSpec",
    "SweepTable",
    "gate_fidelity",
    "perturbed_gate_1q",
    "perturbed_gate_2q",
    "run_sweep",
]
