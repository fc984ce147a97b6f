"""What each per-layer metric should move, and on which workload.

``BENCHMARK.json`` holds the names, units and directions of every metric;
its schema has no room for this mapping, so it lives here and ``run.py``
prints it next to each traced value.  A layer metric is expected not to
change on a workload that bypasses the layer.
"""

MOVES = {
    "trace_overhead_frac": "none: cost of tracing itself, all workloads",
    "unattributed_ms_per_op": "none: benchmark time outside the cli.main span, all workloads",
    "traced_op_ms": "op_p50_ms, all workloads (traced, so slower than untraced)",
    "cli.self_ms": "op_p50_ms on synthesize",
    "noise.self_ms": "work_per_s on sweep",
    "holonomy.self_ms": "work_per_s on sweep, op_p50_ms on synthesize",
    "entanglement.self_ms": "work_per_s on entangle",
    "spin_model.self_ms": "work_per_s on sweep",
    "linalg.self_ms": "work_per_s on sweep",
    "cli.calls": "op_p50_ms on synthesize",
    "noise.calls": "work_per_s on sweep",
    "holonomy.calls": "work_per_s on sweep",
    "entanglement.calls": "work_per_s on entangle",
    "spin_model.calls": "work_per_s on sweep",
    "linalg.calls": "work_per_s on sweep",
    "linalg.eigh.calls": "work_per_s on sweep",
    "linalg.eigh.self_ms": "work_per_s on sweep",
    "linalg.eigh.calls.d3": "work_per_s on sweep (rises as work moves into the sector)",
    "linalg.eigh.calls.d6": "work_per_s on sweep (rises as work moves into the sector)",
    "linalg.eigh.calls.d8": "work_per_s on sweep (falls as work moves into the sector)",
    "linalg.eigh.calls.d16": "work_per_s on sweep (falls as work moves into the sector)",
    "linalg.expm_hermitian.calls": "work_per_s on sweep, op_p50_ms on synthesize",
    "linalg.project_onto.self_ms": "work_per_s on sweep, op_p50_ms on synthesize",
    "linalg.phase_invariant_distance.self_ms": "work_per_s on sweep, op_p50_ms on synthesize",
    "spin_model.build_h.calls": "work_per_s on sweep",
    "spin_model.build_h.self_ms": "work_per_s on sweep",
    "spin_model.restrict.self_ms": "op_p50_ms on synthesize",
    "spin_model.frames.calls": "op_p50_ms on synthesize",
    "spin_model.frames.self_ms": "op_p50_ms on synthesize",
    "holonomy.evolve_and_project.calls": "work_per_s on sweep, op_p50_ms on synthesize",
    "holonomy.evolve_and_project.self_ms": "work_per_s on sweep, op_p50_ms on synthesize",
    "holonomy.time_samples": "op_p50_ms on synthesize, work_per_s on sweep",
    "noise.points": "work_per_s on sweep (fixed by the workload: a normaliser)",
    "noise.perturbed_gate.self_ms": "work_per_s on sweep",
    "noise.sector_leakage.self_ms": "work_per_s on sweep",
    "noise.gate_fidelity.self_ms": "work_per_s on sweep, peak_rss_mb once grids are stacked",
    "entanglement.entangling_power_mc.self_ms": "work_per_s and peak_rss_mb on entangle",
    "entanglement.mc_samples": "work_per_s and peak_rss_mb on entangle",
    "entanglement.weyl_coordinates.self_ms": "work_per_s on entangle",
    "entanglement.local_invariants.calls": "work_per_s on entangle",
    "cli.parse.self_ms": "op_p50_ms on synthesize",
    "cli.emit.self_ms": "op_p50_ms on synthesize",
}
