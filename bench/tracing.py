"""Span tracing of holodfs layers from outside the package.

``Tracer.install`` replaces each traced function at every holodfs module
attribute that binds it (``holodfs.noise.build_h1`` and
``holodfs.cli.build_h1`` are the same function looked up through two
modules), so calls made by holodfs itself are recorded too.  ``uninstall``
puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, command, counter]`` lists; ``counter`` is an
optional ``(metric, amount)`` pair such as the sample count of a call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "noise", "holonomy", "entanglement", "spin_model", "linalg")

# Functions traced per module: every function one module calls in another,
# so that module self times are attributed to the right module, plus the
# private functions a metric needs (the duplicate eigendecomposition in
# noise, JSON/CSV output in cli).  Left out, and so counted in the caller:
# dataclass constructors and methods (microseconds each), and
# ``linalg.kron``, a one-line wrapper called dozens of times per Hamiltonian
# whose time belongs to the Kronecker chains of ``spin_model.build_h``.
TRACED = {
    "linalg": ("eigh", "expm_hermitian", "project_onto", "phase_invariant_distance",
               "unitarity_defect"),
    "spin_model": ("build_h1", "build_h2", "restrict", "dfs3_frame", "dfs6_frame",
                   "logical_frame_1q", "logical_frame_2q"),
    "holonomy": ("params_for_rotation", "analytic_gate_1q", "analytic_gate_2q",
                 "evolve_and_project"),
    "entanglement": ("local_invariants", "weyl_coordinates", "entangling_power_analytic",
                     "entangling_power_mc", "classify_gate"),
    "noise": ("run_sweep", "perturbed_gate_1q", "perturbed_gate_2q", "_sector_leakage",
              "gate_fidelity"),
    "cli": ("main", "build_parser", "_json_text", "_emit"),
}

# Span name -> metric group, where several functions share one metric.
GROUPS = {
    "spin_model.build_h1": "spin_model.build_h",
    "spin_model.build_h2": "spin_model.build_h",
    "spin_model.dfs3_frame": "spin_model.frames",
    "spin_model.dfs6_frame": "spin_model.frames",
    "spin_model.logical_frame_1q": "spin_model.frames",
    "spin_model.logical_frame_2q": "spin_model.frames",
    "noise.perturbed_gate_1q": "noise.perturbed_gate",
    "noise.perturbed_gate_2q": "noise.perturbed_gate",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
    "cli.json_text": "cli.emit",
    "cli.emit": "cli.emit",
}


def _argument(fn, name):
    signature = inspect.signature(fn)

    def get(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _counters(fn, span_name):
    """Per-call counter ``(*args, **kwargs) -> (metric, amount)`` or None."""
    if span_name == "linalg.eigh":
        return lambda h, *a, **k: (f"linalg.eigh.calls.d{len(h)}", 1)
    if span_name == "holonomy.evolve_and_project":
        samples = _argument(fn, "samples")
        return lambda *a, **k: ("holonomy.time_samples", samples(*a, **k))
    if span_name == "entanglement.entangling_power_mc":
        samples = _argument(fn, "samples")
        return lambda *a, **k: ("entanglement.mc_samples", samples(*a, **k))
    if span_name == "noise.run_sweep":
        spec = _argument(fn, "spec")
        return lambda *a, **k: ("noise.points", spec(*a, **k).steps_per_axis ** 2)
    return None


class Tracer:
    """Records nested spans of the traced functions while installed.

    Each top-level span starts a new command, numbered from 0.
    """

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.command += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command,
                      counter(*args, **kwargs) if counter else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _wrap_build_parser(self, fn):
        traced = self.wrap("cli.build_parser", fn)

        @functools.wraps(fn)
        def build_parser(*args, **kwargs):
            parser = traced(*args, **kwargs)
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        return build_parser

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in MODULES}
        wrappers = {}
        for module_name, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[module_name], attr)
                span_name = f"{module_name}.{attr.lstrip('_')}"
                if span_name == "cli.build_parser":
                    wrappers[fn] = self._wrap_build_parser(fn)
                else:
                    wrappers[fn] = self.wrap(span_name, fn, _counters(fn, span_name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(
            (spans[c][1], spans[c][2]) for c in children.get(index, ())
        ):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_totals(spans, scales=None) -> dict[str, float]:
    """Self milliseconds, call counts and counters summed per module and group.

    ``scales[c]``, when given, multiplies the self times of command ``c``.
    """
    totals = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name, counter = span[0], span[5]
        module = name.split(".", 1)[0]
        self_ms = self_s * 1e3 * (scales[span[4]] if scales else 1.0)
        for key in {module, name, GROUPS.get(name, name)}:
            totals[f"{key}.self_ms"] += self_ms
            totals[f"{key}.calls"] += 1
        if counter is not None:
            metric, amount = counter
            totals[metric] += amount
    return dict(totals)


def write_spans(spans, path) -> None:
    """Write spans as CSV: name, start and end in seconds, parent index, command."""
    with open(path, "w") as handle:
        handle.write("name,start_s,end_s,parent,command\n")
        for name, start, end, parent, command, _ in spans:
            handle.write(f"{name},{start:.9f},{end:.9f},{parent},{command}\n")
