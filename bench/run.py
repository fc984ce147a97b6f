"""Benchmark of the holodfs command-line tool, one workload per run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports holodfs from ``src/``.
Commands go through ``holodfs.cli.main(argv)`` in this process: a closed
loop with one client and no extra threads, each output written with
``--out`` into a temporary directory under ``.bench_out/`` and checked by an
oracle from ``oracles.py``.  The seed fixes the inputs; the workload's
command round repeats until ``--seconds`` have passed and the tail
percentile has at least ten samples beyond it.

Timings are reported at a nominal machine speed.  Shared machines drift by
tens of percent over minutes, and the drift hits holodfs and plain numpy
alike, so a fixed numpy reference kernel (``Reference``) is timed between
commands and each command's time is scaled by the reference's nominal time
over its time measured next to the command.  Raw values are printed
alongside and kept in the result file.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
commands untraced and then with every layer traced, and prints the
per-layer metrics.  Every metric is printed by name with its unit; the
last line of stdout is the JSON result.  The exit code is 1 when any check
failed and 2 when holodfs cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUP_CODE = "import holodfs.cli; holodfs.cli.build_parser()"
# One reference slice is a fixed blend of the kinds of work a holodfs command
# does: small complex eigendecompositions, Kronecker and matrix products,
# JSON encoding and decoding, and plain interpreter arithmetic.  It takes
# about REF_NOMINAL_S on an idle 2-core Xeon VM.  The machine's speed moves
# on a scale of 100 ms, so slices are short and frequent (about 5-10% of the
# run).
REF_NOMINAL_S = 0.0025
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.1


class Reference:
    """Reference-kernel slices interleaved with the measured items.

    ``scale(start, seconds)`` is ``REF_NOMINAL_S`` over the mean slice time
    within ``max(seconds / 2, REF_WINDOW_S)`` of the item, always counting the
    nearest slice on each side; multiplying an item's time by it gives the
    time at nominal speed.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._matrix = a + a.conj().T
        self._pauli = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]) + 0j
        self._payload = {"matrix": [[[z.real, z.imag] for z in row] for row in a.tolist()],
                         "values": list(range(50))}
        self.starts, self.times = [], []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(self._matrix)
        for _ in range(3):
            json.loads(json.dumps(self._payload, indent=2, sort_keys=True))
        total = 0
        for i in range(1400):
            total += i * i % 7
        x, z = self._pauli
        for _ in range(20):
            k = np.kron(np.kron(x, z), x)
            k = k @ k + k
        self._last = time.perf_counter()
        self.starts.append(start)
        self.times.append(self._last - start)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        window = max(seconds / 2, REF_WINDOW_S)
        first = bisect_right(self.starts, start)  # first slice after the item
        lo = min(bisect_left(self.starts, start - window), first - 1)
        hi = max(bisect_right(self.starts, start + seconds + window), first + 1)
        times = self.times[max(lo, 0):hi]
        return REF_NOMINAL_S * len(times) / sum(times)


def import_holodfs():
    """Import holodfs from this checkout's ``src/``, or exit with code 2."""
    package = SRC / "holodfs"
    if not (package / "cli.py").is_file():
        print(f"bench: {package} not found; run from a holodfs source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import holodfs
    import holodfs.cli

    if Path(holodfs.__file__).resolve().parent != package.resolve():
        print(f"bench: imported holodfs from {holodfs.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)
    return holodfs


@dataclass
class Result:
    command: object
    path: Path
    start: float
    seconds: float
    code: object
    log: str
    scale: float = 1.0
    problems: list = field(default_factory=list)

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * self.scale


def execute(cli, command, path: Path) -> Result:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main([*command.argv, "--out", str(path)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return Result(command, path, start, elapsed, code, sink.getvalue())


def run_pass(cli, commands, workdir, tag, seconds, min_ops):
    """Repeat the round until ``seconds`` have passed and ``min_ops`` ran."""
    results, reference = [], Reference()
    reference.sample()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < min_ops:
        for command in commands:
            results.append(execute(cli, command, workdir / f"{tag}-{len(results):05d}.out"))
            reference.sample_if_due()
    reference.sample()
    for result in results:
        result.scale = reference.scale(result.start, result.seconds)
    return results


def check(result: Result) -> None:
    if result.code != 0:
        result.problems.append(f"exit code {result.code}: {result.log.strip()[-400:]}")
        return
    try:
        result.problems.extend(result.command.check(result.path.read_text()))
    except Exception as exc:  # a malformed output is a failed check
        result.problems.append(f"output could not be checked: {exc!r}")


def check_rerun(first: Result, rerun: Result) -> None:
    """The first command of the workload, run twice, must write identical bytes."""
    if first.code == 0 and rerun.code == 0 and first.path.read_bytes() != rerun.path.read_bytes():
        rerun.problems.append(f"rerun of {' '.join(first.command.argv)} is not byte-identical")


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median nominal and raw wall time of a fresh interpreter importing the
    CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference, runs = Reference(), []
    for _ in range(repeats):
        for _ in range(3):
            reference.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        runs.append((start, time.perf_counter() - start))
    for _ in range(3):
        reference.sample()
    nominal = [seconds * reference.scale(start, seconds) for start, seconds in runs]
    return statistics.median(nominal), statistics.median(seconds for _, seconds in runs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_facts(holodfs, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "holodfs").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        run = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = run.stdout.strip() or None
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "holodfs_version": holodfs.__version__,
        "holodfs_commit": commit,
        "holodfs_src_sha256": digest.hexdigest(),
    }


def end_to_end(cli, args, commands, workdir, tail_pct, min_ops):
    setup_s, raw_setup_s = measure_setup(SETUP_REPEATS)
    warmup = execute(cli, commands[0], workdir / "warmup.out")
    results = run_pass(cli, commands, workdir, "run", args.seconds, min_ops)
    rss = peak_rss_mb()
    for result in [warmup, *results]:
        check(result)
    check_rerun(warmup, results[0])
    work = sum(r.command.work for r in results if not r.problems)
    metrics, raw = {}, {}
    for values, key in ((metrics, "nominal_seconds"), (raw, "seconds")):
        latencies = [getattr(r, key) for r in results]
        values["work_per_s"] = work / sum(latencies)
        values["op_p50_ms"] = statistics.median(latencies) * 1e3
        values["op_tail_ms"] = percentile(latencies, tail_pct) * 1e3
    metrics.update(setup_s=setup_s, peak_rss_mb=rss)
    raw["setup_s"] = raw_setup_s
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    notes["op_tail_ms"] += f", p{tail_pct}, n={len(results)}"
    notes["work_per_s"] += f", {work} work units"
    notes["speed"] = f"median scale {statistics.median(r.scale for r in results):.4f}"
    return [warmup, *results], metrics, notes, []


def per_layer(cli, holodfs, args, commands, workdir, wanted, spans_path):
    import layers
    import tracing

    warmup = execute(cli, commands[0], workdir / "warmup.out")
    # Untraced and traced rounds alternate, so drift of the machine's speed
    # falls on both alike.
    plain, traced, tracer = [], [], tracing.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced:
        plain += run_pass(cli, commands, workdir, f"plain{len(plain)}", 0.0, 1)
        tracer.install(holodfs)
        try:
            traced += run_pass(cli, commands, workdir, f"traced{len(traced)}", 0.0, 1)
        finally:
            tracer.uninstall()
    for result in [warmup, *plain, *traced]:
        check(result)
    check_rerun(warmup, plain[0])
    tracing.write_spans(tracer.spans, spans_path)

    n = len(traced)
    scales = [r.scale for r in traced]
    traced_s = sum(r.nominal_seconds for r in traced)
    root_s = sum((s[2] - s[1]) * scales[s[4]] for s in tracer.spans if s[3] < 0)
    totals = tracing.layer_totals(tracer.spans, scales)
    values = {
        "trace_overhead_frac": traced_s / sum(r.nominal_seconds for r in plain) - 1.0,
        "unattributed_ms_per_op": (traced_s - root_s) / n * 1e3,
        "traced_op_ms": traced_s / n * 1e3,
    }
    errors = []
    attributed = sum(totals.get(f"{m}.self_ms", 0.0) for m in tracing.MODULES) / n
    if not math.isclose(attributed + values["unattributed_ms_per_op"], values["traced_op_ms"],
                        rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"module self times {attributed} + unattributed "
                      f"{values['unattributed_ms_per_op']} != traced {values['traced_op_ms']} ms/op")
    for name in wanted:
        values.setdefault(name, totals.get(name, 0.0) / n)
    notes = {name: f"moves {moves}" for name, moves in layers.MOVES.items()}
    notes["traced_op_ms"] += f"; n={n} commands, {len(tracer.spans)} spans"
    return [warmup, *plain, *traced], values, notes, errors


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    holodfs = import_holodfs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    facts = machine_facts(holodfs, args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        commands = workloads.make_round(args.workload, args.seed, workdir)
        tail_pct, min_ops = workloads.TAIL[args.workload]
        if args.trace:
            results, values, notes, errors = per_layer(
                holodfs.cli, holodfs, args, commands, workdir,
                [m["name"] for m in wanted], f"{stem}-spans.csv")
        else:
            results, values, notes, errors = end_to_end(
                holodfs.cli, args, commands, workdir, tail_pct, min_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.problems]
    slot = {id(command): index for index, command in enumerate(commands)}
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}: round of {len(commands)} commands, "
          f"{len(results)} run, {len(failed)} failed, failed_frac "
          f"{len(failed) / len(results):.6g}")
    for result in failed[:20]:
        print(f"FAILED {' '.join(result.command.argv)}: {'; '.join(result.problems)}")
    for message in errors:
        print(f"ERROR {message}")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = notes.get(name, "")
        print(f"metric {name} = {values[name]:.6g} {unit} ({metric['better']} is better)"
              + (f"  [{note}]" if note else ""))
    correct = not failed and not errors
    line = {"correct": correct, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        {**line, "facts": facts, "notes": notes,
         "failures": [{"argv": r.command.argv, "problems": r.problems} for r in failed],
         "timings": {"columns": ["command", "seconds", "scale"],
                     "rows": [[slot[id(r.command)], r.seconds, r.scale] for r in results]}},
        indent=2, sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
