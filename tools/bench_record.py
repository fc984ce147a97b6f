"""Record the benchmark of a holodfs checkout into BENCH_<tag>.json, or compare two records.

    python3 tools/bench_record.py --tag 12
    python3 tools/bench_record.py --tag smoke --seconds 1 --seeds 1 --out /tmp/smoke.json
    python3 tools/bench_record.py --tag tmpfs --stage /dev/shm
    python3 tools/bench_record.py --compare BENCH_baseline.json BENCH_12.json

Recording runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` in the checkout (``--root``, default: this repository) once per
seed of a fixed list, for every workload ``BENCHMARK.json`` declares, and
keeps each run's ``facts`` line and final JSON line.  The record holds the
git commit (and whether tracked files under ``BENCHED_PATHS`` differed from
it), the runs, the per-workload median and quartiles of every end-to-end
metric, and ``failed``/``attempted`` summed over the runs.  With ``--stage
DIR`` the runs happen in a detached checkout of the ``HEAD`` of ``--root``,
made in a fresh directory under ``DIR`` and removed afterwards; the record
names that directory and the type of its filesystem (from ``/proc/mounts``),
because the benchmark writes every output file under its checkout.

Comparing prints, per workload and metric, the ratio of the new median to
the old one with both bases, and flags every metric whose new median is
worse than the old one by more than its ``BENCHMARK.json`` bound (relative
to the old median), and every workload whose share of failed commands rose.
It warns when the two records were staged differently.  The exit code is 1
when anything is flagged, or when a run fails.

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seeds per workload: fixed, so records of two commits run the same inputs.
SEEDS = (21, 22, 23, 24, 25)
# What a bench run executes or reads; a change elsewhere (docs) leaves a record clean.
BENCHED_PATHS = ("src", "bench", "tools", "BENCHMARK.json")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True).stdout.strip()


def dirty(root: Path) -> bool:
    """Whether tracked files that the benchmark runs differ from ``HEAD`` in ``root``."""
    return bool(_git(root, "status", "--porcelain", "--untracked-files=no", "--",
                     *BENCHED_PATHS))


def filesystem(path: Path, mounts: str | None = None) -> str:
    """The type of the filesystem that holds ``path``, from ``mounts`` (default: /proc/mounts)."""
    if mounts is None:
        try:
            mounts = Path("/proc/mounts").read_text()
        except OSError:
            return "unknown"
    depth, kind = -1, "unknown"
    for line in mounts.splitlines():
        _, point, fstype, *_ = line.split()
        point = Path(point.replace("\\040", " "))  # /proc/mounts writes a space as \040
        if (point == path or point in path.parents) and len(point.parts) > depth:
            depth, kind = len(point.parts), fstype
    return kind


@contextlib.contextmanager
def staged(root: Path, directory: Path):
    """A detached worktree of ``HEAD`` of ``root``, in a fresh directory under ``directory``."""
    stage = Path(tempfile.mkdtemp(prefix="holodfs-stage-", dir=directory))
    try:
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", "--quiet",
                        str(stage), "HEAD"], check=True, capture_output=True)
        yield stage
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(stage)],
                       capture_output=True)
        shutil.rmtree(stage, ignore_errors=True)


def staging(record: dict) -> str:
    """How a record was staged, in the words ``compare`` prints."""
    stage = record.get("stage")
    return f"staged on {stage['filesystem']}" if stage else "not staged"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run: its facts, attempted/failed counts and metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    run = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    facts = [line[len("facts "):] for line in lines if line.startswith("facts ")]
    if not lines or not facts or run.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(argv[1:])} exited {run.returncode}:\n"
                           f"{run.stdout}{run.stderr}")
    final = json.loads(lines[-1])
    return {
        "seed": seed,
        "facts": json.loads(facts[0]),
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: entry["value"] for name, entry in final["metrics"].items()},
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: a single value is all three)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def record(root: Path, spec: dict, seeds, seconds: float) -> dict:
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(root, workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in runs[-1]["metrics"].items()),
                file=sys.stderr)
        workloads[workload] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {name: {"unit": units.get(name),
                               **summarize([run["metrics"][name] for run in runs])}
                        for name in runs[0]["metrics"]},
            "runs": runs,
        }
    return {"commit": _git(root, "rev-parse", "HEAD") or None, "dirty": dirty(root),
            "command": spec["command"], "seconds": seconds, "seeds": list(seeds),
            "workloads": workloads}


def compare(old: dict, new: dict, spec: dict) -> list[str]:
    """Print each metric's ratio with its bases; return the flagged lines."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    flagged = []
    print(f"old {old.get('commit')} -> new {new.get('commit')}")
    if staging(old) != staging(new):
        print(f"WARNING: old record {staging(old)}, new record {staging(new)}; "
              "the output files' filesystem is part of every timing")
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in the old record")
            continue
        print(f"{workload}:")
        for name, metric in after["metrics"].items():
            if name not in before["metrics"]:
                continue
            base, value = before["metrics"][name]["median"], metric["median"]
            ratio = value / base if base else float("inf")
            line = (f"  {name}: {base:.6g} -> {value:.6g} {metric['unit'] or ''} "
                    f"(x{ratio:.4f})")
            rule = bounds.get(name)
            if rule is not None:
                higher = rule["better"] == "higher"
                worse = (value < base * (1.0 - rule["bound"]) if higher
                         else value > base * (1.0 + rule["bound"]))
                if worse:
                    line += f"  WORSE than bound {rule['bound']:g}"
                    flagged.append(f"{workload} {name}")
            print(line)
        shares = [side["failed"] / side["attempted"] if side["attempted"] else 1.0
                  for side in (before, after)]
        print(f"  failed: {before['failed']}/{before['attempted']} -> "
              f"{after['failed']}/{after['attempted']}")
        if shares[1] > shares[0]:
            print("  FAILED SHARE ROSE")
            flagged.append(f"{workload} failed")
    return flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--tag", help="record into BENCH_<tag>.json")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to benchmark (default: this repository)")
    parser.add_argument("--stage", type=Path, metavar="DIR",
                        help="benchmark HEAD of --root in a fresh checkout under DIR")
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds per run")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                        help="comma-separated seeds, run for every workload")
    parser.add_argument("--out", type=Path, help="record file (default: BENCH_<tag>.json "
                        "in this repository)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        flagged = compare(old, new, spec)
        print("flagged: " + (", ".join(flagged) if flagged else "nothing"))
        return 1 if flagged else 0

    seeds = [int(seed) for seed in args.seeds.split(",")]
    root = args.root.resolve()
    stager = staged(root, args.stage.resolve()) if args.stage else contextlib.nullcontext(root)
    with stager as where:
        stage = {"path": str(where), "filesystem": filesystem(where)} if args.stage else None
        result = {"tag": args.tag, "stage": stage, **record(where, spec, seeds, args.seconds)}
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    failed = sum(entry["failed"] for entry in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
