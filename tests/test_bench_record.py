"""The benchmark recorder's summary, comparison and ``dirty`` check, without running a bench."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}


def record(work_per_s, op_p50_ms=1.0, failed=0, attempted=100):
    metrics = {"work_per_s": work_per_s, "op_p50_ms": op_p50_ms}
    return {"commit": "c", "workloads": {"synthesize": {
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"unit": UNITS[name], **bench_record.summarize([value])}
                    for name, value in metrics.items()},
    }}}


def test_summarize_takes_inclusive_quartiles():
    assert bench_record.summarize([3.0, 1.0, 2.0, 5.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_record.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_a_record_compared_with_itself_flags_nothing(capsys):
    same = record(700.0)
    assert bench_record.compare(same, same, SPEC) == []
    assert "work_per_s: 700 -> 700 1/s (x1.0000)" in capsys.readouterr().out


@pytest.mark.parametrize("work, p50, flagged", [
    (700.0 * 0.75, 1.0, ["synthesize work_per_s"]),   # below the 0.24 bound
    (700.0 * 0.75, 1.25, ["synthesize work_per_s", "synthesize op_p50_ms"]),
    (700.0 * 0.80, 1.2, []),                          # inside both bounds
    (900.0, 0.5, []),                                 # better
])
def test_flags_only_what_is_worse_than_its_bound(work, p50, flagged):
    assert bench_record.compare(record(700.0), record(work, p50), SPEC) == flagged


def test_flags_a_rising_failed_share():
    assert bench_record.compare(record(700.0, failed=1, attempted=100),
                                record(700.0, failed=1, attempted=150), SPEC) == []
    assert bench_record.compare(record(700.0), record(700.0, failed=1),
                                SPEC) == ["synthesize failed"]


def test_dirty_reads_only_what_the_benchmark_runs(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "c")
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "README.md").write_text("changed\n")
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert bench_record.dirty(tmp_path)
