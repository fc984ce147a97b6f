"""The benchmark recorder's summary, comparison, ``dirty`` check and staging.

None of the tests runs a bench.
"""

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


def _repository(path):
    """A git repository at ``path`` with ``src/m.py`` and ``README.md`` committed."""
    def git(*args):
        subprocess.run(["git", "-C", str(path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True, capture_output=True)

    (path / "src").mkdir(parents=True)
    (path / "src" / "m.py").write_text("x = 1\n")
    (path / "README.md").write_text("readme\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "c")


def test_dirty_reads_only_what_the_benchmark_runs(tmp_path):
    _repository(tmp_path)
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "README.md").write_text("changed\n")
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert bench_record.dirty(tmp_path)


def test_stage_is_a_fresh_checkout_of_head_removed_afterwards(tmp_path):
    root, stages = tmp_path / "repo", tmp_path / "stages"
    _repository(root)
    stages.mkdir()
    (root / "src" / "m.py").write_text("x = 2\n")  # uncommitted: not staged
    with bench_record.staged(root, stages) as stage:
        assert stage.parent == stages and stage.name.startswith("holodfs-stage-")
        assert (stage / "src" / "m.py").read_text() == "x = 1\n"
        assert not bench_record.dirty(stage)
        assert bench_record._git(stage, "rev-parse", "HEAD") == bench_record._git(
            root, "rev-parse", "HEAD")
        (stage / ".bench_out").mkdir()  # what a bench run leaves behind
        (stage / ".bench_out" / "out.json").write_text("{}\n")
    assert list(stages.iterdir()) == []
    assert len(bench_record._git(root, "worktree", "list").splitlines()) == 1


def test_main_records_in_the_stage_and_names_it(tmp_path, monkeypatch):
    root, stages, out = tmp_path / "repo", tmp_path / "stages", tmp_path / "BENCH_t.json"
    _repository(root)
    stages.mkdir()
    seen = []

    def fake_record(where, spec, seeds, seconds):
        seen.append(where)
        assert (where / "src" / "m.py").read_text() == "x = 1\n"
        return {"commit": bench_record._git(where, "rev-parse", "HEAD"), "dirty": False,
                "workloads": {}}

    monkeypatch.setattr(bench_record, "record", fake_record)
    monkeypatch.setattr(bench_record, "filesystem", lambda path: f"fs of {path.name}")
    assert bench_record.main(["--tag", "t", "--root", str(root), "--stage", str(stages),
                              "--seeds", "1", "--out", str(out)]) == 0
    (stage,) = seen
    assert stage.parent == stages.resolve() and list(stages.iterdir()) == []
    written = json.loads(out.read_text())
    assert written["stage"] == {"path": str(stage), "filesystem": f"fs of {stage.name}"}
    assert written["commit"] == bench_record._git(root, "rev-parse", "HEAD")
    assert bench_record.main(["--tag", "t", "--root", str(root), "--seeds", "1",
                              "--out", str(out)]) == 0
    assert seen[1] == root.resolve() and json.loads(out.read_text())["stage"] is None


def test_filesystem_is_the_one_of_the_longest_mount_point():
    mounts = ("/dev/vda / ext4 rw 0 0\n"
              "tmpfs /dev/shm tmpfs rw 0 0\n"
              "tmpfs /dev/shm\\040x tmpfs rw 0 0\n"
              "proc /proc proc rw 0 0\n")
    assert bench_record.filesystem(Path("/dev/shm/holodfs-stage-1"), mounts) == "tmpfs"
    assert bench_record.filesystem(Path("/dev/shm x/a"), mounts) == "tmpfs"
    assert bench_record.filesystem(Path("/dev/shmem"), mounts) == "ext4"
    assert bench_record.filesystem(Path("/home/user/holodfs"), mounts) == "ext4"
    assert bench_record.filesystem(Path("/home"), "") == "unknown"


def test_compare_warns_when_records_were_staged_differently(capsys):
    disk, tmpfs = record(700.0), record(700.0)
    tmpfs["stage"] = {"path": "/dev/shm/holodfs-stage-1", "filesystem": "tmpfs"}
    other = dict(tmpfs, stage={"path": "/dev/shm/holodfs-stage-2", "filesystem": "tmpfs"})
    assert bench_record.compare(tmpfs, other, SPEC) == []
    assert "WARNING" not in capsys.readouterr().out
    assert bench_record.compare(disk, tmpfs, SPEC) == []  # a warning, not a flag
    assert ("WARNING: old record not staged, new record staged on tmpfs"
            in capsys.readouterr().out)
