"""scripts/bench_pair.py on canned run.py output, with git and run.py faked."""

import json
import os
import subprocess
from pathlib import Path

import pytest

from conftest import load_script

bench_pair = load_script("bench_pair")

BENCHMARK = {
    "run_seconds": 30,
    "workloads": [{"name": "bench-sweep"}, {"name": "train-hybrid"}],
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                   {"name": "evals_per_s", "better": "higher", "bound": 0.25},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}],
}


def _values(side, seed):
    """Canned metrics: the change is faster except at seed 3; setup_s spreads
    widely on the base side. Only the change's outputs at seed 3 differ."""
    wall = 1.0 + seed / 100 if side == "base" else 0.9 + (0.5 if seed == 3 else 0.0)
    setup = seed / 8 if side == "base" else 0.25
    digest = "b" if (side, seed) == ("change", 3) else "a"
    return wall, setup, {"table.csv": digest}


class FakeProcesses:
    """Stands in for subprocess.run: git worktree commands and run.py calls."""

    def __init__(self, root, fail_at=None):
        self.root, self.fail_at = root, fail_at
        self.git, self.runs, self.prefixes = [], [], {}

    def __call__(self, cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            self.git.append(cmd[1:])
            if cmd[1:3] == ["worktree", "add"]:
                Path(cmd[4]).mkdir(parents=True)
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")
        workload, seed = cmd[cmd.index("--workload") + 1], int(cmd[cmd.index("--seed") + 1])
        side = "change" if Path(cwd) == self.root else "base"
        self.runs.append((workload, seed, side))
        env = kwargs["env"]
        assert env["PATH"] == os.environ["PATH"] and "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PYTHONPYCACHEPREFIX"] == str(Path(cwd) / ".perfbench" / "pycache")
        self.prefixes.setdefault(side, set()).add(env["PYTHONPYCACHEPREFIX"])
        if (workload, seed, side) == self.fail_at:
            raise subprocess.CalledProcessError(1, cmd)
        assert cmd[1] == str(Path(cwd) / "perfbench" / "run.py")
        assert cmd[-2:] == ["--trace", "0"]
        wall, setup, digests = _values(side, seed)
        verdict = {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"wall_s": {"value": wall, "unit": "s"},
                               "evals_per_s": {"value": 100.0 / wall, "unit": "1/s"},
                               "setup_s": {"value": setup, "unit": "s"}}}
        record = {"run_walls_s": [9.0, 2 * wall],
                  "calibration_passes_s": [0.25 if side == "base" else 0.5],
                  "digests": digests}
        path = Path(cwd) / ".perfbench" / workload / f"result-seed{seed}-trace0.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 0, stdout="workload: x\n" + json.dumps(verdict))


@pytest.fixture()
def fake(tmp_path, monkeypatch):
    root = tmp_path / "checkout"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(bench_pair.bench_record, "ROOT", root)
    monkeypatch.setattr(bench_pair.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(bench_pair, "PAIRS", 4)
    monkeypatch.setattr(bench_pair, "FIRST_SEED", 1)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    processes = FakeProcesses(root)
    monkeypatch.setattr(subprocess, "run", processes)
    return processes


def test_pairs_alternate_which_side_runs_first(fake, capsys):
    assert bench_pair.main(["--base", "HEAD~1"]) == 0
    expected = []
    for workload in ("bench-sweep", "train-hybrid"):
        for seed, first in zip(range(1, 5), ("base", "change") * 2):
            second = "change" if first == "base" else "base"
            expected += [(workload, seed, first), (workload, seed, second)]
    assert fake.runs == expected
    # Each side keeps its bytecode in its own checkout, never in the other's.
    (base,), (change,) = fake.prefixes["base"], fake.prefixes["change"]
    assert change == str(fake.root / ".perfbench" / "pycache") and base != change
    out = capsys.readouterr().out
    assert "bench-sweep seed 2 (change first): wall_s 1.02 -> 0.9," in out
    assert "raw_wall_s 2.04 -> 1.8; outputs identical\n" in out
    assert "raw_wall_s 2.06 -> 2.8; outputs DIFFER\n" in out


def test_summary_medians_quartiles_and_wins(fake, capsys):
    bench_pair.main(["--base", "abc123"])
    lines = capsys.readouterr().out.splitlines()
    summary = lines[lines.index("train-hybrid: 4 pairs, base median [q1-q3] -> change median"):]
    # Base walls 1.01..1.04; change 0.9 but 1.4 at seed 3.
    assert summary[1] == "  wall_s: 1.025 [1.0175-1.0325] -> 0.9 (-12.2%), change better in 3/4"
    assert summary[2].startswith("  evals_per_s: 97.5") and summary[2].endswith(" 3/4")
    assert summary[3] == ("  setup_s: 0.3125 [0.21875-0.40625] -> 0.25 (-20.0%), "
                          "change better in 2/4; base spread wider than its bound: unresolved")
    assert summary[4] == "  raw_wall_s: 2.05 [2.035-2.065] -> 1.8 (-12.2%), change better in 3/4"
    assert summary[5] == "  calibration_pass_s mean: base 0.25, change 0.5"
    assert summary[6] == "  outputs identical in 3/4 pairs"


def test_worktree_added_and_removed_even_when_a_run_fails(fake, tmp_path):
    fake.fail_at = ("bench-sweep", 2, "change")
    with pytest.raises(subprocess.CalledProcessError):
        bench_pair.main(["--base", "HEAD~1"])
    (add,), (remove,) = ([c for c in fake.git if c[1] == verb] for verb in ("add", "remove"))
    assert add[-1] == "HEAD~1" and add[2] == "--detach"
    assert remove == ["worktree", "remove", "--force", add[3]]
    assert Path(add[3]).parent.parent == tmp_path
    assert not Path(add[3]).parent.exists()


def test_a_run_that_is_not_correct_exits_one(fake, monkeypatch, capsys):
    run_perfbench = bench_pair.bench_record.run_perfbench

    def incorrect(*args):
        verdict, record = run_perfbench(*args)
        return dict(verdict, correct=False), record

    monkeypatch.setattr(bench_pair.bench_record, "run_perfbench", incorrect)
    assert bench_pair.main(["--base", "HEAD"]) == 1
    assert "(base first) NOT CORRECT:" in capsys.readouterr().out

