"""Tests of the benchmark itself, at a tiny budget.

Run from the repository root: python3 -m pytest perfbench/test_run.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    w.name: w
    for w in (
        workloads.TrainWorkload("tiny-train", swarm=6, iters=4, bp_epochs=3),
        workloads.BenchWorkload("tiny-bench", functions=("f1", "f5"), dims=(3,), runs=2,
                                algorithms=("gwo", "pso"), agents=5, iters=6),
    )
}


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def run_tiny(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-1]), lines[:-1]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_prints_every_metric_with_its_unit(name, trace, capsys):
    result, text = run_tiny(name, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2) * TINY[name].units
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    printed = {line.split(":")[0] for line in text}
    assert {m["name"] for m in declared} <= printed
    if not trace:
        assert {"test_accuracy", "error_rate"} <= printed


def bump_first_param(path):
    model = json.loads(path.read_text())
    model["params"][0] += 1e-6
    path.write_text(json.dumps(model))


def swap_first_one(path):
    path.write_text(path.read_text().replace("1", "2", 1))


def raise_first_scores(conv):
    # Keeps every series well formed, non-increasing and with its final score.
    for f in conv.iterdir():
        header, first, *rest = f.read_text().splitlines()
        i, score = first.split(",")
        f.write_text("\n".join([header, f"{i},{2 * float(score) + 1!r}", *rest]) + "\n")


@pytest.mark.parametrize("name,victim,corrupt", [
    ("tiny-bench", "table.csv", swap_first_one),
    ("tiny-bench", "convergence", raise_first_scores),
    ("tiny-train", "model.json", bump_first_param),
])
def test_corrupted_output_counts_as_failure(name, victim, corrupt, monkeypatch, capsys):
    real_cli_main = run.cli_main

    def corrupting_cli_main(argv):
        code = real_cli_main(argv)
        if argv[0] != "eval":
            corrupt(Path(argv[argv.index("--out") + 1]) / victim)
        return code

    monkeypatch.setattr(run, "cli_main", corrupting_cli_main)
    result, text = run_tiny(name, 0, capsys)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED:") for line in text)


def test_digest_mismatch_between_runs_counts_as_failure(monkeypatch, capsys):
    real_check = workloads.BenchWorkload.check
    calls = []

    def check_with_drift(self, *args):
        check = real_check(self, *args)
        calls.append(1)
        if len(calls) == 2:
            check.digests["table.csv"] = "0" * 64
        return check

    monkeypatch.setattr(workloads.BenchWorkload, "check", check_with_drift)
    result, text = run_tiny("tiny-bench", 1, capsys)
    assert not result["correct"]
    assert result["failed"] == TINY["tiny-bench"].units


def test_full_length_run_is_checked_at_the_witness_seed(monkeypatch, capsys, tmp_path):
    wl = TINY["tiny-bench"]
    full = dataclasses.replace(wl, name="tiny-bench.full", iters=wl.iters + 1)
    tiny = {wl.name: dataclasses.replace(wl, full=full)}
    wrong = {"tiny-bench.full": {"digests": {"table.csv": "0" * 64, "convergence": "0" * 64}}}
    monkeypatch.setattr(run, "WITNESS", tmp_path / "witness.json")
    run.WITNESS.write_text(json.dumps(wrong))
    code = run.main(["--workload", "tiny-bench", "--seed", str(run.WITNESS_SEED),
                     "--seconds", "0", "--trace", "0"], workloads=tiny)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["attempted"] == 2 * wl.units + full.units
    assert result["failed"] == full.units
    assert any(line.startswith("FAILED: tiny-bench.full:") for line in lines)
