"""scripts/bench_record.py's aggregation, on canned run.py output lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _line(correct=True, attempted=4, failed=0, **metrics):
    """run.py's last stdout line, with (value, unit) metrics."""
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {n: {"value": v, "unit": u}
                                   for n, (v, u) in metrics.items()}})


def _stdout(line):
    return "machine.nproc: 2\nworkload: train-hybrid seed=1 runs=3 traced=0\n" + line + "\n"


UNTRACED = [_line(wall_s=(w, "s"), peak_rss_mb=(48.0 + i, "MB"))
            for i, w in enumerate([0.30, 0.10, 0.50, 0.20, 0.40])]
TRACED = _line(**{"mlp.bce_loss.calls": (55, "count"), "trace_overhead_s": (0.02, "s")})


class TestAggregate:
    def test_end_to_end_median_and_quartiles(self):
        runs = [bench_record.parse_run_output(_stdout(line)) for line in UNTRACED]
        summary = bench_record.aggregate(runs, bench_record.parse_run_output(TRACED))
        wall = summary["end_to_end"]["wall_s"]
        assert wall["unit"] == "s"
        assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.2, 0.3, 0.4))
        assert wall["values"] == [0.30, 0.10, 0.50, 0.20, 0.40]
        rss = summary["end_to_end"]["peak_rss_mb"]
        assert (rss["unit"], rss["q1"], rss["median"], rss["q3"]) == ("MB", 49.0, 50.0, 51.0)

    def test_per_layer_from_traced_run(self):
        runs = [json.loads(line) for line in UNTRACED]
        summary = bench_record.aggregate(runs, json.loads(TRACED))
        assert summary["per_layer"] == {
            "mlp.bce_loss.calls": {"unit": "count", "value": 55},
            "trace_overhead_s": {"unit": "s", "value": 0.02},
        }
        assert set(summary["end_to_end"]) == {"wall_s", "peak_rss_mb"}

    def test_counts_and_verdict_cover_every_run(self):
        runs = [json.loads(line) for line in UNTRACED]
        summary = bench_record.aggregate(runs, json.loads(TRACED))
        assert (summary["correct"], summary["attempted"], summary["failed"]) == (True, 24, 0)
        failed = json.loads(_line(correct=False, attempted=4, failed=1, wall_s=(0.3, "s"),
                                  peak_rss_mb=(48.0, "MB")))
        summary = bench_record.aggregate(runs[1:] + [failed], json.loads(TRACED))
        assert (summary["correct"], summary["failed"]) == (False, 1)
        summary = bench_record.aggregate(runs, json.loads(_line(correct=False)))
        assert summary["correct"] is False


# A run.py result file, trimmed to the fields the recorder reads: the first
# wall is the warm-up call.
RESULT = {"machine": {"nproc": 2, "numpy": "2.4.6"},
          "run_walls_s": [0.9, 0.25, 0.5], "calibration_passes_s": [0.125, 0.375]}


class TestRawSpeed:
    def test_reads_run_py_result_file(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(cmd, **kwargs):
            seen.append(cmd)
            path = tmp_path / ".perfbench" / "train-hybrid" / "result-seed3-trace0.json"
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(RESULT))
            return subprocess.CompletedProcess(cmd, 0, stdout=_stdout(UNTRACED[0]))

        monkeypatch.setattr(bench_record, "ROOT", tmp_path)
        monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
        verdict, record = bench_record.run_perfbench("train-hybrid", 3, 30, 0)
        assert seen[0][-6:] == ["--seed", "3", "--seconds", "30", "--trace", "0"]
        assert verdict == json.loads(UNTRACED[0])
        assert bench_record.raw_speed(record) == (0.375, 0.25)

    def test_record_lists_each_untraced_seed(self, tmp_path, monkeypatch):
        walls = iter([[9.0, 1.0, 3.0], [9.0, 2.0], [9.0, 4.0], [9.0, 8.0], [9.0, 5.0],
                      [9.0, 7.0, 7.0]])

        def fake_perfbench(workload, seed, seconds, trace):
            record = dict(RESULT, run_walls_s=next(walls),
                          calibration_passes_s=[0.03125 * seed])
            return json.loads(TRACED if trace else UNTRACED[seed - 1]), record

        (tmp_path / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 30, "workloads": [{"name": "train-hybrid"}]}))
        monkeypatch.setattr(bench_record, "ROOT", tmp_path)
        monkeypatch.setattr(bench_record, "run_perfbench", fake_perfbench)
        assert bench_record.main(["--number", "20"]) == 0
        record = json.loads((tmp_path / "BENCH_20.json").read_text())
        summary = record["workloads"]["train-hybrid"]
        assert summary["raw_wall_s"] == [2.0, 2.0, 4.0, 8.0, 5.0]
        assert summary["calibration_pass_s"] == [0.03125, 0.0625, 0.09375, 0.125, 0.15625]
        assert summary["end_to_end"]["wall_s"]["values"] == [0.30, 0.10, 0.50, 0.20, 0.40]
        assert record["machine"] == RESULT["machine"]
