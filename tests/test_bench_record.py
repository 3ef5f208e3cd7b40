"""scripts/bench_record.py's aggregation, on canned run.py output lines."""

import importlib.util
import json
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
