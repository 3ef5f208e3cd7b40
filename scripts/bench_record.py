"""Write the benchmark record BENCH_<n>.json for the checked-out source.

For every workload in BENCHMARK.json this runs perfbench/run.py untraced at
seeds 1-5, then once traced at seed 1, for BENCHMARK.json's run_seconds, one
process at a time, and records:

- run.py's machine record (cores, CPU, Python, numpy, BLAS, thread
  variables, git commit, source digest);
- each end-to-end metric's median and quartiles over the untraced seeds,
  with the per-seed values;
- each untraced seed's raw mean wall time of the timed workload calls (the
  warm-up call left out) and its mean calibration pass, unscaled, so a drift
  of the calibration can be told apart from a change of the code;
- the per-layer metrics of the traced run;
- whether every run's outputs were correct, and how many units failed.

Records are numbered by the change that adds them, so BENCH_<n>.json sits
next to the code it measured. Run from the repository root, on a quiet
machine:

    python3 scripts/bench_record.py --number 7
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
SEEDS = (1, 2, 3, 4, 5)
TRACE_SEED = 1


def parse_run_output(stdout):
    """run.py's verdict: the JSON object on the last line of its stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_perfbench(workload, seed, seconds, trace):
    """One run.py process; returns its verdict and the result file it wrote."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    record = ROOT / ".perfbench" / workload / f"result-seed{seed}-trace{trace}.json"
    return parse_run_output(proc.stdout), json.loads(record.read_text())


def raw_speed(record):
    """From a run.py result file: the raw mean wall time of the timed calls
    (its first wall is the warm-up call) and the mean calibration pass."""
    return (statistics.fmean(record["run_walls_s"][1:]),
            statistics.fmean(record["calibration_passes_s"]))


def spread(values):
    """Median and quartiles (inclusive method, as in numpy's default)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def aggregate(untraced, traced):
    """Summary of one workload from run.py verdicts: the untraced runs (one
    per seed) give the end-to-end metrics, the traced run the per-layer ones."""
    runs = untraced + [traced]
    end_to_end = {}
    for name, first in untraced[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in untraced]
        end_to_end[name] = {"unit": first["unit"], **spread(values)}
    return {
        "correct": all(r["correct"] is True for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": end_to_end,
        "per_layer": {name: {"unit": m["unit"], "value": m["value"]}
                      for name, m in traced["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="n in BENCH_<n>.json: the number of the change measured")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    machines, workloads = [], {}
    for wl in (w["name"] for w in benchmark["workloads"]):
        untraced, raw = [], []
        for seed in SEEDS:
            result, rec = run_perfbench(wl, seed, seconds, 0)
            untraced.append(result)
            machines.append(rec["machine"])
            raw.append(raw_speed(rec))
            print(f"{wl} seed {seed}: wall_s {result['metrics']['wall_s']['value']!r} "
                  f"correct {result['correct']}", file=sys.stderr)
        traced, rec = run_perfbench(wl, TRACE_SEED, seconds, 1)
        machines.append(rec["machine"])
        raw_wall, calibration = map(list, zip(*raw))
        workloads[wl] = {"seeds": list(SEEDS), "trace_seed": TRACE_SEED,
                         **aggregate(untraced, traced),
                         "raw_wall_s": raw_wall, "calibration_pass_s": calibration}
    if any(m != machines[0] for m in machines):
        raise SystemExit("error: the machine record or source changed between runs")

    record = {
        "number": args.number,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds!r} "
                   "--trace T",
        "machine": machines[0],
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
