"""Paired benchmark runs of a base revision against the working tree.

The base revision is checked out with ``git worktree add`` in a temporary
directory (locally, nothing is fetched) and removed again when the script
ends, however it ends. For every workload of BENCHMARK.json, each of PAIRS
seeds, from FIRST_SEED on, then runs perfbench/run.py untraced once in the
base checkout and once in this one, one process at a time. Which side runs
first alternates from pair to pair, so a drift of the host's speed does not
favour either side.

Every pair is printed as it finishes, with whether both sides wrote the same
outputs (run.py's output digests). Then, per workload, each end-to-end
metric gets the base median with its quartiles, the change's median, the
relative difference and the number of pairs the change won (strictly better
in BENCHMARK.json's direction), and so does ``raw_wall_s``, the unscaled
mean wall time of the timed calls. A metric whose base quartile range,
relative to its median, is wider than its BENCHMARK.json bound is marked
unresolved. Last come both sides' mean calibration passes, so that a drift
of the calibration can be told apart from a change of the code, and the
number of pairs whose outputs were identical. A paired sign
count over interleaved runs follows Georges et al., "Statistically rigorous
Java performance evaluation", OOPSLA 2007.

Run from the repository root, on a quiet machine:

    python3 scripts/bench_pair.py --base HEAD~1

It exits 1 if any run was not correct or had a failed unit.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

PAIRS = 10
FIRST_SEED = 301
SIDES = ("base", "change")


def side_values(verdict, record):
    """One run's end-to-end metric values, its raw mean wall time and its mean
    calibration pass."""
    values = {name: m["value"] for name, m in verdict["metrics"].items()}
    values["raw_wall_s"], values["calibration_pass_s"] = bench_record.raw_speed(record)
    return values


def run_pairs(workload, seeds, seconds, base_root):
    """One base and one change run of ``workload`` per seed, the side that runs
    first alternating; yields each pair as it finishes."""
    roots = {"base": base_root, "change": bench_record.ROOT}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0], "correct": True}
        digests = {}
        for side in order:
            verdict, record = bench_record.run_perfbench(workload, seed, seconds, 0, roots[side])
            pair[side], digests[side] = side_values(verdict, record), record["digests"]
            pair["correct"] &= verdict["correct"] is True and verdict["failed"] == 0
        pair["identical"] = digests["base"] == digests["change"]
        yield pair


def pair_line(workload, pair, names):
    shown = ", ".join(f"{name} {pair['base'][name]:.6g} -> {pair['change'][name]:.6g}"
                      for name in names)
    flag = "" if pair["correct"] else " NOT CORRECT"
    outputs = "outputs identical" if pair["identical"] else "outputs DIFFER"
    return f"{workload} seed {pair['seed']} ({pair['first']} first){flag}: {shown}; {outputs}"


def summary(workload, pairs, metrics):
    """The per-workload lines: ``metrics`` maps each name to its BENCHMARK.json
    entry (``better`` and ``bound``)."""
    lines = [f"{workload}: {len(pairs)} pairs, base median [q1-q3] -> change median"]
    for name, spec in metrics.items():
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        s = bench_record.spread(base)
        median = statistics.median(change)
        lower = spec["better"] == "lower"
        wins = sum(c < b if lower else c > b for b, c in zip(base, change))
        delta = f" ({median / s['median'] - 1:+.1%})" if s["median"] else ""
        wide = s["median"] and (s["q3"] - s["q1"]) / abs(s["median"]) > spec["bound"]
        lines.append(f"  {name}: {s['median']:.6g} [{s['q1']:.6g}-{s['q3']:.6g}] -> "
                     f"{median:.6g}{delta}, change better in {wins}/{len(pairs)}"
                     + ("; base spread wider than its bound: unresolved" if wide else ""))
    lines.append("  calibration_pass_s mean: " + ", ".join(
        f"{side} {statistics.fmean(p[side]['calibration_pass_s'] for p in pairs):.6g}"
        for side in SIDES))
    lines.append(f"  outputs identical in {sum(p['identical'] for p in pairs)}/{len(pairs)} pairs")
    return lines


def git(*args):
    subprocess.run(["git", *args], cwd=bench_record.ROOT, capture_output=True, text=True,
                   check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    benchmark = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics["raw_wall_s"] = {"better": "lower", "bound": metrics["wall_s"]["bound"]}
    seeds = range(FIRST_SEED, FIRST_SEED + PAIRS)

    tmp = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    base_root = tmp / "base"
    all_correct = True
    try:
        git("worktree", "add", "--detach", str(base_root), args.base)
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for pair in run_pairs(workload, seeds, benchmark["run_seconds"], base_root):
                print(pair_line(workload, pair, metrics), flush=True)
                pairs.append(pair)
            print("\n".join(summary(workload, pairs, metrics)), flush=True)
            all_correct &= all(p["correct"] for p in pairs)
    finally:
        if base_root.exists():
            git("worktree", "remove", "--force", str(base_root))
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
