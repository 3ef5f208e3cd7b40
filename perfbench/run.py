"""Benchmark of the lupus CLI: one workload per process, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload bench-sweep --seed 1 --seconds 20 --trace 0

The workload (see workloads.py) runs in this process through
``lupus.cli.main``, repeated until ``--seconds`` have passed. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` one
more, traced run follows and its spans give the per-layer metrics (see
tracer.py), including ``trace_overhead_s``, the traced run's wall time minus
the untraced mean. Every metric is printed by name with its unit, and
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Times are given in seconds at a fixed reference speed. On a shared host the
machine's speed swings by up to half, over seconds and over minutes, as
neighbours come and go, so raw times depend on when a run ran. Before each
workload call the benchmark therefore times a few passes of a fixed
calibration loop that does not use lupus, and scales every
time by REFERENCE_PASS_S over the mean calibration pass of the same run: a
program that gets faster still reads faster, while the host's speed, which
slows the calibration just as much, cancels. Raw times are printed as well.
A first, untimed call fills caches before the timed calls. setup_s is the
exception: it is the raw median of fresh interpreters, whose start-up the
calibration in this process does not follow.

Every run's outputs are checked (workloads.py). All runs in one process must
produce byte-identical outputs, traced or not, and at seed 0 they must match
the digests recorded in witness.json. At seed 0 the workload also runs once,
untimed, at the experiment's full length, and must reproduce that run's
witness (for train, held-out accuracy 0.8876). A run with a non-zero exit, a
digest mismatch or a non-finite best score counts as failed.

BLAS and OpenMP are pinned to one thread in this process and in the set-up
processes. Results, with the machine record, are also written under
``.perfbench/`` in the checkout, together with the traced run's spans.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy loads, so that its BLAS starts with one thread.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data" / "heart.csv"
WORK = ROOT / ".perfbench"
WITNESS = HERE / "witness.json"
WITNESS_SEED = 0
# Fresh interpreters timed per run for setup_s; one import varies by tens of
# milliseconds, so the median of several is reported.
SETUP_REPEATS = 9
# run_tail_s is the highest of these with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75, 50)
# Calibration passes timed before each workload call, and the time of one
# pass at the reference speed (about the fastest pass on an unloaded 2-vCPU
# Xeon KVM guest with Python 3.11 and numpy 2.4).
CALIBRATION_PASSES = 6
REFERENCE_PASS_S = 0.025


def calibration_pass():
    """Fixed work of the three kinds the workloads do: per-row calls on small
    arrays, elementwise updates of a (40, 1000) array, and small matrix
    products through a sigmoid. Returns its wall time."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    small, big = rng.standard_normal((40, 30)), rng.standard_normal((40, 1000))
    x, w = rng.standard_normal((200, 13)), rng.standard_normal((13, 16))
    total = 0.0
    for _ in range(120):
        for row in small:
            total += float(np.sum(row * row))
        big = np.clip(big * 0.999 + 0.001, -5.0, 5.0)
        total += float(np.sum(1.0 / (1.0 + np.exp(-(x @ w)))))
    if not math.isfinite(total):
        raise RuntimeError("calibration pass gave a non-finite result")
    return time.perf_counter() - t0


@dataclass
class Run:
    wall: float
    run_times: list
    check: Check


def cli_main(argv):
    """One ``lupus`` CLI call in this process; its stdout is discarded."""
    import lupus.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return lupus.cli.main(argv)


def run_once(wl, seed, out, tr=None):
    """Run the workload once into ``out``, untraced or under tracer ``tr``."""
    shutil.rmtree(out, ignore_errors=True)
    argv = wl.argv(seed, DATA, out)
    run_times = []
    with (tr.installed() if tr else tracer.run_timer(run_times)):
        t0 = time.perf_counter()
        code = tr.call(cli_main, argv) if tr else cli_main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        return Run(wall, run_times, Check({}, wl.units, [f"lupus exited with {code}"]))
    try:
        check = wl.check(out, seed, DATA, cli_main)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        check = Check({}, wl.units, [f"outputs unreadable: {exc!r}"])
    return Run(wall, run_times, check)


def compare_digests(wl, seed, checks, witness):
    """Fail every run whose outputs differ from the witness or the first run."""
    reference = witness.get(wl.name) if seed == WITNESS_SEED else None
    if reference:
        expected, source = reference["digests"], f"the seed-{WITNESS_SEED} witness"
    else:
        expected = next((c.digests for c in checks if c.digests), None)
        source = "the first run in this process"
    for c in checks:
        if c.digests and c.digests != expected:
            c.failed_units = wl.units
            c.problems.append(f"output digests differ from {source}")
        if reference and "test_accuracy" in reference \
                and round(c.test_accuracy, 4) != reference["test_accuracy"]:
            c.failed_units = wl.units
            c.problems.append(f"test accuracy {c.test_accuracy!r} is not "
                              f"{reference['test_accuracy']}")


def measure_setup(wl, seed, problems):
    """Wall times of fresh interpreters that import the CLI and build inputs."""
    code = wl.setup_code(seed, DATA)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up process exited with {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            break
    return times


def nearest_rank(sorted_values, q):
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)), 1) - 1]


def tail(sorted_values):
    """(percentile, value, samples beyond it) for the highest percentile that
    still has ten samples beyond it; the maximum when none has."""
    n = len(sorted_values)
    for q in TAIL_PERCENTILES:
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= 10:
            return q, nearest_rank(sorted_values, q), beyond
    return 100, sorted_values[-1], 0


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "lupus").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def end_to_end(wl, runs, scale, setup_times):
    """End-to-end metrics at the reference speed: the mean workload call and,
    for each optimizer run (the i-th of every call runs the same cell), its
    mean over the calls; the percentiles are taken over those optimizer runs.
    Means, not medians, because the calibration passes between the calls
    measure the host's mean speed over the same stretch of time."""
    wall = statistics.fmean(r.wall for r in runs) * scale
    per_cell = sorted(statistics.fmean(t) * scale for t in zip(*(r.run_times for r in runs)))
    q, run_tail, beyond = tail(per_cell)
    metrics = {
        "wall_s": (wall, "s"),
        "evals_per_s": (wl.evaluations / wall, "1/s"),
        "run_p50_s": (nearest_rank(per_cell, 50), "s"),
        "run_tail_s": (run_tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n, reps = len(per_cell), f"mean of {len(runs)} workload calls at the reference speed"
    notes = {
        "wall_s": reps,
        "evals_per_s": f"{wl.evaluations} objective evaluations per workload call; {reps}",
        "run_p50_s": f"p50 of {n} optimizer runs per call, each its mean over {len(runs)}",
        "run_tail_s": f"p{q:g} of {n} optimizer runs per call, {beyond} beyond it, "
                      f"each its mean over {len(runs)}",
        "setup_s": f"raw median of {len(setup_times)} fresh interpreters",
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes


def measure(wl, seed, seconds, trace, run_dir, witness):
    machine = machine_record()
    for key, value in machine.items():
        print(f"machine.{key}: {value}")
    problems = []
    setup_times = measure_setup(wl, seed, problems)

    warmup = run_once(wl, seed, run_dir / "warmup")
    runs, passes = [], []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        passes += [calibration_pass() for _ in range(CALIBRATION_PASSES)]
        runs.append(run_once(wl, seed, run_dir / f"run{len(runs)}"))
    scale = REFERENCE_PASS_S / statistics.fmean(passes)
    metrics, notes = end_to_end(wl, runs, scale, setup_times)
    print(f"speed: mean calibration pass {statistics.fmean(passes)!r} s, reference "
          f"{REFERENCE_PASS_S} s; times are scaled by {scale!r}")
    print(f"raw wall_s: mean {statistics.fmean(r.wall for r in runs)!r} s, "
          f"fastest {min(r.wall for r in runs)!r} s")
    all_runs = [warmup] + runs
    tr = None
    if trace:
        tr = tracer.Tracer()
        all_runs.append(run_once(wl, seed, run_dir / "traced", tr))
        overhead = all_runs[-1].wall * scale - metrics["wall_s"][0]
        metrics = tracer.layer_metrics(tr, wl.iterations, overhead)
        notes = {"trace_overhead_s": "traced wall time minus the untraced mean, "
                                     "both at the reference speed"}

    checks = [r.check for r in all_runs]
    compare_digests(wl, seed, checks, witness)
    attempted = wl.units * len(checks)
    failed = sum(c.failed_units for c in checks)
    full_accuracy = math.nan
    if seed == WITNESS_SEED and wl.full is not None:
        full = run_once(wl.full, seed, run_dir / "full").check
        compare_digests(wl.full, seed, [full], witness)
        attempted += wl.full.units
        failed += full.failed_units
        problems += [f"{wl.full.name}: {p}" for p in full.problems]
        full_accuracy = full.test_accuracy
    problems += [p for c in checks for p in c.problems]
    accuracy = checks[0].test_accuracy

    print(f"workload: {wl.name} seed={seed} runs={len(runs)} traced={trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {value!r} {unit}{note}")
    if not trace:
        print("test_accuracy: " + ("n/a (no classifier in this workload)"
                                   if math.isnan(accuracy) else f"{accuracy!r} fraction"))
        if not math.isnan(full_accuracy):
            print(f"test_accuracy ({wl.full.name}): {full_accuracy!r} fraction")
        print(f"error_rate: {failed / attempted!r} fraction  "
              f"({failed} of {attempted} {wl.unit_name} failed)")
    else:
        timed = [(v, n) for n, (v, u) in metrics.items() if u == "s" and n != "trace_overhead_s"]
        print("largest layer: " + max(timed)[1])
        for span, calls, total, own in tracer.span_table(tr):
            print(f"span {span}: calls={calls} total_s={total!r} self_s={own!r}")
    for name, digest in sorted(checks[0].digests.items()):
        print(f"digest {name}: {digest}")
    for problem in problems:
        print(f"FAILED: {problem}")

    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine, "run_walls_s": [r.wall for r in all_runs],
        "calibration_passes_s": passes, "scale": scale,
        "setup_times_s": setup_times, "test_accuracy": accuracy,
        "full_test_accuracy": full_accuracy,
        "digests": checks[0].digests, "problems": problems,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    out_dir = WORK / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    if tr is not None:
        tr.save(out_dir / "spans.npz")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the workload until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lupus" / "cli.py").is_file() or not DATA.is_file():
        print(f"error: {SRC / 'lupus'} or {DATA} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lupus.cli

    if Path(lupus.__file__).resolve().parent != (SRC / "lupus").resolve():
        print(f"error: lupus was imported from {lupus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    witness = json.loads(WITNESS.read_text())

    wl = workloads[args.workload]
    run_dir = WORK / f"{wl.name}-{os.getpid()}"
    try:
        result = measure(wl, args.seed, args.seconds, args.trace, run_dir, witness)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
