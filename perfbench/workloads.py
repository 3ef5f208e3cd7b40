"""The benchmark's workloads: CLI arguments, input sizes and output checks.

Each workload is one ``lupus`` CLI call. The benchmark passes only the seed
and the input sizes written here; the CLI derives every stream from them.
The checks import ``lupus`` when they run, because run.py first puts the
checkout's ``src`` on the import path.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

ALGORITHMS = ("gwo", "cgwo", "agwo", "acgwo", "pso")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Check:
    """Outcome of checking one workload run's outputs."""

    digests: dict
    failed_units: int
    problems: list
    test_accuracy: float = math.nan


@dataclass(frozen=True)
class TrainWorkload:
    """``lupus train`` in hybrid mode (swarm search, then backprop)."""

    name: str
    swarm: int = 100
    iters: int = 1000
    bp_epochs: int = 100
    full: Optional["TrainWorkload"] = None

    units = 1
    unit_name = "training runs"

    @property
    def evaluations(self):
        return self.swarm * self.iters

    @property
    def iterations(self):
        return self.iters

    def argv(self, seed, data, out):
        return ["train", "--mode", "acgwo-bp", "--seed", str(seed), "--data", str(data),
                "--swarm", str(self.swarm), "--iters", str(self.iters),
                "--bp-epochs", str(self.bp_epochs), "--out", str(out)]

    def setup_code(self, seed, data):
        """Import the CLI, then load, clean, split and standardize the table."""
        return (
            "import lupus.cli\n"
            "from lupus import dataprep\n"
            "from lupus.seeding import derive_seed\n"
            f"ds = dataprep.clean(dataprep.load_table({str(data)!r}))\n"
            f"train, test = dataprep.stratified_split(ds, 0.7, derive_seed({seed}, 'split'))\n"
            "stats = dataprep.fit_standardizer(train.X, train.feature_names)\n"
            "dataprep.apply_standardizer(stats, train.X)\n"
            "dataprep.apply_standardizer(stats, test.X)\n"
        )

    def check(self, out, seed, data, cli_main):
        """The saved model must reproduce the reported held-out metrics and
        final training loss."""
        out = Path(out)
        problems = []
        digests = {f: sha256(out / f) for f in ("model.json", "train_report.json")}
        report = json.loads((out / "train_report.json").read_text())
        losses = report["loss_history"] + [report["final_train_loss"]]
        if len(report["loss_history"]) != self.iters + self.bp_epochs:
            problems.append(f"loss history has {len(report['loss_history'])} entries")
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite training loss")
        code = cli_main(["eval", "--model", str(out / "model.json"), "--data", str(data),
                         "--out", str(out / "eval")])
        if code != 0:
            problems.append(f"lupus eval exited {code}")
        elif json.loads((out / "eval" / "eval.json").read_text()) != report["test_metrics"]:
            problems.append("eval of model.json disagrees with train_report.json")
        elif _train_loss(out / "model.json", data) != report["final_train_loss"]:
            problems.append("model.json does not reproduce the final training loss")
        return Check(digests, int(bool(problems)), problems,
                     test_accuracy=report["test_metrics"]["accuracy"])


def _train_loss(model_path, data):
    """Training loss of a saved model, on the split and scaling it records."""
    from lupus import dataprep, mlp

    model = mlp.model_from_json(Path(model_path).read_text())
    ds = dataprep.clean(dataprep.load_table(data), impute=model.impute)
    train, _ = dataprep.stratified_split(ds, model.train_fraction, model.split_seed)
    stats = dataprep.StandardizationStats(mean=model.scaler_mean, std=model.scaler_std)
    x = dataprep.apply_standardizer(stats, train.X)
    return mlp.bce_loss(model.architecture, model.params, x, train.y)


@dataclass(frozen=True)
class BenchWorkload:
    """``lupus bench`` over every algorithm, with tables and convergence files."""

    name: str
    functions: Tuple[str, ...]
    dims: Tuple[int, ...]
    runs: int
    algorithms: Tuple[str, ...] = ALGORITHMS
    agents: int = 40
    iters: int = 500
    full: Optional["BenchWorkload"] = None

    unit_name = "cell-runs"

    @property
    def units(self):
        return len(self.algorithms) * len(self.functions) * len(self.dims) * self.runs

    @property
    def evaluations(self):
        return self.agents * self.iters * self.units

    @property
    def iterations(self):
        return self.iters * self.units

    def argv(self, seed, data, out):
        return ["bench", "--algs", ",".join(self.algorithms),
                "--functions", ",".join(self.functions),
                "--dims", ",".join(map(str, self.dims)), "--runs", str(self.runs),
                "--agents", str(self.agents), "--iters", str(self.iters),
                "--workers", "1", "--seed", str(seed), "--out", str(out)]

    def setup_code(self, seed, data):
        """Import the CLI and build the experiment plan."""
        return (
            "import lupus.cli\n"
            "from lupus import harness\n"
            f"harness.ExperimentPlan(algorithms={self.algorithms!r}, "
            f"functions={self.functions!r}, dims={self.dims!r}, n_runs={self.runs}, "
            f"base_seed={seed}, n_agents={self.agents}, max_iter={self.iters})\n"
        )

    def check(self, out, seed, data, cli_main):
        """Every series is complete, finite and non-increasing, and the table's
        statistics are those of the series' final scores."""
        from lupus import harness

        out = Path(out)
        problems = []
        failed = set()
        conv = out / "convergence"
        names = sorted(p.name for p in conv.iterdir()) if conv.is_dir() else []
        listing = "".join(f"{n} {sha256(conv / n)}\n" for n in names)
        digests = {"table.csv": sha256(out / "table.csv"),
                   "convergence": hashlib.sha256(listing.encode()).hexdigest()}

        cells = [(a, f, d) for a in self.algorithms for f in self.functions for d in self.dims]
        expected = sorted(f"{a}_{f}_{d}_{r}.csv" for a, f, d in cells for r in range(self.runs))
        if names != expected:
            problems.append(f"convergence files: {len(names)} present, {len(expected)} expected")
            failed.update(range(self.units))
        table = (out / "table.csv").read_text().splitlines()
        if table[0] != "algorithm,function,dim,mean,std,n_runs" or len(table) != len(cells) + 1:
            problems.append("table.csv has the wrong header or row count")
            failed.update(range(self.units))

        for c, (alg, fn, dim) in enumerate(cells):
            finals = []
            for r in range(self.runs):
                series = f"{alg}_{fn}_{dim}_{r}.csv"
                try:
                    lines = (conv / series).read_text().splitlines()
                    iters, scores = np.loadtxt(lines[1:], delimiter=",", ndmin=2).T
                except (OSError, ValueError):
                    lines, iters, scores = [], np.empty(0), np.empty(0)
                if (lines[:1] != ["iter,alpha_score"] or scores.size != self.iters
                        or np.any(iters != np.arange(self.iters))
                        or not np.isfinite(scores[-1]) or np.any(np.diff(scores) > 0)):
                    problems.append(f"{series}: missing, malformed or non-finite")
                    failed.add(c * self.runs + r)
                else:
                    finals.append(scores[-1])
            if len(finals) != self.runs or len(table) <= c + 1:
                continue
            finals = np.array(finals)
            row = f"{alg},{fn},{dim},{finals.mean():.2E},{finals.std():.2E},{self.runs}"
            if table[c + 1] != row:
                problems.append(f"table row {c + 1} does not match its series")
                failed.update(range(c * self.runs, (c + 1) * self.runs))

        # Recompute one cell-run (the cheapest algorithm; the function
        # rotates with the seed) through the library and compare its series.
        alg = "pso" if "pso" in self.algorithms else self.algorithms[0]
        fn, dim = self.functions[seed % len(self.functions)], self.dims[0]
        plan = harness.ExperimentPlan(
            algorithms=self.algorithms, functions=self.functions, dims=self.dims,
            n_runs=self.runs, base_seed=seed, n_agents=self.agents, max_iter=self.iters)
        series = f"{alg}_{fn}_{dim}_0.csv"
        expected = "".join(f"{i},{float(v)!r}\n"
                           for i, v in enumerate(harness.run_single(plan, alg, fn, dim, 0)))
        if not (conv / series).is_file() or \
                (conv / series).read_text() != "iter,alpha_score\n" + expected:
            problems.append(f"{series} differs from a direct run of that cell")
            failed.add(cells.index((alg, fn, dim)) * self.runs)
        return Check(digests, len(failed), problems)


# Why each workload is here (BENCHMARK.json repeats this in one line each):
# - train-hybrid: `lupus train`, 13-16-1 network, acgwo with 100 agents. The
#   mlp loss does nearly all the work; the 241-dimensional swarm's own
#   arithmetic costs little. Sigmoid and loss changes show here, and
#   benchmark-function changes should leave it flat.
# - bench-sweep: cheap dim-30 objectives (a few microseconds each), so the
#   per-agent Python dispatch into benchfns sets the wall time. Batched
#   objectives, leader-update and output-layout changes show here.
# - bench-highdim: the same code at dim 1000, where movement, draws and clamp
#   on (40, 3, 1000, 2) arrays outweigh the objective calls. A change that
#   trades dispatch for per-iteration array work shows on one of the two.
#
# Each timed call is cut to about a second by running a tenth to a fifth of
# the full experiment's iterations (and, for train, BP epochs); the work per
# iteration is the same. The host's speed swings by up to half over seconds,
# and only the fastest of many short calls is steady from run to run (see
# run.py).
# ``full`` is the experiment at full length; it runs once, untimed, at the
# witness seed, and its outputs must match the witness recorded for it.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train-hybrid", iters=50, bp_epochs=5,
                      full=TrainWorkload("train-hybrid.full")),
        BenchWorkload("bench-sweep", functions=("f1", "f2", "f3", "f4", "f5", "f6"),
                      dims=(30,), runs=2, iters=100,
                      full=BenchWorkload("bench-sweep.full", functions=(
                          "f1", "f2", "f3", "f4", "f5", "f6"), dims=(30,), runs=2)),
        BenchWorkload("bench-highdim", functions=("f1", "f4"), dims=(1000,), runs=1,
                      iters=50,
                      full=BenchWorkload("bench-highdim.full", functions=("f1", "f4"),
                                         dims=(1000,), runs=1)),
    )
}
