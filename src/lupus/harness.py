"""Batch experiment runner over (algorithm x function x dimension x seed).

Every cell-run gets its own seed derived from the plan's base seed and the
cell labels, so cells are mutually independent: removing one never changes
another's results, and any scheduling order yields identical output.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import benchfns, curves, optimizer
from .curves import CurveParams
from .errors import ConfigError
from .fileio import write_text_atomic
from .seeding import derive_seed

GWO_ALGORITHMS = optimizer.VARIANTS
ALGORITHMS = GWO_ALGORITHMS + ("pso",)

CellKey = Tuple[str, str, int, int]  # (algorithm, function, dim, run)


@dataclass(frozen=True)
class ExperimentPlan:
    algorithms: Tuple[str, ...]
    functions: Tuple[str, ...]
    dims: Tuple[int, ...]
    n_runs: int = 10
    base_seed: int = 42
    n_agents: int = 40
    max_iter: int = 500
    inertia: CurveParams = curves.INERTIA_DEFAULTS
    leader: CurveParams = curves.LEADER_WEIGHT_DEFAULTS

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {alg!r} (known: {', '.join(ALGORITHMS)})"
                )
        if not self.algorithms or not self.functions or not self.dims:
            raise ConfigError("plan needs at least one algorithm, function and dim")
        if any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be positive, got {self.dims}")
        for fn_id in self.functions:
            bf = benchfns.get_function(fn_id)
            for dim in self.dims:
                if dim < bf.min_dim:
                    raise ConfigError(
                        f"{fn_id} ({bf.name}) needs dim >= {bf.min_dim}, got dim {dim}"
                    )
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        optimizer.check_leader_curve(self.algorithms, self.leader)


@dataclass(frozen=True)
class StatRow:
    """Aggregate of one (algorithm, function, dim) cell.

    ``std`` uses the population formula (divisor n_runs).
    """

    algorithm: str
    function: str
    dim: int
    mean: float
    std: float
    n_runs: int


@dataclass
class PlanResult:
    rows: List[StatRow]
    histories: Dict[CellKey, np.ndarray] = field(default_factory=dict)


def run_single(plan: ExperimentPlan, algorithm: str, fn_id: str, dim: int,
               run_index: int) -> np.ndarray:
    """One seeded cell-run; returns the per-iteration best-score history."""
    bf = benchfns.get_function(fn_id)
    space = optimizer.SearchSpace.uniform(dim, bf.lower, bf.upper)
    seed = derive_seed(plan.base_seed, algorithm, fn_id, dim, run_index)
    if algorithm == "pso":
        cfg = optimizer.PsoConfig(
            n_particles=plan.n_agents, max_iter=plan.max_iter, seed=seed,
        )
        return optimizer.pso_run(bf, space, cfg).history
    cfg = optimizer.GwoConfig(
        variant=algorithm, n_agents=plan.n_agents, max_iter=plan.max_iter,
        inertia=plan.inertia, leader=plan.leader, seed=seed,
    )
    return optimizer.run(bf, space, cfg).history


def _pool_task(args):
    plan, key = args
    return key, run_single(plan, *key)


def run_plan(plan: ExperimentPlan, workers: int = 1) -> PlanResult:
    """Execute every cell-run and aggregate mean/std of the final scores."""
    keys = [
        (alg, fn_id, dim, r)
        for alg in plan.algorithms
        for fn_id in plan.functions
        for dim in plan.dims
        for r in range(plan.n_runs)
    ]
    histories: Dict[CellKey, np.ndarray] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, history in pool.map(_pool_task, [(plan, k) for k in keys]):
                histories[key] = history
    else:
        for key in keys:
            histories[key] = run_single(plan, *key)

    rows = []
    for alg in plan.algorithms:
        for fn_id in plan.functions:
            for dim in plan.dims:
                finals = np.array([
                    histories[(alg, fn_id, dim, r)][-1] for r in range(plan.n_runs)
                ])
                rows.append(StatRow(
                    algorithm=alg, function=fn_id, dim=dim,
                    mean=float(finals.mean()), std=float(finals.std()),
                    n_runs=plan.n_runs,
                ))
    return PlanResult(rows=rows, histories=histories)


def format_scientific(value: float) -> str:
    """Two-digit mantissa scientific notation, e.g. 749.3 -> '7.49E+02'."""
    return f"{value:.2E}"


def export_table(rows, path) -> None:
    """Write the aggregate table as CSV with scientific-notation statistics."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to export")
    lines = ["algorithm,function,dim,mean,std,n_runs"]
    for row in rows:
        lines.append(
            f"{row.algorithm},{row.function},{row.dim},"
            f"{format_scientific(row.mean)},{format_scientific(row.std)},{row.n_runs}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def export_convergence(histories: Dict[CellKey, np.ndarray], out_dir) -> None:
    """Write one iter/score series per cell-run, suitable for plotting."""
    if not histories:
        raise ValueError("no histories to export")
    out_dir = Path(out_dir)
    for key in sorted(histories):
        alg, fn_id, dim, run_index = key
        lines = ["iter,alpha_score"]
        lines.extend(
            f"{i},{float(v)!r}" for i, v in enumerate(histories[key])
        )
        path = out_dir / f"{alg}_{fn_id}_{dim}_{run_index}.csv"
        write_text_atomic(path, "\n".join(lines) + "\n")
