"""Batch experiment runner over (algorithm x function x dimension x seed).

Every cell-run gets its own seed derived from the plan's base seed and the
cell labels, so cells are mutually independent: removing one never changes
another's results, and any scheduling order yields identical output.

:func:`run_plan` returns the per-iteration history of every cell-run;
:func:`export_table` computes the result table from each cell's final scores,
which :func:`cell_finals` gives in run order.
"""

from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from . import benchfns, curves, optimizer
from .curves import CurveParams
from .errors import ConfigError
from .fileio import write_csv
from .seeding import derive_seed

ALGORITHMS = optimizer.VARIANTS + ("pso",)

CellKey = Tuple[str, str, int, int]  # (algorithm, function, dim, run)
Cell = Tuple[str, str, int]  # (algorithm, function, dim)


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
        for name in ("algorithms", "functions", "dims"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat an entry, got {values}")
        for fn_id in self.functions:
            bf = benchfns.get_function(fn_id)
            for dim in self.dims:
                if dim < bf.min_dim:
                    raise ConfigError(
                        f"{fn_id} ({bf.name}) needs dim >= {bf.min_dim}, got dim {dim}"
                    )
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        # Each algorithm's settings are checked here, before any cell runs.
        for alg in self.algorithms:
            self.run_config(alg, self.base_seed)

    def run_config(self, algorithm: str, seed: int):
        """The optimizer settings of one of this plan's cell-runs."""
        if algorithm == "pso":
            return optimizer.PsoConfig(n_agents=self.n_agents, max_iter=self.max_iter, seed=seed)
        return optimizer.GwoConfig(
            variant=algorithm, n_agents=self.n_agents, max_iter=self.max_iter,
            inertia=self.inertia, leader=self.leader, seed=seed,
        )


def run_single(plan: ExperimentPlan, algorithm: str, fn_id: str, dim: int,
               run_index: int) -> np.ndarray:
    """One seeded cell-run; returns the per-iteration best-score history."""
    bf = benchfns.get_function(fn_id)
    space = optimizer.SearchSpace(dim, bf.lower, bf.upper)
    cfg = plan.run_config(algorithm, derive_seed(plan.base_seed, algorithm, fn_id, dim,
                                                 run_index))
    run = optimizer.pso_run if algorithm == "pso" else optimizer.run
    return run(bf, space, cfg).history


def run_plan(plan: ExperimentPlan, workers: int = 1) -> Dict[CellKey, np.ndarray]:
    """Execute every cell-run, on ``workers`` processes when more than one;
    returns each cell-run's history under its key, in plan order."""
    keys = list(product(plan.algorithms, plan.functions, plan.dims, range(plan.n_runs)))
    args = (run_single, repeat(plan), *zip(*keys))
    if workers > 1:
        # Imported here: the pool's modules add about 1 MB to every command.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            return dict(zip(keys, pool.map(*args)))
    return dict(zip(keys, map(*args)))


def cell_finals(histories: Dict[CellKey, np.ndarray]) -> Dict[Cell, np.ndarray]:
    """Each (algorithm, function, dim) cell's final scores, in run order."""
    finals: Dict[Cell, list] = {}
    for key in sorted(histories, key=lambda k: k[3]):
        finals.setdefault(key[:3], []).append(histories[key][-1])
    return {cell: np.array(values) for cell, values in finals.items()}


def export_table(histories: Dict[CellKey, np.ndarray], path) -> None:
    """Write each cell's mean, population std (divisor = runs) and run count of
    the final scores as CSV, in the published table's notation (749.3 -> 7.49E+02)."""
    finals = cell_finals(histories)
    if not finals:
        raise ValueError("no histories to export")
    write_csv(path, ("algorithm", "function", "dim", "mean", "std", "n_runs"),
              ((*cell, f"{x.mean():.2E}", f"{x.std():.2E}", x.size) for cell, x in finals.items()))


def export_convergence(histories: Dict[CellKey, np.ndarray], out_dir) -> None:
    """Write one iter/score series per cell-run, suitable for plotting, and
    delete the other ``.csv`` files in ``out_dir``: those of an earlier sweep."""
    if not histories:
        raise ValueError("no histories to export")
    out_dir = Path(out_dir)
    written = set()
    for key in sorted(histories):
        path = out_dir / ("_".join(map(str, key)) + ".csv")
        write_csv(path, ("iter", "alpha_score"), enumerate(histories[key].tolist()))
        written.add(path)
    for path in out_dir.glob("*.csv"):
        if path not in written:
            path.unlink()
