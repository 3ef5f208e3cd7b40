"""Grey-wolf family optimizers and an inertia-weight PSO baseline.

Four variants share one loop and are selected by flags: the plain scheme
(``gwo``), the curve-scheduled inertia weight (``cgwo``), the adaptive
per-leader fitness weights (``agwo``), and both together (``acgwo``).

Objectives are callables ``objective(X, rng) -> (n,)`` minimized over a
box-bounded space, called once per iteration with the whole ``(n, dim)``
position matrix and returning the fitness of every agent. Deterministic
objectives must ignore the ``rng`` argument; stochastic ones draw only from
it, in agent-index order, which keeps every run reproducible from its seed.

RNG draw order is fixed so determinism is testable: initialization draws the
full position matrix agent-major; each iteration first evaluates objectives
in agent-index order (any noise draws happen there), then draws movement
coefficients per agent, per leader, per coordinate, r1 before r2. The
movement, :func:`_move`, takes them as one block and works in place one
leader at a time; its rounding is that of the whole-array formulas.
"""

import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from . import curves
from .curves import CurveParams
from .errors import ConfigError, LupusError

Objective = Callable[[np.ndarray, np.random.Generator], np.ndarray]

VARIANTS = ("gwo", "cgwo", "agwo", "acgwo")
_CURVE_VARIANTS = ("cgwo", "acgwo")
_ADAPTIVE_VARIANTS = ("agwo", "acgwo")

C1 = C2 = 2.0  # PSO acceleration coefficients; see PsoConfig for the rest
W_MAX, W_MIN = 0.9, 0.4
VELOCITY_CLAMP = 0.2


@dataclass(frozen=True)
class SearchSpace:
    """The box ``[lower, upper]`` in each of ``dim`` coordinates."""

    dim: int
    lower: float
    upper: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        # Uniform initialization draws lower + (upper - lower) * u, which needs
        # a finite width, not only finite bounds.
        if not math.isfinite(self.upper - self.lower):
            raise ConfigError("bounds and their width upper - lower must be finite")
        if not self.lower < self.upper:
            raise ConfigError(
                f"lower must be strictly below upper, got [{self.lower}, {self.upper}]"
            )


@dataclass
class GwoConfig:
    """Settings of one grey-wolf run.

    The curve variants apply the inertia curve relative to its value at
    iteration 0, which must not be 0, so the position update starts exactly
    as the canonical scheme and the weight decays below 1 from there. With
    the default curve parameters the unnormalized curve stays above 2 for the
    whole run, which makes every update an expansion away from the leaders
    and the swarm provably diverges.
    """

    variant: str = "acgwo"
    n_agents: int = 100
    max_iter: int = 1000
    inertia: CurveParams = curves.INERTIA_DEFAULTS
    leader: CurveParams = curves.LEADER_WEIGHT_DEFAULTS
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r} (known: {', '.join(VARIANTS)})"
            )
        if self.n_agents < 3:
            raise ConfigError(f"n_agents must be >= 3, got {self.n_agents}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        # The curve variants divide by the inertia curve's value at iteration 0;
        # the adaptive variants need every leader weight > 0.
        if self.variant in _CURVE_VARIANTS and curves.cauchy_inertia(0, 1, self.inertia) == 0:
            raise ConfigError("inertia curve is 0 at iteration 0; cannot normalize")
        if self.variant in _ADAPTIVE_VARIANTS and \
                not (floor := curves.leader_weight_floor(self.leader)) > 0:
            raise ConfigError(
                f"leader curve a,b,c,d = {','.join(map(repr, astuple(self.leader)))} "
                f"lets leader weights fall to {floor:.6g}, its lower bound d - c/(pi*a) "
                f"(d when c <= 0); the bound must be > 0"
            )


@dataclass
class PsoConfig:
    """Settings of one global-best PSO run.

    Inertia decreases linearly from ``W_MAX`` to ``W_MIN`` over the run;
    velocities are clamped per coordinate to ``VELOCITY_CLAMP`` times the
    box width and start at zero.
    """

    n_particles: int = 40
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer run; immutable and safe to share."""

    best_position: np.ndarray
    best_score: float
    history: np.ndarray


def control_wa(iteration: int, max_iter: int) -> float:
    """Exploration control scalar decaying linearly from 2 to 0."""
    curves._check_iteration(iteration, max_iter)
    return 2.0 - iteration * (2.0 / max_iter)


def _move(positions, leaders, weights, wa: float, ww: float,
          rng: np.random.Generator) -> np.ndarray:
    """Every wolf's weighted mean of its three leader candidates, unclamped.

    Per leader L: A = 2*wa*r1 - wa, C = 2*r2, D = |C*L - X| and the candidate
    is ww*L - A*D, computed in place on ``(n, dim)`` scratch arrays. The
    weighted candidates are summed from zero in leader order, as
    ``sum(axis=-2)`` does, then divided once by the weight sum.
    """
    total = weights.sum()
    if total <= 0:
        raise LupusError(f"non-positive leader weight sum {total}")
    n, dim = positions.shape
    draws = rng.random((n, 3, dim, 2))
    acc, a, d = np.zeros((n, dim)), np.empty((n, dim)), np.empty((n, dim))
    for k, leader in enumerate(leaders):
        np.multiply(draws[:, k, :, 0], 2.0 * wa, out=a)
        a -= wa
        np.multiply(draws[:, k, :, 1], 2.0, out=d)
        d *= leader
        d -= positions
        np.abs(d, out=d)
        a *= d
        np.multiply(leader, ww, out=d)
        d -= a
        d *= weights[k]
        acc += d
    acc /= total
    return acc


def clamp(pos, space: SearchSpace) -> np.ndarray:
    """Trim positions to the box."""
    return np.clip(pos, space.lower, space.upper)


def _evaluate(objective: Objective, positions: np.ndarray, rng) -> np.ndarray:
    # A NaN fitness ranks as +inf so a misbehaving objective can never become
    # a leader.
    n = positions.shape[0]
    fitness = np.array(objective(positions, rng), dtype=float)
    if fitness.shape != (n,):
        raise LupusError(
            f"objective returned shape {fitness.shape} for {n} agents; expected ({n},)"
        )
    fitness[np.isnan(fitness)] = math.inf
    return fitness


def _update_leaders(fitness, positions, scores: list, leaders: list) -> None:
    """Insert each agent, in index order, into the three best so far.

    ``scores`` and ``leaders`` are the alpha, beta and delta scores and
    positions, best first. An agent takes the first rank it strictly beats;
    the ranks below it shift down and the last one drops out.
    """
    for i, f in enumerate(fitness.tolist()):
        if f < scores[2]:
            rank = 0 if f < scores[0] else 1 if f < scores[1] else 2
            scores.insert(rank, f)
            leaders.insert(rank, positions[i].copy())
            del scores[3], leaders[3]


def run(objective: Objective, space: SearchSpace, cfg: GwoConfig) -> RunResult:
    """Run one grey-wolf optimization to completion.

    Per iteration: evaluate all agents, update the leaders, compute the
    control scalar and the inertia weight, compute the leader weights (equal
    for the non-adaptive variants), move every wolf through the weighted mean
    of its three leader candidates, clamp to the box, and record the alpha
    score. The last recorded alpha score is the best score.
    """
    n, dim = cfg.n_agents, space.dim
    rng = np.random.default_rng(cfg.seed)
    positions = rng.uniform(space.lower, space.upper, size=(n, dim))
    scores = [math.inf] * 3
    leaders = [np.zeros(dim)] * 3

    use_curve = cfg.variant in _CURVE_VARIANTS
    use_weights = cfg.variant in _ADAPTIVE_VARIANTS
    if use_curve:
        ww_scale = curves.cauchy_inertia(0, cfg.max_iter, cfg.inertia)

    history = np.empty(cfg.max_iter)
    for it in range(cfg.max_iter):
        fitness = _evaluate(objective, positions, rng)
        _update_leaders(fitness, positions, scores, leaders)

        # Population average before any position update.
        f_avg = float(fitness.mean())
        wa = control_wa(it, cfg.max_iter)
        ww = 1.0
        if use_curve:
            ww = curves.cauchy_inertia(it, cfg.max_iter, cfg.inertia) / ww_scale
        if use_weights:
            weights = np.array([curves.leader_weight(s, f_avg, cfg.leader) for s in scores])
        else:
            weights = np.ones(3)

        positions = clamp(_move(positions, leaders, weights, wa, ww, rng), space)
        history[it] = scores[0]

    return RunResult(
        best_position=leaders[0].copy(),
        best_score=float(scores[0]),
        history=history,
    )


def pso_run(objective: Objective, space: SearchSpace, cfg: PsoConfig) -> RunResult:
    """Run a global-best PSO with linearly decreasing inertia.

    Same result contract as :func:`run`; the history records the global-best
    score after each iteration's evaluations. Movement draws one uniform pair
    per particle per coordinate, r1 before r2.
    """
    n, dim = cfg.n_particles, space.dim
    rng = np.random.default_rng(cfg.seed)
    positions = rng.uniform(space.lower, space.upper, size=(n, dim))
    velocities = np.zeros((n, dim))
    v_max = VELOCITY_CLAMP * (space.upper - space.lower)
    pull, gap = np.empty((n, dim)), np.empty((n, dim))

    pbest = positions.copy()
    pbest_f = np.full(n, math.inf)
    gbest = np.zeros(dim)
    gbest_f = math.inf

    history = np.empty(cfg.max_iter)
    for it in range(cfg.max_iter):
        fitness = _evaluate(objective, positions, rng)

        improved = fitness < pbest_f
        pbest[improved] = positions[improved]
        pbest_f[improved] = fitness[improved]
        best = int(np.argmin(pbest_f))
        if pbest_f[best] < gbest_f:
            gbest_f = float(pbest_f[best])
            gbest = pbest[best].copy()
        history[it] = gbest_f

        w = W_MAX - (W_MAX - W_MIN) * it / cfg.max_iter
        draws = rng.random((n, dim, 2))
        velocities *= w
        for r, coef, best in ((draws[..., 0], C1, pbest), (draws[..., 1], C2, gbest)):
            np.multiply(r, coef, out=pull)
            np.subtract(best, positions, out=gap)
            pull *= gap
            velocities += pull
        np.clip(velocities, -v_max, v_max, out=velocities)
        positions = clamp(positions + velocities, space)

    return RunResult(
        best_position=gbest.copy(),
        best_score=gbest_f,
        history=history,
    )
