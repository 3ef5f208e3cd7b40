"""Grey-wolf family optimizers and an inertia-weight PSO baseline.

Four variants are selected by flags: the plain scheme (``gwo``), the
curve-scheduled inertia weight (``cgwo``), the adaptive per-leader fitness
weights (``agwo``), and both together (``acgwo``). They and PSO run one loop,
:func:`_swarm`, and differ only in k and the move. The loop keeps the k best
so far (three leaders, one PSO global best) by one rule,
:func:`_update_leaders`, from the fresh fitness: ties go to the old leader,
then to the lower agent index. For PSO this is the personal bests' global
best: none is below it, and one that improves is its particle's fresh point.

Objectives are callables ``objective(X, rng) -> (n,)`` minimized over a
box-bounded space, called once per iteration with the whole ``(n, dim)``
position matrix and returning the fitness of every agent. Deterministic
objectives must ignore the ``rng`` argument, which may be ``None``;
stochastic ones draw only from it, from their first call on and in
agent-index order, which keeps every run reproducible from its seed.

RNG draw order is fixed so determinism is testable: initialization draws the
full position matrix agent-major; each iteration first evaluates objectives
in agent-index order (any noise draws happen there), then, except the last,
draws movement coefficients per agent, per leader (one for PSO), per
coordinate, r1 before r2. :func:`_swarm` draws them as one block, which its
docstring says when a worker thread draws ahead, and hands it to the move;
:func:`_move` works in place one leader at a time, and its rounding is that of
the whole-array formulas. :func:`clamp` then trims that fresh array in place.
"""

import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np

from . import curves
from .curves import CurveParams
from .errors import ConfigError, LupusError

Objective = Callable[[np.ndarray, Optional[np.random.Generator]], np.ndarray]

VARIANTS = ("gwo", "cgwo", "agwo", "acgwo")
_CURVE_VARIANTS = ("cgwo", "acgwo")
_ADAPTIVE_VARIANTS = ("agwo", "acgwo")

C1 = C2 = 2.0  # PSO acceleration coefficients; see PsoConfig for the rest
W_MAX, W_MIN = 0.9, 0.4
VELOCITY_CLAMP = 0.2
# A movement block of at least this many doubles may be drawn ahead on a worker
# thread: on a 2-vCPU guest (numpy 2.4.6) that cut bench-highdim's raw wall
# time by about 23%, but drawing every block ahead took bench-sweep's from
# 0.83-0.86 s to 1.57-1.74 s: its small blocks cost less to draw than to hand over.
DRAW_AHEAD_ELEMENTS = 2 ** 15


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


@dataclass(frozen=True)
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
                f"lets leader weights fall to {floor:.6g}, its lower bound "
                f"d - c*cauchy_pdf(b; b, a) (d when c <= 0); the bound must be > 0"
            )


@dataclass(frozen=True)
class PsoConfig:
    """Settings of one global-best PSO run.

    Inertia decreases linearly from ``W_MAX`` to ``W_MIN`` over the run;
    velocities are clamped per coordinate to ``VELOCITY_CLAMP`` times the
    box width and start at zero.
    """

    n_agents: int = 40
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer run; immutable and safe to share. The best
    score is the last entry of the per-iteration ``history``."""

    best_position: np.ndarray
    history: np.ndarray


@contextmanager
def worker(wanted: bool = True):
    """A one-thread pool for the ``with`` block if ``wanted`` and the process
    may run on two CPUs (its affinity mask, else ``os.cpu_count()``; a cgroup
    CPU quota is not seen), else ``None``: on one CPU a worker only takes turns
    with the thread that waits for it. The thread starts at the pool's first
    ``submit`` and ends with the block, also when the block raises."""
    if wanted and (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1) >= 2:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            yield pool
    else:
        yield None


def control_wa(iteration: int, max_iter: int) -> float:
    """Exploration control scalar decaying linearly from 2 to 0."""
    curves._check_iteration(iteration, max_iter)
    return 2.0 - iteration * (2.0 / max_iter)


def _move(positions, leaders, weights, wa: float, ww: float, draws) -> np.ndarray:
    """Every wolf's weighted mean of its three leader candidates, unclamped.

    Per leader L, with r1, r2 from the ``(n, 3, dim, 2)`` block ``draws``:
    A = 2*wa*r1 - wa, C = 2*r2, D = |C*L - X| and the candidate is ww*L - A*D,
    in place on ``(n, dim)`` scratch arrays (C*L is not r2*(2*L), which
    overflows for |L| >= 2**1023). The weighted candidates are summed from
    zero in leader order, as ``sum(axis=-2)`` does, and divided by the weight sum.
    """
    total = weights.sum()
    if total <= 0:
        raise LupusError(f"non-positive leader weight sum {total}")
    n, dim = positions.shape
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
        if weights[k] != 1.0:  # d * 1.0 is d, bit for bit
            d *= weights[k]
        acc += d
    acc /= total
    return acc


def clamp(pos, space: SearchSpace) -> np.ndarray:
    """Trim positions to the box in place and return ``pos``, overwritten."""
    return pos.clip(space.lower, space.upper, out=pos)


def _evaluate(objective: Objective, positions: np.ndarray, rng) -> np.ndarray:
    # A NaN fitness ranks as +inf (fmin takes the operand that is not NaN), so
    # a misbehaving objective can never become a leader.
    n = positions.shape[0]
    fitness = np.fmin(np.asarray(objective(positions, rng), dtype=float), math.inf)
    if fitness.shape != (n,):
        raise LupusError(
            f"objective returned shape {fitness.shape} for {n} agents; expected ({n},)"
        )
    return fitness


def _update_leaders(fitness, positions, scores, leaders):
    """The ``k = scores.size`` best so far, best first, as new arrays.

    The k best of the old leaders (``scores``, ``(k, dim)`` rows ``leaders``)
    then the agents (``fitness``, ``positions``) in stable order: ties go to
    the old leader, then to the lower agent index. Only leading rows are copied.
    """
    k = scores.size
    merged = np.concatenate((scores, fitness))
    order = merged.argsort(kind="stable")[:k]
    return merged[order], np.array([leaders[j] if j < k else positions[j - k]
                                    for j in order.tolist()])


def _swarm(objective: Objective, space: SearchSpace, cfg, k: int, move) -> RunResult:
    """The loop both swarms share, given k and the move.

    Per iteration: evaluate all agents, merge the k best so far from the fresh
    fitness and positions, and record the best; then, except after the last,
    draw the ``(n_agents, k, dim, 2)`` block of r1, r2 pairs into one of two
    kept buffers, in turn, and clamp ``move(it, positions, fitness, scores,
    leaders, draws)`` to the box. From ``DRAW_AHEAD_ELEMENTS`` doubles on, where
    :func:`worker` gives a pool, if the first evaluation left the stream
    untouched (a stochastic objective draws at its first call), the worker
    draws each next block from that stream into the other buffer while this
    one runs; the objective gets ``None`` from then on, so that a late draw
    raises instead of racing the worker. The blocks, and the stream's end
    state, are those of the inline draw.
    """
    rng = noise = np.random.default_rng(cfg.seed)
    positions = rng.uniform(space.lower, space.upper, size=(cfg.n_agents, space.dim))
    scores, leaders = np.full(k, math.inf), np.zeros((k, space.dim))
    history = np.empty(cfg.max_iter)
    buffers = np.empty((2, cfg.n_agents, k, space.dim, 2))  # fresh blocks would add to the peak
    ahead = None
    with worker(buffers[0].size >= DRAW_AHEAD_ELEMENTS) as pool:
        start = rng.bit_generator.state if pool is not None else None
        for it in range(cfg.max_iter):
            fitness = _evaluate(objective, positions, noise)
            scores, leaders = _update_leaders(fitness, positions, scores, leaders)
            history[it] = scores[0]
            if it == cfg.max_iter - 1:
                return RunResult(best_position=leaders[0], history=history)
            if it == 0:  # the worker owns the stream only if the objective left it alone
                noise, pool = (None, pool) if start == rng.bit_generator.state else (noise, None)
            # the worker's block, once it is done with the stream, or one drawn now
            draws = ahead.result() if ahead is not None else rng.random(out=buffers[it % 2])
            if pool is not None and it + 2 < cfg.max_iter:  # a move follows this one
                ahead = pool.submit(rng.random, out=buffers[(it + 1) % 2])
            positions = clamp(move(it, positions, fitness, scores, leaders, draws), space)


def run(objective: Objective, space: SearchSpace, cfg: GwoConfig) -> RunResult:
    """Run one grey-wolf optimization to completion.

    The three best so far lead. Each move computes the control scalar, the
    inertia weight and the leader weights (equal for the non-adaptive
    variants) and moves every wolf through the weighted mean of its three
    leader candidates. The last alpha score is the best score.
    """
    use_weights = cfg.variant in _ADAPTIVE_VARIANTS
    if use_curve := cfg.variant in _CURVE_VARIANTS:
        ww_scale = curves.cauchy_inertia(0, cfg.max_iter, cfg.inertia)
    equal = np.ones(3)

    def move(it, positions, fitness, scores, leaders, draws):
        wa = control_wa(it, cfg.max_iter)
        ww = curves.cauchy_inertia(it, cfg.max_iter, cfg.inertia) / ww_scale if use_curve else 1.0
        weights = equal
        if use_weights:
            f_avg = float(fitness.sum()) / cfg.n_agents  # as fitness.mean() rounds it
            weights = np.array([curves.leader_weight(s, f_avg, cfg.leader)
                                for s in scores.tolist()])
        return _move(positions, leaders, weights, wa, ww, draws)

    return _swarm(objective, space, cfg, 3, move)


def pso_run(objective: Objective, space: SearchSpace, cfg: PsoConfig) -> RunResult:
    """Run a global-best PSO with linearly decreasing inertia.

    Same result contract as :func:`run`. Each move takes each particle's fresh
    point as its personal best where it improved, then draws one uniform pair
    per particle per coordinate, r1 before r2, for the velocity update.
    """
    n, dim = cfg.n_agents, space.dim
    velocities = np.zeros((n, dim))
    v_max = VELOCITY_CLAMP * (space.upper - space.lower)
    pull, gap = np.empty((n, dim)), np.empty((n, dim))
    pbest, pbest_f = np.empty((n, dim)), np.full(n, math.inf)

    def move(it, positions, fitness, _scores, gbest, draws):
        if it == 0:  # the personal bests start at the start positions
            np.copyto(pbest, positions)
        improved = fitness < pbest_f
        np.copyto(pbest, positions, where=improved[:, None])
        np.copyto(pbest_f, fitness, where=improved)
        w = W_MAX - (W_MAX - W_MIN) * it / cfg.max_iter
        np.multiply(velocities, w, out=velocities)
        for r, coef, best in ((draws[:, 0, :, 0], C1, pbest), (draws[:, 0, :, 1], C2, gbest)):
            np.multiply(r, coef, out=pull)
            np.subtract(best, positions, out=gap)
            np.multiply(pull, gap, out=pull)
            np.add(velocities, pull, out=velocities)
        velocities.clip(-v_max, v_max, out=velocities)
        return positions + velocities

    return _swarm(objective, space, cfg, 1, move)
