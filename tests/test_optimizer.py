import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lupus import curves, mlp, optimizer
from lupus.benchfns import REGISTRY, get_function, sphere
from lupus.errors import ConfigError, LupusError
from lupus.optimizer import (
    VARIANTS,
    GwoConfig,
    PsoConfig,
    SearchSpace,
    clamp,
    control_wa,
    pso_run,
    run,
)


def sphere_objective(X, rng):
    return sphere(X, rng)


def recording(seen, objective=sphere_objective):
    """``objective`` that appends every position block it is called with to ``seen``."""
    return lambda X, rng: seen.append(X.copy()) or objective(X, rng)


class TestSearchSpace:
    def test_uniform_factory(self):
        # One box, the same bounds in every coordinate.
        space = SearchSpace(3, -1.0, 2.0)
        assert (space.dim, space.lower, space.upper) == (3, -1.0, 2.0)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError, match="strictly below"):
            SearchSpace(2, 1.0, 1.0)

    @pytest.mark.parametrize("lower,upper", [(0.0, math.inf), (-math.inf, math.inf),
                                             (math.nan, 1.0), (-1e308, 1e308)])
    def test_rejects_non_finite_bounds_or_width(self, lower, upper):
        with pytest.raises(ConfigError, match="finite"):
            SearchSpace(3, lower, upper)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="dim"):
            SearchSpace(0, 0.0, 1.0)


class TestConfigs:
    def test_gwo_needs_three_leaders(self):
        with pytest.raises(ConfigError):
            GwoConfig(n_agents=2)

    def test_gwo_rejects_unknown_variant(self):
        with pytest.raises(ConfigError):
            GwoConfig(variant="xgwo")

    def test_gwo_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            GwoConfig(max_iter=0)

    def test_adaptive_variants_need_positive_leader_weights(self):
        bad = curves.CurveParams(a=1.0, b=0.0, c=10.0, d=0.0)
        for variant in ("agwo", "acgwo"):
            with pytest.raises(ConfigError, match="leader curve"):
                GwoConfig(variant=variant, leader=bad)
        for variant in ("gwo", "cgwo"):
            assert GwoConfig(variant=variant, leader=bad).leader == bad

    def test_curve_variants_need_nonzero_inertia_at_start(self):
        # The curve variants divide by the inertia at iteration 0; here it is 0.
        zero_at_start = curves.CurveParams(a=1.0, b=0.0, c=math.pi, d=-1.0)
        for variant in ("cgwo", "acgwo"):
            with pytest.raises(ConfigError, match="inertia curve is 0"):
                GwoConfig(variant=variant, inertia=zero_at_start)
        for variant in ("gwo", "agwo"):
            assert GwoConfig(variant=variant, inertia=zero_at_start).inertia == zero_at_start

    def test_pso_validation(self):
        with pytest.raises(ConfigError, match="n_agents"):
            PsoConfig(n_agents=0)
        with pytest.raises(ConfigError, match="max_iter"):
            PsoConfig(max_iter=0)


def _initial_positions(space, cfg):
    """The positions run() evaluates first: its initialization."""
    seen = []
    run(recording(seen), space, GwoConfig(n_agents=cfg.n_agents, max_iter=1, seed=cfg.seed))
    return seen[0]


class TestInitialize:
    def test_bounds_containment(self):
        space = SearchSpace(2, -1.0, 1.0)
        positions = _initial_positions(space, GwoConfig(n_agents=5, max_iter=10, seed=3))
        assert positions.shape == (5, 2)
        assert np.all(positions >= -1.0) and np.all(positions <= 1.0)

    def test_deterministic(self):
        space = SearchSpace(4, -2.0, 7.0)
        cfg = GwoConfig(n_agents=6, max_iter=10, seed=99)
        a = _initial_positions(space, cfg)
        b = _initial_positions(space, cfg)
        assert np.array_equal(a, b)

    def test_leader_sentinels(self):
        # No fitness beats the +inf start, so no agent ever becomes a leader.
        space = SearchSpace(2, -1.0, 1.0)
        result = run(lambda X, rng: np.full(len(X), math.inf), space,
                     GwoConfig(variant="gwo", n_agents=3, max_iter=2, seed=0))
        assert np.all(result.history == math.inf)
        assert np.array_equal(result.best_position, np.zeros(2))


class TestControlWa:
    def test_endpoints_and_interpolation(self):
        assert control_wa(0, 1000) == 2.0
        assert control_wa(1000, 1000) == 0.0
        assert control_wa(250, 1000) == pytest.approx(1.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            control_wa(-1, 10)
        with pytest.raises(ValueError):
            control_wa(11, 10)
        with pytest.raises(ValueError):
            control_wa(0, 0)


# Reference movement: the composition run() used before the in-place _move.
# One draw block fills C order, so a call per agent and leader draws the same
# stream as one call for the whole swarm.
def step_coefficients(wa, shape, rng):
    """A = 2*wa*r1 - wa and C = 2*r2, one uniform pair per entry, r1 first."""
    draws = rng.random((*np.atleast_1d(shape), 2))
    return 2.0 * wa * draws[..., 0] - wa, 2.0 * draws[..., 1]


def candidate_from_leader(wolf_pos, leader_pos, a, c, ww):
    """ww*leader - A*D with D = |C*leader - wolf|; broadcasts."""
    return ww * leader_pos - a * np.abs(c * leader_pos - wolf_pos)


def combine_candidates(candidates, weights):
    """Weighted mean of the per-leader candidates along the second-last axis."""
    weights = np.asarray(weights, dtype=float)
    return (weights[:, None] * np.asarray(candidates)).sum(axis=-2) / weights.sum()


def _reference_move(positions, leaders, weights, wa, ww, rng):
    a, c = step_coefficients(wa, (positions.shape[0], 3, positions.shape[1]), rng)
    cands = candidate_from_leader(positions[:, None, :], np.stack(leaders), a, c, ww)
    return combine_candidates(cands, weights)


# Hand checks of the reference operations, which the bit-identity tests below
# hold _move to.
class TestStepCoefficients:
    def test_zero_wa_zeroes_a(self):
        a, c = step_coefficients(0.0, 8, np.random.default_rng(0))
        assert np.all(a == 0.0)

    def test_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, c = step_coefficients(1.3, 6, rng)
            assert np.all(np.abs(a) <= 1.3)
            assert np.all((c >= 0.0) & (c <= 2.0))

    def test_draw_order_r1_then_r2_per_coordinate(self):
        a, c = step_coefficients(2.0, 3, np.random.default_rng(7))
        draws = np.random.default_rng(7).random(6)  # r1,r2 interleaved
        assert np.allclose(a, 2.0 * 2.0 * draws[0::2] - 2.0)
        assert np.allclose(c, 2.0 * draws[1::2])


class TestCandidateFromLeader:
    def test_hand_substitution(self):
        cand = candidate_from_leader(
            np.array([10.0]), np.array([5.0]), np.array([0.0]), np.array([1.0]), ww=1.0)
        assert cand[0] == pytest.approx(5.0)

    def test_zero_displacement_fixed_point(self):
        pos = np.array([2.0, -3.0])
        cand = candidate_from_leader(pos, pos, np.array([9.0, -9.0]), np.ones(2), ww=1.0)
        assert np.allclose(cand, pos)

    def test_pure_inertia_scaling(self):
        cand = candidate_from_leader(
            np.array([0.3]), np.array([1.0]), np.array([0.0]), np.array([1.0]), ww=2.33662)
        assert cand[0] == pytest.approx(2.33662)


class TestCombineCandidates:
    def test_identical_candidates(self):
        v = np.array([1.0, -2.0])
        out = combine_candidates([v, v, v], [0.5, 1.5, 2.0])
        assert np.allclose(out, v)

    def test_equal_weights_mean(self):
        out = combine_candidates([[0.0], [3.0], [6.0]], [1.0, 1.0, 1.0])
        assert out[0] == pytest.approx(3.0)

    def test_weighted_mean(self):
        out = combine_candidates([[0.0], [3.0], [6.0]], [2.0, 1.0, 1.0])
        assert out[0] == pytest.approx(2.25)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestMove:
    # "abs" names the displacement the move uses: |C*Xp - X|.
    @pytest.mark.parametrize("dim,n", [
        pytest.param(dim, n, id=f"abs-{dim}-{n}")
        for dim, n in ((1, 3), (30, 40), (241, 100), (1000, 40), (1000, 100))
    ])
    def test_bit_identical_to_reference(self, dim, n):
        setup = np.random.default_rng(dim * n)
        positions = setup.uniform(-5.0, 5.0, (n, dim))
        leaders = [setup.uniform(-5.0, 5.0, dim) for _ in range(3)]
        for wa, ww, weights in ((1.7, 1.0, [1.0, 1.0, 1.0]), (0.3, 0.81, [1.46, 0.2, 2.9])):
            weights = np.array(weights)
            moved = optimizer._move(positions, leaders, weights, wa, ww,
                                    np.random.default_rng(5))
            expected = _reference_move(positions, leaders, weights, wa, ww,
                                       np.random.default_rng(5))
            assert np.array_equal(_bits(moved), _bits(expected))

    def test_bit_identical_to_reference_above_2_pow_1023(self):
        # 2*L overflows for these leaders, so a move that formed C*L as
        # r2*(2*L) would turn finite candidates into inf; (2*r2)*L does not.
        setup = np.random.default_rng(7)
        positions = setup.uniform(0.0, 1.7e308, (40, 30))
        leaders = [setup.uniform(2.0 ** 1023, 1.7e308, 30) for _ in range(3)]
        finite = 0
        for wa, ww, weights in ((1.7, 1.0, [1.0, 1.0, 1.0]), (0.3, 0.81, [0.3, 0.2, 0.3])):
            weights = np.array(weights)
            with np.errstate(over="ignore", invalid="ignore"):
                moved = optimizer._move(positions, leaders, weights, wa, ww,
                                        np.random.default_rng(5))
                expected = _reference_move(positions, leaders, weights, wa, ww,
                                           np.random.default_rng(5))
            assert np.array_equal(_bits(moved), _bits(expected))
            finite += np.isfinite(expected).sum()
        assert finite > 0

    def test_sum_starts_from_zero(self):
        # Where all three candidates are -0.0, a sum that starts from +0.0, as
        # numpy's does, gives +0.0; one that starts from the first candidate
        # keeps -0.0.
        positions, leaders = np.zeros((20, 10)), [np.full(10, -0.0)] * 3
        a, c = step_coefficients(0.5, (20, 3, 10), np.random.default_rng(0))
        cands = candidate_from_leader(positions[:, None, :], np.stack(leaders), a, c, 1.0)
        assert np.signbit(cands).all(axis=1).any()
        moved = optimizer._move(positions, leaders, np.ones(3), 0.5, 1.0,
                                np.random.default_rng(0))
        assert not np.signbit(moved).any()

    def test_zero_wa_gives_weighted_mean_of_scaled_leaders(self):
        # A = 0, so each candidate is ww * leader whatever the draws and the wolf.
        positions = np.array([[10.0, -4.0], [0.5, 7.0]])
        leaders = [np.array([0.0, 2.0]), np.array([3.0, 2.0]), np.array([6.0, 2.0])]
        moved = optimizer._move(positions, leaders, np.array([2.0, 1.0, 1.0]), 0.0, 1.5,
                                np.random.default_rng(3))
        # (2*0 + 1*4.5 + 1*9) / 4 = 3.375 and (2*3 + 3 + 3) / 4 = 3.
        assert moved.tolist() == [[3.375, 3.0], [3.375, 3.0]]

    def test_draws_one_block(self):
        rng = np.random.default_rng(9)
        optimizer._move(np.zeros((4, 5)), [np.ones(5)] * 3, np.ones(3), 1.0, 1.0, rng)
        expected = np.random.default_rng(9)
        expected.random((4, 3, 5, 2))
        assert rng.random() == expected.random()

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]],
                             ids=["zero", "mixed-sign"])
    def test_rejects_nonpositive_weight_sum(self, weights):
        with pytest.raises(LupusError, match="non-positive leader weight sum"):
            optimizer._move(np.zeros((3, 2)), [np.ones(2)] * 3, np.array(weights), 1.0, 1.0,
                            np.random.default_rng(0))


class TestClamp:
    @pytest.mark.parametrize("value,expected", [(150.0, 100.0), (-150.0, -100.0), (37.5, 37.5)])
    def test_examples(self, value, expected):
        space = SearchSpace(1, -100.0, 100.0)
        assert clamp(np.array([value]), space)[0] == expected

    @pytest.mark.parametrize("lower,upper", [(-3.0, 5.0), (0.0, 1.0), (-1.0, -0.0),
                                             (-8e307, 8e307)])
    def test_overwrites_its_argument_bit_for_bit_as_np_clip(self, lower, upper):
        values = np.array([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
                           -5e-324, 0.5, -0.5, lower, upper, 4.0, -2.5, 1e300, -1e300])
        expected = np.clip(values, lower, upper)
        pos = values.copy()
        assert clamp(pos, SearchSpace(len(values), lower, upper)) is pos
        assert np.array_equal(_bits(pos), _bits(expected))

    @given(st.lists(st.floats(allow_nan=False, min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=8))
    def test_always_inside(self, values):
        space = SearchSpace(len(values), -3.0, 5.0)
        out = clamp(np.array(values), space)
        assert np.all(out >= -3.0) and np.all(out <= 5.0)


def _reference_run(objective, space, cfg, weights_seen=None):
    """Rebuild run() step by step from the reference movement operations.

    Serves as the documented-draw-order oracle: one shared stream, init
    first, then per iteration objective calls in agent order, each on a
    one-row slice of the swarm, followed by per-agent, per-leader step
    coefficients. Each iteration's leader weights are appended to
    ``weights_seen`` when it is given.
    """
    rng = np.random.default_rng(cfg.seed)
    state = SimpleNamespace(
        positions=rng.uniform(space.lower, space.upper, size=(cfg.n_agents, space.dim)),
        fitness=np.full(cfg.n_agents, math.inf),
        alpha_pos=np.zeros(space.dim), beta_pos=np.zeros(space.dim),
        delta_pos=np.zeros(space.dim),
        alpha_score=math.inf, beta_score=math.inf, delta_score=math.inf)
    n = cfg.n_agents
    use_curve = cfg.variant in ("cgwo", "acgwo")
    use_weights = cfg.variant in ("agwo", "acgwo")
    ww0 = 1.0
    if use_curve:
        ww0 = curves.cauchy_inertia(0, cfg.max_iter, cfg.inertia)
    history = []
    for it in range(cfg.max_iter):
        for i in range(n):
            value = float(objective(state.positions[i:i + 1], rng)[0])
            state.fitness[i] = math.inf if math.isnan(value) else value
        for i in range(n):
            f = state.fitness[i]
            if f < state.alpha_score:
                state.delta_score, state.delta_pos = state.beta_score, state.beta_pos
                state.beta_score, state.beta_pos = state.alpha_score, state.alpha_pos
                state.alpha_score, state.alpha_pos = f, state.positions[i].copy()
            elif f < state.beta_score:
                state.delta_score, state.delta_pos = state.beta_score, state.beta_pos
                state.beta_score, state.beta_pos = f, state.positions[i].copy()
            elif f < state.delta_score:
                state.delta_score, state.delta_pos = f, state.positions[i].copy()
        f_avg = float(state.fitness.mean())
        wa = control_wa(it, cfg.max_iter)
        ww = curves.cauchy_inertia(it, cfg.max_iter, cfg.inertia) / ww0 if use_curve else 1.0
        if use_weights:
            weights = [
                curves.leader_weight(state.alpha_score, f_avg, cfg.leader),
                curves.leader_weight(state.beta_score, f_avg, cfg.leader),
                curves.leader_weight(state.delta_score, f_avg, cfg.leader),
            ]
        else:
            weights = [1.0, 1.0, 1.0]
        if weights_seen is not None:
            weights_seen.append(weights)
        new_positions = np.empty_like(state.positions)
        for i in range(n):
            cands = []
            for leader in (state.alpha_pos, state.beta_pos, state.delta_pos):
                a, c = step_coefficients(wa, space.dim, rng)
                cands.append(candidate_from_leader(state.positions[i], leader, a, c, ww))
            new_positions[i] = clamp(combine_candidates(cands, weights), space)
        state.positions = new_positions
        history.append(state.alpha_score)
    return state.alpha_pos, np.array(history)


class TestRun:
    # The "-raw-inertia" cases give run a caller's raw inertia curve whose
    # iteration-0 value is not the default's, as ``--inertia`` does; run
    # divides it by that value. gwo and agwo must ignore it.
    @pytest.mark.parametrize("variant,inertia", [
        pytest.param(variant, inertia, id=variant + suffix)
        for suffix, inertia in (("", curves.INERTIA_DEFAULTS),
                                ("-raw-inertia", curves.CurveParams(0.5, 0.3, 1.0, 0.4)))
        for variant in VARIANTS
    ])
    def test_matches_operation_composition(self, variant, inertia):
        space = SearchSpace(3, -10.0, 10.0)
        cfg = GwoConfig(variant=variant, n_agents=4, max_iter=5, seed=123, inertia=inertia)
        result = run(sphere_objective, space, cfg)
        ref_pos, ref_history = _reference_run(sphere_objective, space, cfg)
        assert np.array_equal(result.best_position, ref_pos)
        assert np.array_equal(result.history, ref_history)

    # "abs-norm" names the fixed movement rule: absolute displacement and
    # the inertia curve normalized by its iteration-0 value.
    @pytest.mark.parametrize("dim,n", [
        pytest.param(dim, n, id=f"abs-norm-{dim}-{n}")
        for dim, n in ((1, 3), (30, 40), (241, 100), (1000, 40))
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_identical_to_reference_run(self, variant, dim, n):
        # The optimum sits near the edge of the [-1, 1] box, so the clamp
        # binds, and scores near the population mean keep the three adaptive
        # weights apart.
        def objective(X, rng):
            return 1.0 + np.mean((X - 0.95) ** 2, axis=1)

        space = SearchSpace(dim, -1.0, 1.0)
        cfg = GwoConfig(variant=variant, n_agents=n, max_iter=6, seed=dim + n)
        seen, ref_seen, weights = [], [], []
        result = run(recording(seen, objective), space, cfg)
        ref_pos, ref_history = _reference_run(recording(ref_seen, objective), space, cfg,
                                              weights)
        assert np.array_equal(_bits(np.concatenate(seen)), _bits(np.concatenate(ref_seen)))
        assert np.array_equal(_bits(result.best_position), _bits(ref_pos))
        assert np.array_equal(_bits(result.history), _bits(ref_history))
        assert (np.abs(np.stack(seen)) == 1.0).any()
        if variant in ("agwo", "acgwo"):
            assert np.ptp(weights, axis=1).max() > 1e-3

    def test_deterministic(self):
        space = SearchSpace(2, -5.0, 5.0)
        cfg = GwoConfig(variant="acgwo", n_agents=10, max_iter=50, seed=7)
        a = run(sphere_objective, space, cfg)
        b = run(sphere_objective, space, cfg)
        assert np.array_equal(a.best_position, b.best_position)
        assert np.array_equal(a.history, b.history)

    def test_history_non_increasing_and_improves(self):
        space = SearchSpace(2, -100.0, 100.0)
        cfg = GwoConfig(variant="acgwo", n_agents=10, max_iter=50, seed=7)
        result = run(sphere_objective, space, cfg)
        assert np.all(np.diff(result.history) <= 0)
        assert result.history[-1] < result.history[0]

    @pytest.mark.parametrize("variant", ["gwo", "acgwo"])
    def test_positions_stay_in_bounds(self, variant):
        seen = []
        space = SearchSpace(3, -2.0, 2.0)
        run(recording(seen), space, GwoConfig(variant=variant, n_agents=5, max_iter=30, seed=11))
        stacked = np.stack(seen)
        assert np.all(stacked >= -2.0) and np.all(stacked <= 2.0)

    def test_leader_ordering_invariant(self):
        # replay the leader cascade over the run and check the ordering
        space = SearchSpace(2, -5.0, 5.0)
        cfg = GwoConfig(variant="gwo", n_agents=5, max_iter=15, seed=2)
        rng = np.random.default_rng(cfg.seed)
        positions = rng.uniform(space.lower, space.upper, size=(cfg.n_agents, space.dim))
        scores, leaders = [math.inf] * 3, [np.zeros(space.dim)] * 3
        for _ in range(cfg.max_iter):
            fitness = optimizer._evaluate(sphere_objective, positions, rng)
            optimizer._update_leaders(fitness, positions, scores, leaders)
            assert scores[0] <= scores[1] <= scores[2]
            wa = 1.0
            draws = rng.random((cfg.n_agents, 3, space.dim, 2))
            a = 2 * wa * draws[..., 0] - wa
            c = 2 * draws[..., 1]
            stacked = np.stack(leaders)
            disp = np.abs(c * stacked[None] - positions[:, None, :])
            positions = clamp((stacked[None] - a * disp).mean(axis=1), space)

    def test_nan_fitness_never_leads(self):
        def sometimes_nan(X, rng):
            return np.where(X[:, 0] > 0, math.nan, sphere(X, rng))

        space = SearchSpace(2, -1.0, 1.0)
        result = run(sometimes_nan, space, GwoConfig(variant="gwo", n_agents=6, max_iter=10, seed=5))
        assert math.isfinite(result.history[-1])

    def test_stochastic_objective_draws_in_agent_order(self):
        f5 = get_function("f5")
        space = SearchSpace(3, f5.lower, f5.upper)
        cfg = GwoConfig(variant="acgwo", n_agents=5, max_iter=8, seed=21)
        a = run(f5, space, cfg)
        b = run(f5, space, cfg)
        assert np.array_equal(a.history, b.history)

    def test_gwo_ww_is_one(self):
        # cgwo with a curve that is constant 1 must equal plain gwo
        flat = curves.CurveParams(a=1.0, b=0.0, c=0.0, d=1.0)
        space = SearchSpace(2, -5.0, 5.0)
        base = dict(n_agents=5, max_iter=12, seed=9, inertia=flat)
        a = run(sphere_objective, space, GwoConfig(variant="gwo", **base))
        b = run(sphere_objective, space, GwoConfig(variant="cgwo", **base))
        assert np.array_equal(a.history, b.history)

    def test_raw_inertia_mode_runs(self):
        # Read raw, the default curve stays above 2, an expansion away from
        # the leaders on every step; run divides it by its iteration-0 value,
        # so acgwo still closes in on the optimum.
        space = SearchSpace(2, -5.0, 5.0)
        cfg = GwoConfig(variant="acgwo", n_agents=5, max_iter=10, seed=3)
        raw = [curves.cauchy_inertia(it, cfg.max_iter, cfg.inertia) for it in range(10)]
        assert min(raw) > 2.0
        result = run(sphere_objective, space, cfg)
        assert np.all(np.diff(result.history) <= 0)
        assert result.history[-1] < result.history[0]


# Fitness rows with ties, repeated values and +inf, one row per iteration. The
# third row makes the last agent alpha, so its position (run's best_position)
# depends on where the second row's leaders moved the swarm.
_TIED_FITNESS = [[3.0, 1.0, 1.0, 2.0, math.inf, 1.0],
                 [1.0, 0.5, 1.0, 0.5, math.inf, 0.0],
                 [5.0, 5.0, 5.0, 5.0, 5.0, -1.0]]


class TestUpdateLeaders:
    def test_ties_repeats_and_inf(self):
        # An agent must strictly beat a rank to take it, so on a tie the
        # earlier agent keeps the higher rank; +inf never enters.
        positions = np.arange(6.0)[:, None] * np.ones((6, 2))
        scores, leaders = [math.inf] * 3, [np.zeros(2)] * 3
        optimizer._update_leaders(np.array(_TIED_FITNESS[0]), positions, scores, leaders)
        assert scores == [1.0, 1.0, 1.0]
        assert [leader[0] for leader in leaders] == [1.0, 2.0, 5.0]
        moved = positions + 10.0
        optimizer._update_leaders(np.array(_TIED_FITNESS[1]), moved, scores, leaders)
        assert scores == [0.0, 0.5, 0.5]
        assert [leader[0] for leader in leaders] == [15.0, 11.0, 13.0]
        moved[5] = -1.0  # the leaders are copies, not views
        assert leaders[0][0] == 15.0

    @pytest.mark.parametrize("variant", ["gwo", "acgwo"])
    def test_matches_reference_cascade_on_ties(self, variant):
        def replay():
            values = iter(v for row in _TIED_FITNESS for v in row)
            return lambda X, rng: np.array([next(values) for _ in X])

        space = SearchSpace(2, -3.0, 3.0)
        cfg = GwoConfig(variant=variant, n_agents=6, max_iter=len(_TIED_FITNESS), seed=4)
        result = run(replay(), space, cfg)
        ref_pos, ref_history = _reference_run(replay(), space, cfg)
        assert result.history.tolist() == [1.0, 0.0, -1.0]
        assert result.best_position.tobytes() == ref_pos.tobytes()
        assert result.history.tobytes() == ref_history.tobytes()


def _reference_pso_run(objective, space, cfg):
    """pso_run() with its velocity update written as one expression.

    The coefficients are the published ones: pulls of 2, inertia falling
    linearly from 0.9 to 0.4, velocities clamped to 0.2 of the range.
    """
    n, dim = cfg.n_agents, space.dim
    rng = np.random.default_rng(cfg.seed)
    positions = rng.uniform(space.lower, space.upper, size=(n, dim))
    velocities = np.zeros((n, dim))
    v_max = 0.2 * (space.upper - space.lower)
    pbest, pbest_f = positions.copy(), np.full(n, math.inf)
    gbest, gbest_f = np.zeros(dim), math.inf
    history = []
    for it in range(cfg.max_iter):
        fitness = optimizer._evaluate(objective, positions, rng)
        improved = fitness < pbest_f
        pbest[improved] = positions[improved]
        pbest_f[improved] = fitness[improved]
        best = int(np.argmin(pbest_f))
        if pbest_f[best] < gbest_f:
            gbest_f, gbest = float(pbest_f[best]), pbest[best].copy()
        history.append(gbest_f)
        w = 0.9 - (0.9 - 0.4) * it / cfg.max_iter
        draws = rng.random((n, dim, 2))
        velocities = (
            w * velocities
            + 2.0 * draws[..., 0] * (pbest - positions)
            + 2.0 * draws[..., 1] * (gbest[None, :] - positions)
        )
        velocities = np.clip(velocities, -v_max, v_max)
        positions = clamp(positions + velocities, space)
    return gbest, np.array(history)


class TestPso:
    @pytest.mark.parametrize("dim,n", [(1, 3), (30, 40), (241, 100), (1000, 40)])
    def test_bit_identical_to_reference(self, dim, n):
        # The optimum sits near the edge of the [-1, 1] box, so both the
        # velocity clamp and the position clamp bind.
        def objective(X, rng):
            return sphere(X - 0.95, rng)

        space = SearchSpace(dim, -1.0, 1.0)
        cfg = PsoConfig(n_agents=n, max_iter=8, seed=dim + n)
        seen, ref_seen = [], []
        result = pso_run(recording(seen, objective), space, cfg)
        ref_pos, ref_history = _reference_pso_run(recording(ref_seen, objective), space, cfg)
        assert np.array_equal(_bits(seen), _bits(ref_seen))
        assert np.array_equal(_bits(result.best_position), _bits(ref_pos))
        assert np.array_equal(_bits(result.history), _bits(ref_history))
        assert (np.abs(np.stack(seen)) == 1.0).any()

    def test_improves_from_random_init(self):
        space = SearchSpace(2, -100.0, 100.0)
        cfg = PsoConfig(n_agents=40, max_iter=200, seed=0)
        result = pso_run(sphere_objective, space, cfg)
        assert result.history[-1] < result.history[0]
        assert np.all(np.diff(result.history) <= 0)

    def test_deterministic(self):
        space = SearchSpace(3, -10.0, 10.0)
        cfg = PsoConfig(n_agents=12, max_iter=40, seed=17)
        a = pso_run(sphere_objective, space, cfg)
        b = pso_run(sphere_objective, space, cfg)
        assert np.array_equal(a.best_position, b.best_position)
        assert np.array_equal(a.history, b.history)

    def test_positions_stay_in_bounds(self):
        seen = []
        space = SearchSpace(2, -1.0, 3.0)
        pso_run(recording(seen), space, PsoConfig(n_agents=8, max_iter=25, seed=4))
        stacked = np.stack(seen)
        assert np.all(stacked >= -1.0) and np.all(stacked <= 3.0)


class TestBatchedObjective:
    @pytest.mark.parametrize("fn_id", sorted(REGISTRY))
    @pytest.mark.parametrize("algorithm", VARIANTS + ("pso",))
    def test_benchmark_fn_matches_per_row_path(self, algorithm, fn_id):
        bf = get_function(fn_id)
        space = SearchSpace(4, bf.lower, bf.upper)

        def run_with(objective):
            if algorithm == "pso":
                return pso_run(objective, space, PsoConfig(n_agents=8, max_iter=20, seed=13))
            cfg = GwoConfig(variant=algorithm, n_agents=8, max_iter=20, seed=13)
            return run(objective, space, cfg)

        batched = run_with(bf)
        per_row = run_with(lambda X, rng: np.concatenate([bf(x[None], rng) for x in X]))
        assert batched.best_position.tobytes() == per_row.best_position.tobytes()
        assert batched.history.tobytes() == per_row.history.tobytes()

    def test_mlp_loss_matches_per_row_path(self):
        # 208 rows at 13-16-1 give chunks of 9 agents, so 20 agents take two
        # full chunks and a partial one.
        arch = mlp.MlpArchitecture((13, 16, 1))
        rng = np.random.default_rng(8)
        X = rng.normal(size=(208, 13))
        y = rng.integers(0, 2, 208).astype(float)
        cfg = GwoConfig(variant="acgwo", n_agents=20, max_iter=12, seed=21)
        params, history = mlp.train(arch, X, y, cfg, (-5.0, 5.0), 0, 0.1, 0)
        per_row = run(lambda P, rng: np.array([mlp.bce_loss(arch, v, X, y) for v in P]),
                      SearchSpace(arch.n_params, -5.0, 5.0), cfg)
        assert params.tobytes() == per_row.best_position.tobytes()
        assert history.tobytes() == per_row.history.tobytes()

    def test_nan_ranks_as_inf(self):
        def objective(X, rng):
            return np.where(X[:, 0] > 0, math.nan, X[:, 0])

        positions = np.array([[1.0], [-1.0], [2.0]])
        fitness = optimizer._evaluate(objective, positions, None)
        assert fitness.tolist() == [math.inf, -1.0, math.inf]
        space = SearchSpace(2, -1.0, 1.0)
        result = run(objective, space, GwoConfig(variant="gwo", n_agents=6, max_iter=10, seed=5))
        assert math.isfinite(result.history[-1])

    @pytest.mark.parametrize("wrong", [lambda X: X, lambda X: X.sum(), lambda X: X[1:, 0]])
    def test_wrong_shape_raises(self, wrong):
        positions = np.zeros((4, 3))
        with pytest.raises(LupusError, match=r"expected \(4,\)"):
            optimizer._evaluate(lambda X, rng: wrong(X), positions, None)
