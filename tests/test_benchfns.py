import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lupus import benchfns
from lupus.benchfns import (
    get_function,
    quadric_noise,
    rastrigin,
    rosenbrock,
    schaffer,
    schwefel_p221,
    schwefel_p222,
    sphere,
)
from lupus.errors import ConfigError


class _ZeroRng:
    """Stub stream forcing the additive noise term to zero."""

    def random(self, size):
        return np.zeros(size)


def _one(f, point, rng=None):
    """``f`` at one point, through a one-row stack."""
    return float(f(np.array([point], dtype=float), rng)[0])


vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=12
)


class TestSphere:
    def test_optimum(self):
        assert _one(sphere, np.zeros(30)) == 0.0

    def test_hand_value(self):
        assert _one(sphere, [1.0, 2.0, 3.0]) == pytest.approx(14.0)

    @given(x=vectors)
    def test_even_symmetry(self, x):
        values = sphere(np.array([x, [-v for v in x]]), None)
        assert values[0] == pytest.approx(values[1], rel=1e-12)


class TestSchwefelP221:
    def test_optimum(self):
        assert _one(schwefel_p221, np.zeros(5)) == 0.0

    def test_hand_value(self):
        assert _one(schwefel_p221, [1.0, -5.0, 3.0]) == pytest.approx(5.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schwefel_p221(np.zeros((1, 0)), None)

    @given(x=vectors)
    def test_non_negative(self, x):
        assert _one(schwefel_p221, x) >= 0.0


class TestSchwefelP222:
    def test_optimum(self):
        assert _one(schwefel_p222, np.zeros(5)) == 0.0

    def test_hand_value(self):
        assert _one(schwefel_p222, [1.0, -2.0, 3.0]) == pytest.approx(12.0)

    @given(x=vectors)
    def test_zero_coordinate_kills_product(self, x):
        x = list(x) + [0.0]
        assert _one(schwefel_p222, x) == pytest.approx(sum(abs(v) for v in x), rel=1e-12)


class TestRosenbrock:
    def test_optimum_at_ones(self):
        assert _one(rosenbrock, np.ones(7)) == 0.0

    def test_hand_value(self):
        assert _one(rosenbrock, [0.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_scalar_dim(self):
        with pytest.raises(ValueError):
            rosenbrock(np.ones((1, 1)), None)

    @given(x=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                      min_size=2, max_size=12))
    def test_non_negative(self, x):
        assert _one(rosenbrock, x) >= 0.0


class TestQuadricNoise:
    def test_optimum_with_zero_noise(self):
        assert _one(quadric_noise, np.zeros(4), _ZeroRng()) == 0.0

    def test_hand_value_with_zero_noise(self):
        assert _one(quadric_noise, [1.0, 1.0], _ZeroRng()) == pytest.approx(3.0)

    def test_even_symmetry_of_deterministic_part(self):
        x = np.array([[0.3, -0.7, 1.1], [-0.3, 0.7, -1.1]])
        values = quadric_noise(x, _ZeroRng())
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_draws_once_per_evaluation(self):
        rng, expected = np.random.default_rng(3), np.random.default_rng(3)
        assert _one(quadric_noise, np.zeros(2), rng) == expected.random()
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_stack_draws_the_per_row_stream(self):
        X = np.random.default_rng(0).uniform(-1.28, 1.28, size=(7, 4))
        batched, per_row = np.random.default_rng(3), np.random.default_rng(3)
        values = quadric_noise(X, batched)
        expected = [_one(quadric_noise, x, per_row) for x in X]
        assert np.array_equal(values, expected)
        assert batched.bit_generator.state == per_row.bit_generator.state


class TestSchaffer:
    def test_optimum(self):
        assert _one(schaffer, np.zeros(30)) == 0.0

    def test_hand_value(self):
        # sin(sqrt(s)) = 1 at sqrt(s) = pi/2
        assert _one(schaffer, [math.pi / 2.0]) == pytest.approx(0.9975417, abs=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schaffer(np.zeros((1, 0)), None)

    @given(x=vectors)
    def test_rotation_invariance(self, x):
        # depends only on the squared norm
        s = math.sqrt(sum(v * v for v in x))
        assert _one(schaffer, x) == pytest.approx(_one(schaffer, [s]), rel=1e-12, abs=1e-12)

    @given(x=vectors)
    def test_non_negative(self, x):
        assert _one(schaffer, x) >= 0.0


class TestRegistry:
    def test_table_rows(self):
        expected = {
            "f1": ("Sphere", -100.0, 100.0),
            "f2": ("Schwefel P2.21", -100.0, 100.0),
            "f3": ("Schwefel P2.22", -10.0, 10.0),
            "f4": ("Rosenbrock", -10.0, 10.0),
            "f5": ("Quadric Noise", -1.28, 1.28),
            "f6": ("Schaffer", -100.0, 100.0),
        }
        for fn_id, row in expected.items():
            bf = get_function(fn_id)
            assert (bf.name, bf.lower, bf.upper) == row

    def test_rastrigin_side_registration(self):
        bf = get_function("f5r")
        assert bf.lower == -5.12 and bf.upper == 5.12
        assert _one(rastrigin, np.zeros(30)) == 0.0
        assert _one(rastrigin, [1.0]) == pytest.approx(1.0)

    def test_unknown_id_names_it(self):
        with pytest.raises(ConfigError, match="f99"):
            get_function("f99")

    def test_deterministic_ignores_rng(self):
        bf = get_function("f1")
        assert _one(bf, [1.0, 2.0, 3.0], np.random.default_rng(0)) == pytest.approx(14.0)

    def test_deterministic_functions_repeatable(self):
        rng = np.random.default_rng(11)
        for fn_id in ("f1", "f2", "f3", "f4", "f6"):
            bf = get_function(fn_id)
            X = rng.uniform(bf.lower, bf.upper, size=(4, 8))
            assert np.array_equal(bf(X, None), bf(X, None))

    def test_all_non_negative_inside_ranges(self):
        rng = np.random.default_rng(7)
        for bf in benchfns.REGISTRY.values():
            X = rng.uniform(bf.lower, bf.upper, size=(50, 6))
            assert np.all(bf(X, rng) >= 0.0)


def _with_bound_rows(bf, X):
    """Rows at the lower and upper bound, alternating bounds, and the origin."""
    X[0], X[1], X[2] = bf.lower, bf.upper, 0.0
    X[3, ::2], X[3, 1::2] = bf.lower, bf.upper
    return X


class TestBatched:
    @pytest.mark.parametrize("dim", [2, 30, 1000])
    @pytest.mark.parametrize("fn_id", sorted(benchfns.REGISTRY))
    def test_stack_equals_per_row_bit_for_bit(self, fn_id, dim):
        bf = get_function(fn_id)
        # Rows shrink from the full box to 1e-3 of it; at dim 2 there are
        # enough of them that a last-bit difference in 0.1% of values shows.
        n = max(1000, 20000 // dim)
        X = np.random.default_rng(dim).uniform(bf.lower, bf.upper, size=(n, dim))
        X = _with_bound_rows(bf, X * np.logspace(0, -3, n)[:, None])
        per_row_rng = np.random.default_rng(5)
        with np.errstate(over="ignore"):  # f3's product is inf on the bound rows
            values = bf(X, np.random.default_rng(5))
            rows = np.concatenate([bf(X[i:i + 1], per_row_rng) for i in range(n)])
        assert values.shape == (n,)
        assert np.array_equal(values.view(np.int64), rows.view(np.int64))
