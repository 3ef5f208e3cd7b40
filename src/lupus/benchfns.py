"""Benchmark objectives: six box-bounded test functions.

All are minimization problems with optimum value 0. Each has the optimizer's
objective signature ``f(X, rng)``: it reduces over the last axis of an
``(n, dim)`` stack of points and returns the ``(n,)`` array of their values,
each equal bit for bit to that row's value in a one-row stack. Only the
quartic-noise function is stochastic; it draws a single uniform per point, in
row order, from the passed RNG stream so runs stay reproducible. The others
ignore ``rng``.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

ROSENBROCK_MIN_DIM = 2


def sphere(x, rng):
    return np.square(x).sum(axis=-1)


def schwefel_p221(x, rng):
    """Max of absolute coordinates."""
    if x.shape[-1] == 0:
        raise ValueError("schwefel_p221 requires a non-empty vector")
    return np.abs(x).max(axis=-1)


def schwefel_p222(x, rng):
    """Sum of absolute coordinates plus their product."""
    ax = np.abs(x)
    return ax.sum(axis=-1) + ax.prod(axis=-1)


def rosenbrock(x, rng):
    if x.shape[-1] < ROSENBROCK_MIN_DIM:
        raise ValueError(f"rosenbrock requires dim >= {ROSENBROCK_MIN_DIM}")
    head, tail = x[..., :-1], x[..., 1:]
    return (100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2).sum(axis=-1)


def quadric_noise(x, rng: np.random.Generator):
    """Index-weighted quartic sum plus one U[0,1) draw per point."""
    coeffs = np.arange(1, x.shape[-1] + 1, dtype=float)
    return (coeffs * x ** 4).sum(axis=-1) + rng.random(x.shape[:-1])


def schaffer(x, rng):
    """Schaffer ridge function generalized through the squared norm.

    Defined via s = sum(x^2) so it scales to any dimension.
    """
    if x.shape[-1] == 0:
        raise ValueError("schaffer requires a non-empty vector")
    s = np.square(x).sum(axis=-1)
    # float_power is the C library's pow(). On an array ** 2 is x*x, which
    # differs from pow() in the last bit for about 0.1% of inputs, and the
    # benchmark witnesses pin pow()'s bytes.
    return (
        0.5 + (np.float_power(np.sin(np.sqrt(s)), 2) - 0.5)
        / np.float_power(1.0 + 0.001 * s, 2)
    )


@dataclass(frozen=True)
class BenchmarkFn:
    """A named objective searched over ``[lower, upper]`` in every coordinate.

    ``min_dim`` is the smallest dimension the objective is defined for.
    """

    id: str
    name: str
    fn: Callable
    lower: float
    upper: float
    min_dim: int = 1

    def __call__(self, x, rng: np.random.Generator):
        return self.fn(x, rng)


REGISTRY = {
    f.id: f
    for f in (
        BenchmarkFn("f1", "Sphere", sphere, -100.0, 100.0),
        BenchmarkFn("f2", "Schwefel P2.21", schwefel_p221, -100.0, 100.0),
        BenchmarkFn("f3", "Schwefel P2.22", schwefel_p222, -10.0, 10.0),
        BenchmarkFn("f4", "Rosenbrock", rosenbrock, -10.0, 10.0,
                    min_dim=ROSENBROCK_MIN_DIM),
        BenchmarkFn("f5", "Quadric Noise", quadric_noise, -1.28, 1.28),
        BenchmarkFn("f6", "Schaffer", schaffer, -100.0, 100.0),
    )
}


def get_function(fn_id: str) -> BenchmarkFn:
    try:
        return REGISTRY[fn_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown benchmark function id {fn_id!r} (known: {known})") from None
