"""Benchmark objectives: six box-bounded test functions plus one extra.

All are minimization problems with optimum value 0. Each function reduces
over the last axis of its input: a 1-D point gives a Python float, and an
``(n, dim)`` stack of points gives the ``(n,)`` array of their values, equal
bit for bit to evaluating the rows one at a time. Only the quartic-noise
function is stochastic; it draws a single uniform per evaluated point, in row
order, from an explicitly passed RNG stream so runs stay reproducible.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

ROSENBROCK_MIN_DIM = 2


def _result(values):
    """A Python float for one point, the array of values for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def sphere(x):
    x = np.asarray(x, dtype=float)
    return _result(np.square(x).sum(axis=-1))


def schwefel_p221(x):
    """Max of absolute coordinates."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("schwefel_p221 requires a non-empty vector")
    return _result(np.abs(x).max(axis=-1))


def schwefel_p222(x):
    """Sum of absolute coordinates plus their product."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return _result(ax.sum(axis=-1) + ax.prod(axis=-1))


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < ROSENBROCK_MIN_DIM:
        raise ValueError(f"rosenbrock requires dim >= {ROSENBROCK_MIN_DIM}")
    head, tail = x[..., :-1], x[..., 1:]
    return _result((100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2).sum(axis=-1))


def quadric_noise(x, rng: np.random.Generator):
    """Index-weighted quartic sum plus one U[0,1) draw per evaluated point."""
    x = np.asarray(x, dtype=float)
    coeffs = np.arange(1, x.shape[-1] + 1, dtype=float)
    # n scalar draws and one draw of n values consume the same stream.
    noise = rng.random() if x.ndim == 1 else rng.random(x.shape[:-1])
    return _result((coeffs * x ** 4).sum(axis=-1) + noise)


def schaffer(x):
    """Schaffer ridge function generalized through the squared norm.

    Defined via s = sum(x^2) so it scales to any dimension.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        raise ValueError("schaffer requires a non-empty vector")
    s = np.square(x).sum(axis=-1)
    # ** 2 is the C library's pow() on a NumPy scalar but x*x on an array, and
    # the two differ in the last bit for about 0.1% of inputs; float_power is
    # pow() on both, so a point and a stack agree.
    return _result(
        0.5 + (np.float_power(np.sin(np.sqrt(s)), 2) - 0.5)
        / np.float_power(1.0 + 0.001 * s, 2)
    )


def rastrigin(x):
    x = np.asarray(x, dtype=float)
    return _result(
        10.0 * x.shape[-1] + (x ** 2 - 10.0 * np.cos(2.0 * math.pi * x)).sum(axis=-1)
    )


@dataclass(frozen=True)
class BenchmarkFn:
    """A named objective with uniform per-coordinate bounds.

    ``min_dim`` is the smallest dimension the objective is defined for.
    """

    id: str
    name: str
    fn: Callable
    lower: float
    upper: float
    stochastic: bool = False
    min_dim: int = 1

    def __call__(self, x, rng: Optional[np.random.Generator] = None):
        if self.stochastic:
            if rng is None:
                raise ValueError(f"{self.id} is stochastic and requires an RNG stream")
            return self.fn(x, rng)
        return self.fn(x)


REGISTRY = {
    f.id: f
    for f in (
        BenchmarkFn("f1", "Sphere", sphere, -100.0, 100.0),
        BenchmarkFn("f2", "Schwefel P2.21", schwefel_p221, -100.0, 100.0),
        BenchmarkFn("f3", "Schwefel P2.22", schwefel_p222, -10.0, 10.0),
        BenchmarkFn("f4", "Rosenbrock", rosenbrock, -10.0, 10.0,
                    min_dim=ROSENBROCK_MIN_DIM),
        BenchmarkFn("f5", "Quadric Noise", quadric_noise, -1.28, 1.28, stochastic=True),
        BenchmarkFn("f6", "Schaffer", schaffer, -100.0, 100.0),
        # Side registration: dimension-scalable Rastrigin for experiments.
        BenchmarkFn("f5r", "Rastrigin", rastrigin, -5.12, 5.12),
    )
}


def get_function(fn_id: str) -> BenchmarkFn:
    try:
        return REGISTRY[fn_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown benchmark function id {fn_id!r} (known: {known})") from None
