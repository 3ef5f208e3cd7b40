"""Benchmark objectives: six box-bounded test functions plus one extra.

All are minimization problems with optimum value 0. Only the quartic-noise
function is stochastic; it draws a single uniform per evaluation from an
explicitly passed RNG stream so runs stay reproducible.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

ROSENBROCK_MIN_DIM = 2


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.square(x).sum())


def schwefel_p221(x) -> float:
    """Max of absolute coordinates."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("schwefel_p221 requires a non-empty vector")
    return float(np.abs(x).max())


def schwefel_p222(x) -> float:
    """Sum of absolute coordinates plus their product."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return float(ax.sum() + ax.prod())


def rosenbrock(x) -> float:
    x = np.asarray(x, dtype=float)
    if x.size < ROSENBROCK_MIN_DIM:
        raise ValueError(f"rosenbrock requires dim >= {ROSENBROCK_MIN_DIM}")
    return float(
        (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum()
    )


def quadric_noise(x, rng: np.random.Generator) -> float:
    """Index-weighted quartic sum plus one U[0,1) draw per evaluation."""
    x = np.asarray(x, dtype=float)
    coeffs = np.arange(1, x.size + 1, dtype=float)
    return float((coeffs * x ** 4).sum() + rng.random())


def schaffer(x) -> float:
    """Schaffer ridge function generalized through the squared norm.

    Defined via s = sum(x^2) so it scales to any dimension.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("schaffer requires a non-empty vector")
    s = float(np.square(x).sum())
    return 0.5 + (math.sin(math.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


def rastrigin(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + (x ** 2 - 10.0 * np.cos(2.0 * math.pi * x)).sum())


@dataclass(frozen=True)
class BenchmarkFn:
    """A named objective with uniform per-coordinate bounds and known optimum.

    ``min_dim`` is the smallest dimension the objective is defined for.
    """

    id: str
    name: str
    fn: Callable
    lower: float
    upper: float
    optimum_value: float = 0.0
    stochastic: bool = False
    min_dim: int = 1

    def __call__(self, x, rng: Optional[np.random.Generator] = None) -> float:
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
