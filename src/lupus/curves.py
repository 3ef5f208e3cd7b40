"""Scalar schedule and weighting curves used across the optimizer family.

Everything here is a pure function of its arguments; safe to call from any
number of concurrent contexts.
"""

import math
from dataclasses import dataclass

# |population average| below which the score/average ratio is treated as 1:
# at full convergence all three leaders are equivalent, so they share one
# weight instead of dividing by ~0.
DEGENERATE_AVG_EPS = 1e-12


def cauchy_pdf(x: float, x0: float, gamma: float) -> float:
    """Cauchy probability density with location ``x0`` and scale ``gamma``.

    Strictly positive everywhere; peaks at ``x = x0`` with value
    ``1/(pi*gamma)``.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    try:
        return (gamma / math.pi) / (gamma * gamma + (x - x0) ** 2)
    except OverflowError:  # (x - x0) ** 2 beyond the float range; IEEE gives 0
        return 0.0
    except ZeroDivisionError:  # gamma * gamma underflows to 0 at the peak
        return math.inf


@dataclass(frozen=True)
class CurveParams:
    """Four-parameter bump curve family: ``cauchy_pdf(r, b, a) * c + d``.

    ``a`` is the scale (must be strictly positive so the denominator never
    vanishes), ``b`` shifts the peak location, ``c`` scales vertically and
    ``d`` offsets vertically. All four must be finite: one NaN or infinity
    makes the weights NaN, and a swarm with NaN weights never moves. So must
    the extremes ``d + c/(pi*a)`` of the inertia curve and ``d - c/(pi*a)``
    of the leader weights: below about 1.6e-162, ``a * a`` underflows to 0
    and :func:`cauchy_pdf` gives inf at the peak, and large ``c`` and ``d``
    overflow.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise ValueError(f"curve parameters must be finite, got {self}")
        if not self.a > 0:
            raise ValueError(f"curve scale a must be > 0, got {self.a}")
        peak = cauchy_pdf(self.b, self.b, self.a)
        if not all(math.isfinite(self.d + sign * self.c * peak) for sign in (1.0, -1.0)):
            raise ValueError(f"curve extremes d +- c/(pi*a) must be finite, got peak "
                             f"density {peak!r} for {self}")


# Default parameter sets: one for the iteration-indexed inertia schedule,
# one for the fitness-indexed leader weights.
INERTIA_DEFAULTS = CurveParams(a=1.0, b=0.0, c=2.0, d=1.7)
LEADER_WEIGHT_DEFAULTS = CurveParams(a=1.0, b=0.0, c=2.0, d=2.1)


def _check_iteration(iteration: int, max_iter: int) -> None:
    """Reject an iteration outside the schedule's [0, max_iter] horizon."""
    if max_iter <= 0:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration must lie in [0, {max_iter}], got {iteration}")


def cauchy_inertia(iteration: int, max_iter: int, p: CurveParams) -> float:
    """Inertia weight from the bump curve evaluated at iteration/max_iter.

    With ``b = 0`` the curve decreases strictly over the run, changing
    slowest near the start and the end.
    """
    _check_iteration(iteration, max_iter)
    return cauchy_pdf(iteration / max_iter, p.b, p.a) * p.c + p.d


def leader_weight(score: float, f_avg: float, p: CurveParams) -> float:
    """Adaptive weight of one leader from its score and the population mean.

    Evaluates ``d - cauchy_pdf(score/f_avg, b, a) * c``. The ratio is
    forced to 1 when ``|f_avg| < DEGENERATE_AVG_EPS`` (or is not a number),
    which collapses all leader weights to a common value. Output lies in
    ``[d - c/(pi*a), d)`` for ``c > 0``; see :func:`leader_weight_floor`.
    """
    if abs(f_avg) < DEGENERATE_AVG_EPS:
        ratio = 1.0
    else:
        ratio = score / f_avg
        if math.isnan(ratio):
            ratio = 1.0
    return p.d - cauchy_pdf(ratio, p.b, p.a) * p.c


def leader_weight_floor(p: CurveParams) -> float:
    """Greatest lower bound of :func:`leader_weight` over every score ratio.

    ``d - c/(pi*a)`` for ``c > 0``, reached where the ratio equals ``b``;
    ``d`` for ``c <= 0``, approached as the ratio grows without bound.
    """
    return p.d - max(p.c, 0.0) / (math.pi * p.a)
