"""Grey-wolf style swarm optimizers with adaptive curve schedules, a
benchmark harness, and a swarm-trained neural classifier pipeline."""

__version__ = "0.1.0"

from .curves import (
    CurveParams,
    INERTIA_DEFAULTS,
    LEADER_WEIGHT_DEFAULTS,
    cauchy_inertia,
    cauchy_pdf,
    leader_weight,
)
from .errors import ConfigError, DataError, LupusError
from .optimizer import (
    GwoConfig,
    PsoConfig,
    RunResult,
    SearchSpace,
    pso_run,
    run,
)

__all__ = [
    "CurveParams",
    "INERTIA_DEFAULTS",
    "LEADER_WEIGHT_DEFAULTS",
    "cauchy_inertia",
    "cauchy_pdf",
    "leader_weight",
    "ConfigError",
    "DataError",
    "LupusError",
    "GwoConfig",
    "PsoConfig",
    "RunResult",
    "SearchSpace",
    "pso_run",
    "run",
    "__version__",
]
