"""Online machine-activation scheduling: an online fractional engine,
online randomized rounding, an exact offline oracle, and an experiment
harness."""

from .doubling import (
    DoublingResult,
    PhaseTrace,
    default_initial_guess,
    run_with_doubling,
)
from .fractional import (
    FractionalState,
    GuessTooSmallError,
    JobFraction,
    StepOutcome,
)
from .instances import (
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    Job,
    Machine,
    generate,
    load_instance,
    save_instance,
)
from .oracle import (
    InfeasibleInstanceError,
    OracleResult,
    OracleTooLargeError,
    optimal_bnb,
    optimal_exhaustive,
)
from .rounding import RoundingState

__version__ = "0.1.0"

__all__ = [
    "DoublingResult",
    "FractionalState",
    "GeneratorConfig",
    "GuessTooSmallError",
    "Instance",
    "InstanceFormatError",
    "InfeasibleInstanceError",
    "Job",
    "JobFraction",
    "Machine",
    "OracleResult",
    "OracleTooLargeError",
    "PhaseTrace",
    "RoundingState",
    "StepOutcome",
    "default_initial_guess",
    "generate",
    "load_instance",
    "optimal_bnb",
    "optimal_exhaustive",
    "run_with_doubling",
    "save_instance",
]
