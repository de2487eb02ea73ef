"""MADD fairness metric and model-free probability post-processing."""

__version__ = "0.1.0"

from .densities import Scores, build_density_vector, madd
from .objective import (
    ObjectiveConfig,
    SweepResult,
    accuracy_loss,
    apply_threshold,
    fairness_loss,
    sweep,
    total_loss,
)
from .simulate import SimulationSpec, sample
from .transport import FipMap, fip

__all__ = [
    "FipMap",
    "ObjectiveConfig",
    "Scores",
    "SimulationSpec",
    "SweepResult",
    "accuracy_loss",
    "apply_threshold",
    "build_density_vector",
    "fairness_loss",
    "fip",
    "madd",
    "sample",
    "sweep",
    "total_loss",
]
