"""MADD fairness metric and model-free probability post-processing."""

__version__ = "0.1.0"

from .densities import Scores, build_density_vector, madd
from .objective import (
    ObjectiveConfig,
    SweepResult,
    losses,
    sweep,
    total_loss,
)
from .simulate import sample
from .transport import FipMap, fip

__all__ = [
    "FipMap",
    "ObjectiveConfig",
    "Scores",
    "SweepResult",
    "build_density_vector",
    "fip",
    "losses",
    "madd",
    "sample",
    "sweep",
    "total_loss",
]
