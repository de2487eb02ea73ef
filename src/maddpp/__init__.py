"""MADD fairness metric and model-free probability post-processing."""

__version__ = "0.1.0"

from .densities import (
    DensityVector,
    Scores,
    build_density_vector,
    madd,
    pool_density_vectors,
)
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
    "DensityVector",
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
    "pool_density_vectors",
    "sample",
    "sweep",
    "total_loss",
]
