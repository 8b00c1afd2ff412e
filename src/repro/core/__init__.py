"""DeepOHeat core: the paper's primary contribution."""

from .configs import ChipConfig
from .encoding import (
    ConfigInput,
    DirichletInput,
    HTCInput,
    HTCMapInput,
    PowerMapInput,
    TransientPowerMapInput,
    VolumetricPowerMapInput,
    apply_design,
)
from .losses import PhysicsLossBuilder
from .model import DeepOHeat
from .presets import ExperimentSetup
from .sampler import (
    CollocationBatch,
    CollocationPlan,
    MeshCollocation,
    RandomCollocation,
    TransientCollocation,
    total_points,
)
from .trainer import Trainer, TrainerConfig, TrainingHistory
from .transient import TransientSpec

__all__ = [
    "ChipConfig",
    "CollocationBatch",
    "CollocationPlan",
    "ConfigInput",
    "DeepOHeat",
    "DirichletInput",
    "ExperimentSetup",
    "HTCInput",
    "HTCMapInput",
    "MeshCollocation",
    "PhysicsLossBuilder",
    "PowerMapInput",
    "RandomCollocation",
    "TransientCollocation",
    "TransientPowerMapInput",
    "TransientSpec",
    "VolumetricPowerMapInput",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "apply_design",
    "total_points",
]
