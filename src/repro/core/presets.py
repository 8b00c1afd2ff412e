"""The compiled form of a workload: :class:`ExperimentSetup`.

A setup bundles the model, collocation plan, trainer config and
evaluation grid of one workload.  It is what
:meth:`repro.api.ThermalScenario.compile` returns; the paper's presets
are scenario builders in :mod:`repro.api.presets`::

    from repro.api import scenario_for
    setup = scenario_for("a", scale="ci").compile()

or go through :class:`repro.api.ThermalService` for the full lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..geometry import StructuredGrid
from .model import DeepOHeat
from .sampler import CollocationPlan
from .trainer import Trainer, TrainerConfig


@dataclass
class ExperimentSetup:
    """Everything needed to train and evaluate one workload.

    ``scenario`` carries the :class:`~repro.api.ThermalScenario` this
    setup was compiled from (None for hand-assembled setups).
    """

    name: str
    scale: str
    model: DeepOHeat
    plan: CollocationPlan
    trainer_config: TrainerConfig
    eval_grid: StructuredGrid
    description: str
    scenario: Optional[object] = None

    def make_trainer(self, config: Optional[TrainerConfig] = None) -> Trainer:
        """A one-member :class:`Trainer`; ``None`` trains under
        ``trainer_config`` itself (not a copy)."""
        return Trainer([(self.model, self.plan)],
                       config if config is not None else self.trainer_config)
