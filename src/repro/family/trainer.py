"""The compiled form of a family: :class:`FamilySetup`.

A family trains through the same :class:`~repro.core.trainer.Trainer`
as a single scenario: :meth:`FamilySetup.make_trainer` hands it one
``(model, plan)`` member per family member, all aliasing the shared
conditioned net, and iteration ``i`` trains member ``i % n_members``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.presets import ExperimentSetup
from ..core.trainer import Trainer, TrainerConfig
from .spec import ScenarioFamily


@dataclass
class FamilySetup:
    """A compiled family: shared net + one ``ExperimentSetup`` per member.

    Built by :meth:`ScenarioFamily.compile`.  ``setups[i].model`` all
    alias ``net``; ``envelope_inputs`` are the family-wide encoders that
    :meth:`member_setup` wraps around any further covered scenario
    (fine-tune targets, serving members).
    """

    family: ScenarioFamily
    net: object
    envelope_inputs: List
    members: List
    setups: List[ExperimentSetup] = field(default_factory=list)
    trainer_config: TrainerConfig = field(default_factory=TrainerConfig)

    @property
    def model(self):
        """A representative conditioned model (member 0's)."""
        return self.setups[0].model

    def member_setup(self, scenario) -> ExperimentSetup:
        """Wrap a covered scenario as a conditioned ``ExperimentSetup``.

        The scenario's own physics (config, collocation plan, eval
        grid) is kept; its inputs are re-encoded through the family
        envelope and the family's conditioning vector for it is
        appended — the resulting model aliases the shared ``net``.
        """
        from ..core.encoding import ScenarioConditioningInput
        from ..core.model import DeepOHeat
        from .conditioning import FamilyEncodedInput

        base_setup = scenario.compile()
        wrapped = [
            FamilyEncodedInput(member_input, envelope_input)
            for member_input, envelope_input in zip(
                base_setup.model.inputs, self.envelope_inputs
            )
        ]
        conditioning = ScenarioConditioningInput(
            self.family.conditioning_vector(scenario)
        )
        model = DeepOHeat(
            base_setup.model.config,
            wrapped + [conditioning],
            self.net,
            dt_ref=scenario.dt_ref,
            loss_weights=(dict(scenario.loss_weights)
                          if scenario.loss_weights else None),
            transient=base_setup.model.transient,
        )
        return ExperimentSetup(
            name=scenario.name,
            scale=scenario.scale,
            model=model,
            plan=base_setup.plan,
            trainer_config=base_setup.trainer_config,
            eval_grid=base_setup.eval_grid,
            description=f"family-conditioned {scenario.name!r}",
            scenario=scenario,
        )

    def make_trainer(self, config: Optional[TrainerConfig] = None) -> Trainer:
        """A round-robin :class:`Trainer` over the members; ``None``
        trains under ``trainer_config`` itself (not a copy)."""
        return Trainer([(setup.model, setup.plan) for setup in self.setups],
                       config if config is not None else self.trainer_config)
