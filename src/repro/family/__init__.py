"""Foundation-style multi-scenario training (``repro.family``).

One conditioned surrogate trained across a *distribution* of thermal
scenarios instead of a single configuration:

- :class:`ScenarioFamily` — versioned JSON spec declaring a base
  scenario plus sampled axes (HTC ranges, conductivity, trace levels),
  deterministically enumerating member :class:`ThermalScenario`\\ s.
- :class:`FamilyEncodedInput` / scenario conditioning — members share
  one branch stack by encoding through the family envelope, with a
  fixed-width conditioning vector appended as an extra branch.
- :class:`FamilySetup` — the compiled family; its ``make_trainer()``
  is the core :class:`~repro.core.trainer.Trainer` over one
  ``(model, plan)`` member per family member, round-robin into the one
  shared net, with the standard checkpoint/resume machinery.

Fine-tuning (``service.fine_tune``) and checkpoint lineage live in
:mod:`repro.api.service`; serving of family checkpoints in
:mod:`repro.serve`.
"""

from .conditioning import FamilyEncodedInput
from .spec import (
    FAMILY_SCHEMA_VERSION,
    FamilyAxis,
    ScenarioFamily,
    load_spec,
)
from .trainer import FamilySetup

__all__ = [
    "FAMILY_SCHEMA_VERSION",
    "FamilyAxis",
    "FamilyEncodedInput",
    "FamilySetup",
    "ScenarioFamily",
    "load_spec",
]
