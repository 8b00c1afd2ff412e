"""Declarative scenario API: the stable front door to the whole stack.

Two ideas:

* :class:`ThermalScenario` — a versioned, JSON-serializable spec that
  *fully describes* a workload (geometry, materials, boundary
  conditions, operator-input families, network, collocation, training
  budget, optional transient section) and compiles onto the execution
  stack.  New workloads are config files, not code.
* :class:`ThermalService` — a session façade fronting the lifecycle
  behind typed responses: ``solve`` (shared-operator FDM farm),
  ``train`` (content-digest-keyed checkpoint registry), ``predict`` /
  ``rollout`` (batched compiled engines sharing one trunk cache) and
  ``sweep`` (streaming, with FDM validation of outliers).

Quickstart::

    from repro.api import ThermalService, scenario_experiment_a

    service = ThermalService()
    scenario = scenario_experiment_a(scale="test")
    service.train(scenario)                      # or registry hit
    result = service.sweep(scenario, n_designs=64, validate=2)
    print(result.peaks.max(), result.validation.peak_errors.max())

The four paper presets are exposed as scenario builders
(:func:`scenario_experiment_a` …); ``ThermalScenario.from_json`` loads
arbitrary scenarios (see ``examples/scenarios/``).
"""

from .presets import (
    preset_inventory,
    scenario_experiment_a,
    scenario_experiment_b,
    scenario_experiment_transient,
    scenario_experiment_volumetric,
    scenario_for,
)
from .scenario import (
    SCHEMA_VERSION,
    BoundarySpec,
    CollocationSpec,
    GeometrySpec,
    GRFSpec,
    InputSpec,
    MaterialSpec,
    NetworkSpec,
    ScenarioValidationError,
    ThermalScenario,
    TraceFamilySpec,
    TrainingSpec,
    TransientSectionSpec,
    VolumetricSourceSpec,
)
from ..nn.serialize import CheckpointCorrupt
from .service import (
    DEFAULT_CACHE_DIR,
    CheckpointRegistry,
    PredictResult,
    RolloutResult,
    SolveResult,
    SweepChunk,
    SweepResult,
    SweepValidation,
    ThermalService,
    TrainResult,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "BoundarySpec",
    "CheckpointCorrupt",
    "CheckpointRegistry",
    "CollocationSpec",
    "GRFSpec",
    "GeometrySpec",
    "InputSpec",
    "MaterialSpec",
    "NetworkSpec",
    "PredictResult",
    "RolloutResult",
    "ScenarioValidationError",
    "SolveResult",
    "SweepChunk",
    "SweepResult",
    "SweepValidation",
    "ThermalScenario",
    "ThermalService",
    "TraceFamilySpec",
    "TrainResult",
    "TrainingSpec",
    "TransientSectionSpec",
    "VolumetricSourceSpec",
    "preset_inventory",
    "scenario_experiment_a",
    "scenario_experiment_b",
    "scenario_experiment_transient",
    "scenario_experiment_volumetric",
    "scenario_for",
]
