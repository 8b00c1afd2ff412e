"""DeepOHeat reproduction: operator-learning thermal simulation for 3D ICs.

Reproduces Liu et al., "DeepOHeat: Operator Learning-based Ultra-fast
Thermal Simulation in 3D-IC Design" (DAC 2023) from scratch on numpy:

* :mod:`repro.autodiff` — reverse-mode autodiff engine (PyTorch substitute)
* :mod:`repro.nn` — MLP / Fourier features / DeepONet / MIONet / Adam
* :mod:`repro.geometry`, :mod:`repro.bc`, :mod:`repro.power`,
  :mod:`repro.materials` — the modular chip model of the paper's Sec. III
* :mod:`repro.fdm` — finite-volume reference solver (Celsius 3D substitute)
* :mod:`repro.core` — the DeepOHeat framework itself (Sec. IV)
* :mod:`repro.api` — declarative scenario spec (``ThermalScenario``,
  versioned JSON) + ``ThermalService`` session façade; ``repro run``
* :mod:`repro.engine` — compiled tape-free serving engine (batched sweeps,
  trunk-feature caching); ``DeepOHeat.compile()`` / ``repro sweep``
* :mod:`repro.serve` — serving daemon: JSON-line / array-frame socket with
  cross-request micro-batching onto the compiled engine's fused matmul,
  bounded-queue backpressure and byte-budgeted caches; ``repro serve``
* :mod:`repro.family` — foundation-style scenario families: one
  scenario-conditioned surrogate trained round-robin over a family spec,
  checkpoint lineage, few-shot fine-tuning; ``repro family`` / ``repro
  finetune``
* :mod:`repro.baselines` — PINN / data-driven / regression / POD baselines
* :mod:`repro.analysis` — MAPE/PAPE metrics, timing, ASCII field rendering
* :mod:`repro.floorplan` — thermal-aware floorplan optimisation example
* :mod:`repro.experiments` — drivers regenerating every table and figure

Quickstart::

    from repro.api import ThermalService, scenario_experiment_a
    service = ThermalService()
    scenario = scenario_experiment_a(scale="test")
    service.train(scenario)          # or a checkpoint-registry hit
    result = service.predict(scenario, [{"power_map": my_map}])

New workloads are scenario JSON files, not code: see
``examples/scenarios/`` and ``python -m repro run --config <file>``.
"""

__version__ = "1.6.0"

__all__ = ["__version__"]
