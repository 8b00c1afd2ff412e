"""Ablations of the paper's design choices (Sec. IV / V commentary).

The paper motivates three choices the text calls out explicitly:

* **Swish activations** — "Swish yields relatively better results compared
  to other popular activation functions used in PINNs, such as Sine and
  Tanh" (Sec. V-A.3);
* **Fourier features** on the first trunk layer — "to effectively learn the
  high-frequency information of the temperature field" (Sec. IV-A);
* **collocation/batching mode** — fixed mesh (Exp. A) vs per-function
  random points (Exp. B).

Each ablation trains small equal-budget models differing in exactly one
choice and reports final physics losses and evaluation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis import mape
from ..core import (
    ChipConfig,
    DeepOHeat,
    MeshCollocation,
    PowerMapInput,
    Trainer,
    TrainerConfig,
)
from ..api.presets import T_AMB, scenario_for
from ..bc import AdiabaticBC, ConvectionBC
from ..fdm import SolveFarm, get_default_farm
from ..geometry import Face, StructuredGrid, paper_chip_a
from ..materials import UniformConductivity
from ..nn import MLP, FourierFeatures, MIONet, TrunkNet
from ..power import GaussianRandomField2D, tiles_to_grid, paper_test_suite


@dataclass
class AblationRun:
    label: str
    final_loss: float
    eval_mape: Optional[float] = None
    wall_time: float = 0.0


def _small_setup(
    activation: str = "swish",
    use_fourier: bool = True,
    seed: int = 0,
    iterations: int = 250,
    map_shape=(11, 11),
):
    """A miniature Experiment-A clone for equal-budget comparisons."""
    rng = np.random.default_rng(seed)
    chip = paper_chip_a()
    config = ChipConfig(
        chip=chip,
        conductivity=UniformConductivity(0.1),
        bcs={
            Face.BOTTOM: ConvectionBC(500.0, T_AMB),
            **{f: AdiabaticBC() for f in
               (Face.XMIN, Face.XMAX, Face.YMIN, Face.YMAX)},
        },
        t_ambient=T_AMB,
    )
    power_input = PowerMapInput(
        chip=chip,
        map_shape=map_shape,
        unit_flux=2500.0,
        grf=GaussianRandomField2D(map_shape, length_scale=0.3),
    )
    q = 32
    branch = MLP([power_input.sensor_dim, 48, 48, q], activation=activation, rng=rng)
    if use_fourier:
        # CI-scale frequency content (the paper's 2*pi needs paper budgets).
        fourier = FourierFeatures(3, 12, std=2.0, rng=rng)
        trunk = TrunkNet(
            MLP([fourier.out_features, 48, 48, q], activation=activation, rng=rng),
            fourier,
        )
    else:
        trunk = TrunkNet(MLP([3, 48, 48, q], activation=activation, rng=rng))
    net = MIONet([branch], trunk)
    model = DeepOHeat(config, [power_input], net)
    plan = MeshCollocation(StructuredGrid(chip, (9, 9, 6)), model.nd)
    trainer_config = TrainerConfig(
        iterations=iterations, n_functions=8, seed=seed, log_every=max(1, iterations // 5)
    )
    return model, plan, trainer_config


def _evaluate_small(model, farm: Optional[SolveFarm] = None) -> float:
    """MAPE on one held-out block map, vs the FDM reference.

    Every ablation variant evaluates on the same grid/BC structure, so
    the farm solves all of them against one cached factorization.
    """
    farm = farm if farm is not None else get_default_farm()
    map_shape = model.inputs[0].map_shape
    tiles = paper_test_suite()[2].tiles
    grid_map = tiles_to_grid(tiles, map_shape)
    design = {"power_map": grid_map}
    grid = StructuredGrid(paper_chip_a(), (11, 11, 7))
    predicted = model.predict(design, grid.points())
    reference = farm.solve(model.concrete_config(design).heat_problem(grid))
    return mape(predicted, reference.temperature)


def run_activation_ablation(iterations: int = 250, seed: int = 0) -> List[AblationRun]:
    """Swish vs Tanh vs Sine at an equal training budget."""
    runs = []
    for activation in ("swish", "tanh", "sine"):
        model, plan, cfg = _small_setup(
            activation=activation, seed=seed, iterations=iterations
        )
        history = Trainer([(model, plan)], cfg).run()
        runs.append(
            AblationRun(
                label=activation,
                final_loss=history.final_loss,
                eval_mape=_evaluate_small(model),
                wall_time=history.wall_time,
            )
        )
    return runs


def run_fourier_ablation(iterations: int = 250, seed: int = 0) -> List[AblationRun]:
    """Fourier-featured trunk vs raw-coordinate trunk."""
    runs = []
    for use_fourier in (True, False):
        model, plan, cfg = _small_setup(
            use_fourier=use_fourier, seed=seed, iterations=iterations
        )
        history = Trainer([(model, plan)], cfg).run()
        runs.append(
            AblationRun(
                label="fourier" if use_fourier else "raw-coords",
                final_loss=history.final_loss,
                eval_mape=_evaluate_small(model),
                wall_time=history.wall_time,
            )
        )
    return runs


def run_sampling_ablation(iterations: int = 200, seed: int = 0) -> List[AblationRun]:
    """Experiment B: aligned (per-function points) vs shared random points."""
    runs = []
    for aligned in (True, False):
        setup = scenario_for(
            "b", scale="test", aligned=aligned, seed=seed
        ).compile()
        setup.trainer_config.iterations = iterations
        history = setup.make_trainer().run()
        design = {"htc_top": 700.0, "htc_bottom": 450.0}
        grid = StructuredGrid(setup.model.config.chip, (9, 9, 7))
        predicted = setup.model.predict(design, grid.points())
        reference = get_default_farm().solve(
            setup.model.concrete_config(design).heat_problem(grid)
        )
        runs.append(
            AblationRun(
                label="aligned" if aligned else "shared-points",
                final_loss=history.final_loss,
                eval_mape=mape(predicted, reference.temperature),
                wall_time=history.wall_time,
            )
        )
    return runs
