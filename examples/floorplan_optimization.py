"""Thermal-aware floorplan optimisation — the paper's motivating use-case.

Places functional blocks (CPU/GPU/SRAM/IO) on the chip's top surface and
anneals their positions to minimise the peak temperature predicted by
DeepOHeat.  Every annealing step is one surrogate forward pass; the same
loop through the reference solver would cost hundreds of solves.  The
initial and final floorplans are re-validated with the FV solver.

Usage::

    python examples/floorplan_optimization.py [--scale test|ci] [--iters 150]
"""

import argparse

import numpy as np

from repro.analysis import ascii_heatmap, kv_block
from repro.api import ThermalService, scenario_for
from repro.floorplan import (
    Floorplan,
    FunctionalBlock,
    SurrogatePeakObjective,
    simulated_annealing,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["test", "ci"])
    parser.add_argument("--iters", type=int, default=150)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"Loading/Training Experiment-A model ({args.scale} scale) ...")
    scenario = scenario_for("a", scale=args.scale)
    service = ThermalService()
    service.train(scenario)
    setup = service.setup(scenario)
    objective = SurrogatePeakObjective(setup.model, setup.eval_grid)

    blocks = [
        FunctionalBlock("cpu0", 4, 4, 2.5),
        FunctionalBlock("cpu1", 4, 4, 2.5),
        FunctionalBlock("gpu", 6, 6, 1.2),
        FunctionalBlock("sram", 3, 5, 0.6),
        FunctionalBlock("io", 2, 6, 0.8),
    ]
    rng = np.random.default_rng(args.seed)
    initial = Floorplan.random(blocks, rng)

    print("\nInitial floorplan (power units):")
    print(ascii_heatmap(initial.to_tiles(), "initial"))

    print(f"Annealing {args.iters} moves (one surrogate call each) ...")
    result = simulated_annealing(
        initial, objective, rng, iterations=args.iters, temperature=0.5
    )

    print(ascii_heatmap(result.best.to_tiles(), "optimised"))
    validated_initial = objective.reference_peak(initial)
    validated_best = objective.reference_peak(result.best)
    print(
        kv_block(
            "results",
            {
                "surrogate peak (initial)": f"{result.initial_objective:.2f} K",
                "surrogate peak (best)": f"{result.best_objective:.2f} K",
                "FV-validated peak (initial)": f"{validated_initial:.2f} K",
                "FV-validated peak (best)": f"{validated_best:.2f} K",
                "moves accepted/proposed": f"{result.accepted_moves}/{result.proposed_moves}",
                "surrogate calls": objective.calls,
                "wall time": f"{result.wall_time:.1f} s",
            },
        )
    )
    if validated_best < validated_initial:
        print("\nThe surrogate-guided layout is confirmed cooler by the reference solver.")
    else:
        print("\nNote: surrogate and reference disagree on this run; "
              "train at a larger scale for tighter agreement.")


if __name__ == "__main__":
    main()
