"""Experiment A sweep: the paper's Table I / Fig. 3 on your machine.

Trains (or loads a cached) CI-scale DeepOHeat and evaluates it on the ten
block-composed test power maps p1..p10, printing the Table-I layout plus
Fig.-3-style field panels for selected maps.

Usage::

    python examples/power_map_sweep.py [--scale test|ci] [--panels 1 10]
"""

import argparse

from repro.analysis import format_table
from repro.api import ThermalService, scenario_for
from repro.experiments import figure4_maps, figure4_text, run_experiment_a


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["test", "ci"])
    parser.add_argument(
        "--panels", type=int, nargs="*", default=[1, 10],
        help="which p-maps to render as Fig.-3 panels (1-based)",
    )
    args = parser.parse_args()

    print(f"Loading/Training Experiment-A model ({args.scale} scale) ...")
    scenario = scenario_for("a", scale=args.scale)
    service = ThermalService()
    service.train(scenario)
    setup = service.setup(scenario)

    print("\n=== Fig. 4: training map vs tile map vs interpolation ===")
    print(figure4_text(figure4_maps(setup)))

    print("=== Table I: errors over the p1..p10 suite ===")
    result = run_experiment_a(setup)
    print(result.table_one_text())

    rows = [
        [case.name, case.report.rmse, case.report.max_abs,
         case.report.t_max_predicted, case.report.t_max_reference]
        for case in result.cases
    ]
    print("\nSupplementary (kelvin):")
    print(format_table(["map", "RMSE", "max|err|", "Tmax pred", "Tmax ref"], rows))

    for panel in args.panels:
        index = panel - 1
        if 0 <= index < len(result.cases):
            print(f"\n=== Fig. 3 panel: {result.cases[index].name} ===")
            print(result.figure3_panel(index))


if __name__ == "__main__":
    main()
