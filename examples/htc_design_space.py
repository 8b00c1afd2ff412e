"""Experiment B: dual-HTC operator + a surrogate-only design-space sweep.

Reproduces the paper's Fig. 5 cases — HTC tuples (1000, 333.33) and
(500, 500) — then exploits the trained operator for what it is for: a
dense sweep over the HTC square to map peak temperature vs cooling design,
at the cost of a single solver run.

Usage::

    python examples/htc_design_space.py [--scale test|ci]
"""

import argparse

import numpy as np

from repro.analysis import ascii_heatmap, format_table
from repro.api import ThermalService, scenario_for
from repro.experiments import htc_design_sweep, run_experiment_b


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=["test", "ci"])
    parser.add_argument("--sweep", type=int, default=7,
                        help="HTC grid resolution per axis for the sweep")
    args = parser.parse_args()

    print(f"Loading/Training Experiment-B model ({args.scale} scale) ...")
    scenario = scenario_for("b", scale=args.scale)
    service = ThermalService()
    service.train(scenario)
    setup = service.setup(scenario)

    print("\n=== Fig. 5 cases ===")
    result = run_experiment_b(setup)
    print(
        format_table(
            ["(h_top, h_bottom)", "MAPE %", "PAPE %", "paper MAPE/PAPE", "peak err K"],
            result.summary_rows(),
        )
    )
    print("\nBottom-surface fields for the first case:")
    print(result.figure5_panel(0))

    print(f"=== Design-space sweep: {args.sweep}x{args.sweep} HTC grid ===")
    sweep = htc_design_sweep(setup, n_per_axis=args.sweep)
    peaks = sweep["peak_temperature"]
    values = sweep["htc_values"]
    print(
        ascii_heatmap(
            peaks,
            title="peak temperature (K); rows: h_top low->high, cols: h_bottom",
        )
    )
    best = np.unravel_index(np.argmin(peaks), peaks.shape)
    print(
        f"coolest design: h_top={values[best[0]]:.0f}, "
        f"h_bottom={values[best[1]]:.0f} W/m^2K "
        f"-> peak {peaks[best]:.2f} K"
    )
    print(
        f"hottest design: peak {peaks.max():.2f} K; "
        f"sweep of {peaks.size} designs via one batched forward pass"
    )


if __name__ == "__main__":
    main()
