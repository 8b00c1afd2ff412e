"""3-D volumetric power maps as operator inputs — the paper's future work.

Sec. VI: "we will further investigate how DeepOHeat performs ... in
optimizing 3D power maps."  This example trains the extension preset
(GRF-sampled non-negative 3-D heat densities, convection-cooled chip),
verifies it against the FV reference on unseen maps, and then does a tiny
design-space search: among candidate 3-D power arrangements with equal
total power, find the one with the lowest peak temperature.

Usage::

    python examples/volumetric_power_design.py [--scale test|ci]
"""

import argparse

import numpy as np

from repro.analysis import ascii_heatmap, field_report, format_table, kv_block
from repro.api import scenario_for
from repro.fdm import solve_steady


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="test", choices=["test", "ci"])
    parser.add_argument("--candidates", type=int, default=12)
    args = parser.parse_args()

    print(f"Training the 3-D power-map extension ({args.scale} scale) ...")
    setup = scenario_for("volumetric", scale=args.scale).compile()
    history = setup.make_trainer().run()
    print(
        f"loss {history.initial_loss:.3e} -> {history.final_loss:.3e} "
        f"in {history.wall_time:.1f} s"
    )

    rng = np.random.default_rng(0)
    encoder = setup.model.inputs[0]

    # Accuracy check on one unseen 3-D map.
    raw = encoder.sample(rng, 1)[0]
    design = {"power_map_3d": raw}
    predicted = setup.model.predict(design, setup.eval_grid.points())
    reference = solve_steady(
        setup.model.concrete_config(design).heat_problem(setup.eval_grid)
    ).temperature
    print()
    print(kv_block("unseen 3-D map accuracy", field_report(predicted, reference).as_dict()))

    # Design search: equal-power candidates, pick the coolest.
    print(f"\nScoring {args.candidates} equal-power candidate layouts ...")
    candidates = encoder.sample(rng, args.candidates)
    target_total = candidates[0].sum()
    candidates = np.stack(
        [c * (target_total / max(c.sum(), 1e-12)) for c in candidates]
    )
    designs = [{"power_map_3d": c} for c in candidates]
    fields = setup.model.predict_many(designs, setup.eval_grid.points())
    peaks = fields.max(axis=1)

    rows = [
        [i, float(c.sum()), float(peak)]
        for i, (c, peak) in enumerate(zip(candidates, peaks))
    ]
    print(format_table(["candidate", "total power units", "peak T (K)"], rows))

    best = int(np.argmin(peaks))
    validated = solve_steady(
        setup.model.concrete_config(
            {"power_map_3d": candidates[best]}
        ).heat_problem(setup.eval_grid)
    ).t_max
    print(f"\ncoolest candidate: #{best} "
          f"(surrogate {peaks[best]:.3f} K, FV-validated {validated:.3f} K)")
    mid = candidates[best].shape[2] // 2
    print(ascii_heatmap(candidates[best][:, :, mid],
                        "best candidate, mid-layer density (units)"))


if __name__ == "__main__":
    main()
