"""Quickstart: the declarative scenario API end to end.

Runs in under a minute on a laptop CPU.  Pipeline:

1. build the Experiment-A scenario spec (paper Sec. V-A) at test scale;
2. train it through a :class:`~repro.api.ThermalService` session (the
   checkpoint registry makes re-runs instant);
3. predict the temperature field of an unseen block power map through
   the compiled serving engine;
4. compare element-wise against the finite-volume reference solver.

Usage::

    python examples/quickstart.py [--scale test|ci]

Scenarios are plain data: ``scenario.to_json("my.json")`` writes a spec
you can edit and run with ``python -m repro run --config my.json`` — no
Python required for new workloads (see ``examples/scenarios/``).
"""

import argparse

from repro.analysis import ascii_heatmap, field_report, kv_block
from repro.analysis.viz import compare_fields_text, field_slice
from repro.api import ThermalService, scenario_experiment_a
from repro.power import paper_test_suite, tiles_to_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="test", choices=["test", "ci"],
                        help="preset scale (test: ~30 s, ci: ~3 min)")
    args = parser.parse_args()

    print(f"Building the Experiment-A scenario at {args.scale!r} scale ...")
    scenario = scenario_experiment_a(scale=args.scale)
    print(scenario.description)
    print(f"content digest: {scenario.content_digest()[:16]}")

    service = ThermalService()
    setup = service.setup(scenario)
    print(f"network parameters: {setup.model.net.num_parameters():,}")

    print("\nTraining (self-supervised, physics-informed loss) ...")
    result = service.train(scenario)
    source = "checkpoint registry" if result.from_cache else "fresh training"
    print(f"final loss {result.final_loss:.3e} ({source})")

    # An unseen test design: block-based map p3, interpolated tile->grid.
    tiles = paper_test_suite()[2].tiles
    map_shape = setup.model.inputs[0].map_shape
    power_map = tiles_to_grid(tiles, map_shape)
    design = {"power_map": power_map}

    print("\nUnseen test power map (p3):")
    print(ascii_heatmap(power_map, "power map (units)"))

    print("Predicting the full 3-D temperature field ...")
    predicted_flat = service.predict(scenario, [design]).fields[0]
    predicted = setup.eval_grid.to_array(predicted_flat)

    print("Solving the same design with the FV reference solver ...")
    reference = service.solve(scenario, designs=[design]).fields[0]

    report = field_report(predicted, reference)
    print()
    print(kv_block("accuracy vs reference", report.as_dict()))
    print()
    print(compare_fields_text(field_slice(predicted), field_slice(reference)))

    service.close()  # drop the session's engines and caches

    # Without the service, the same scenario compiles to a bare setup:
    #
    #     setup = scenario.compile()
    #     setup.make_trainer().run()
    #     field = setup.model.predict_grid(design, setup.eval_grid)


if __name__ == "__main__":
    main()
