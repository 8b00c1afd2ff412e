"""Future-work extension: 3-D power maps as operator inputs (paper Sec. VI).

The paper's conclusion defers "optimizing 3D power maps" to future work
while Sec. IV-A specifies exactly how they would be encoded.  This bench
trains the extension preset and verifies the behaviours that would make
that future work credible: unseen-map accuracy against the reference
solver, and sane scaling of temperature with injected power.
"""

import numpy as np

from repro.analysis import field_report, format_table
from repro.fdm import solve_steady


def test_volumetric_unseen_accuracy(benchmark, trained_volumetric, out_dir):
    """Benchmark = one unseen 3-D-map field prediction."""
    setup = trained_volumetric
    rng = np.random.default_rng(11)
    encoder = setup.model.inputs[0]
    points = setup.eval_grid.points()

    raw = encoder.sample(rng, 1)[0]
    benchmark(lambda: setup.model.predict({"power_map_3d": raw}, points))

    rows = []
    for index in range(5):
        test_map = encoder.sample(rng, 1)[0]
        design = {"power_map_3d": test_map}
        predicted = setup.model.predict(design, points)
        reference = solve_steady(
            setup.model.concrete_config(design).heat_problem(setup.eval_grid)
        ).temperature
        report = field_report(predicted, reference)
        rows.append([f"map{index}", report.mape, report.pape, report.max_abs])
    table = format_table(["map", "MAPE %", "PAPE %", "max|err| K"], rows)
    (out_dir / "future_volumetric.txt").write_text(table + "\n")
    print("\n" + table)

    mapes = [row[1] for row in rows]
    assert max(mapes) < 1.0, f"worst MAPE {max(mapes):.3f} %"


def test_volumetric_power_monotonicity(benchmark, trained_volumetric):
    """Doubling every density must raise the predicted peak temperature.

    Benchmark = the batched two-design prediction."""
    setup = trained_volumetric
    rng = np.random.default_rng(12)
    encoder = setup.model.inputs[0]
    base = encoder.sample(rng, 1)[0] * 0.6
    designs = [{"power_map_3d": base}, {"power_map_3d": 2.0 * base}]
    points = setup.eval_grid.points()
    fields = benchmark(lambda: setup.model.predict_many(designs, points))
    assert fields[1].max() > fields[0].max()
