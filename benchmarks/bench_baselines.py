"""Baseline comparison benches (the paper's Sec. I / IV-B positioning).

Three claims get measured:

1. *Data-driven training needs solver labels* — we time dataset generation
   (the cost eq.-11 training avoids) and fit the same MIONet supervised.
2. *A PINN is per-design* — we time a PINN retraining for one new design
   vs a single DeepOHeat forward pass for the same design.
3. *Classical surrogates cover the linear/parametric corners* — ridge
   regression on the affine Exp-A operator, POD+RBF on the parametric
   Exp-B sweep; both are strong where they apply, which is the honest
   context for DeepOHeat's generality claim.
"""

import numpy as np
import pytest

from repro.analysis import format_table, mape
from repro.api import scenario_for
from repro.baselines import (
    PODSurrogate,
    RidgeRegressionSurrogate,
    VanillaPINN,
    generate_dataset,
    train_supervised,
)
from repro.core import MeshCollocation
from repro.fdm import solve_steady
from repro.geometry import StructuredGrid


@pytest.fixture(scope="module")
def small_grid(trained_a):
    return StructuredGrid(trained_a.model.config.chip, (9, 9, 6))


def test_datadriven_cost_and_accuracy(benchmark, trained_a, small_grid, out_dir):
    """Benchmark = labelling one training sample with the solver."""
    rng = np.random.default_rng(0)
    fresh = scenario_for("a", scale="test", seed=50).compile()

    benchmark(lambda: generate_dataset(fresh.model, small_grid, 1, rng))

    dataset = generate_dataset(fresh.model, small_grid, 12, rng)
    history = train_supervised(fresh.model, dataset, iterations=200, seed=0)
    rows = [
        ["dataset generation (12 solves)", f"{dataset.generation_seconds:.3f} s"],
        ["supervised training (200 it)", f"{history.wall_time:.3f} s"],
        ["final supervised MSE (hat)", f"{history.final_mse:.3e}"],
    ]
    table = format_table(["quantity", "value"], rows)
    (out_dir / "baseline_datadriven.txt").write_text(table + "\n")
    print("\n" + table)
    assert history.final_mse < history.mse[0]


def test_pinn_retrain_vs_operator_inference(benchmark, trained_a, small_grid,
                                            out_dir):
    """The headline amortisation: PINN retrain time vs one forward pass.

    Benchmark = the operator's forward pass; the PINN retraining time is
    measured once and written to the artifact.
    """
    rng = np.random.default_rng(1)
    new_map = trained_a.model.inputs[0].sample(rng, 1)[0]
    design = {"power_map": new_map}
    points = small_grid.points()

    benchmark(lambda: trained_a.model.predict(design, points))

    concrete = trained_a.model.concrete_config(design)
    pinn = VanillaPINN(concrete, hidden=32, depth=2, fourier_frequencies=8,
                       rng=np.random.default_rng(2))
    plan = MeshCollocation(StructuredGrid(concrete.chip, (7, 7, 5)), pinn.nd)
    history = pinn.train(plan, iterations=300, seed=0)

    reference = solve_steady(concrete.heat_problem(small_grid)).temperature
    operator_mape = mape(trained_a.model.predict(design, points), reference)
    pinn_mape = mape(pinn.predict(points), reference)

    table = format_table(
        ["method", "time for a NEW design", "MAPE %"],
        [
            ["DeepOHeat forward pass", "(see benchmark row)", operator_mape],
            ["PINN retrain (300 it)", f"{history.wall_time:.1f} s", pinn_mape],
        ],
    )
    (out_dir / "baseline_pinn.txt").write_text(table + "\n")
    print("\n" + table)
    # The PINN must at least learn the design; the operator must be usable.
    assert pinn_mape < 5.0
    assert operator_mape < 5.0


def test_ridge_on_affine_operator(benchmark, trained_a, small_grid, out_dir):
    """Ridge regression on Exp-A's affine map->field operator."""
    rng = np.random.default_rng(3)
    fresh = scenario_for("a", scale="test", seed=60).compile()
    maps = fresh.model.inputs[0].sample(rng, 50)
    fields = np.stack(
        [
            solve_steady(
                fresh.model.concrete_config({"power_map": m}).heat_problem(small_grid)
            ).temperature
            for m in maps
        ]
    )
    surrogate = RidgeRegressionSurrogate(1e-10).fit(maps.reshape(50, -1), fields)

    test_map = fresh.model.inputs[0].sample(rng, 1)[0]
    benchmark(lambda: surrogate.predict(test_map.reshape(1, -1)))

    reference = solve_steady(
        fresh.model.concrete_config({"power_map": test_map}).heat_problem(small_grid)
    ).temperature
    ridge_mape = mape(surrogate.predict(test_map.reshape(1, -1))[0], reference)
    (out_dir / "baseline_ridge.txt").write_text(
        f"ridge MAPE on unseen GRF map: {ridge_mape:.5f} %\n"
        "(the Exp-A operator is affine; see EXPERIMENTS.md for discussion)\n"
    )
    assert ridge_mape < 0.1


def test_pod_on_parametric_sweep(benchmark, trained_b, out_dir):
    """POD+RBF on Exp-B's 2-parameter HTC family."""
    grid = StructuredGrid(trained_b.model.config.chip, (9, 9, 7))
    values = np.linspace(350.0, 950.0, 4)
    params, fields = [], []
    for top in values:
        for bottom in values:
            design = {"htc_top": top, "htc_bottom": bottom}
            solution = solve_steady(
                trained_b.model.concrete_config(design).heat_problem(grid)
            )
            params.append([top, bottom])
            fields.append(solution.temperature)
    surrogate = PODSurrogate().fit(np.asarray(params), np.stack(fields))

    query = np.array([[700.0, 450.0]])
    benchmark(lambda: surrogate.predict(query))

    reference = solve_steady(
        trained_b.model.concrete_config(
            {"htc_top": 700.0, "htc_bottom": 450.0}
        ).heat_problem(grid)
    ).temperature
    pod_mape = mape(surrogate.predict(query)[0], reference)
    (out_dir / "baseline_pod.txt").write_text(
        f"POD modes: {surrogate.n_modes}; MAPE at unseen HTC pair: {pod_mape:.5f} %\n"
    )
    assert pod_mape < 0.1
