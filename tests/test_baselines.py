"""Tests for the baseline surrogates (PINN, data-driven, ridge, POD)."""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.baselines import (
    PODSurrogate,
    RidgeRegressionSurrogate,
    VanillaPINN,
    generate_dataset,
    train_supervised,
)
from repro.baselines.datadriven import spawn_seeds
from repro.bc import ConvectionBC, NeumannBC
from repro.core import ChipConfig, MeshCollocation
from repro.fdm import solve_steady
from repro.geometry import Face, StructuredGrid, paper_chip_a
from repro.materials import UniformConductivity

T_AMB = 298.15


def _concrete_config(flux=2500.0):
    """A fixed Experiment-A-like design (uniform top power)."""
    return ChipConfig(
        chip=paper_chip_a(),
        conductivity=UniformConductivity(0.1),
        bcs={
            Face.TOP: NeumannBC(flux),
            Face.BOTTOM: ConvectionBC(500.0, T_AMB),
        },
        t_ambient=T_AMB,
    )


class TestVanillaPINN:
    def test_training_reduces_loss_and_approaches_analytic(self):
        config = _concrete_config()
        pinn = VanillaPINN(config, hidden=24, depth=2, fourier_frequencies=6,
                           rng=np.random.default_rng(0))
        plan = MeshCollocation(
            StructuredGrid(config.chip, (5, 5, 5)), pinn.nd
        )
        history = pinn.train(plan, iterations=250, seed=0)
        assert history.total_loss[-1] < history.total_loss[0]
        # Exact solution is linear in z: T in [303.15, 315.65].
        grid = StructuredGrid(config.chip, (5, 5, 5))
        predicted = pinn.predict(grid.points())
        reference = solve_steady(config.heat_problem(grid)).temperature
        error = np.abs(predicted - reference).mean()
        assert error < 3.0, f"mean error {error:.2f} K"

    def test_predict_shape(self):
        pinn = VanillaPINN(_concrete_config(), hidden=8, depth=1,
                           fourier_frequencies=4)
        out = pinn.predict(np.zeros((7, 3)))
        assert out.shape == (7,)

    def test_history_wall_time(self):
        config = _concrete_config()
        pinn = VanillaPINN(config, hidden=8, depth=1, fourier_frequencies=4)
        plan = MeshCollocation(StructuredGrid(config.chip, (4, 4, 4)), pinn.nd)
        history = pinn.train(plan, iterations=5)
        assert history.wall_time > 0.0
        assert history.final_loss == history.total_loss[-1]


class TestDataDriven:
    @pytest.fixture(scope="class")
    def setup(self):
        return scenario_for("a", scale="test", seed=11).compile()

    def test_dataset_generation(self, setup):
        grid = StructuredGrid(paper_chip_a(), (5, 5, 4))
        dataset = generate_dataset(setup.model, grid, 4, np.random.default_rng(0))
        assert dataset.n_samples == 4
        assert dataset.fields_hat.shape == (4, grid.n_nodes)
        assert dataset.generation_seconds > 0.0
        # Hat fields should be O(1) around the chip's temperature rise.
        assert np.all(np.isfinite(dataset.fields_hat))
        assert dataset.fields_hat.max() < 50.0

    def test_supervised_training_fits_labels(self, setup):
        grid = StructuredGrid(paper_chip_a(), (5, 5, 4))
        rng = np.random.default_rng(1)
        dataset = generate_dataset(setup.model, grid, 6, rng)
        history = train_supervised(
            setup.model, dataset, iterations=150, batch_size=6, seed=0
        )
        assert history.final_mse < history.mse[0]
        assert history.wall_time > 0.0


class TestRidgeRegression:
    def test_recovers_linear_map(self):
        rng = np.random.default_rng(0)
        true_w = rng.normal(size=(5, 3))
        x = rng.normal(size=(40, 5))
        y = x @ true_w + 2.0
        surrogate = RidgeRegressionSurrogate(regularization=1e-10).fit(x, y)
        x_test = rng.normal(size=(7, 5))
        assert np.allclose(surrogate.predict(x_test), x_test @ true_w + 2.0,
                           atol=1e-6)

    def test_nearly_exact_on_linear_thermal_operator(self):
        """Exp-A's map->field operator is affine, so ridge nails it.

        This is the honest observation recorded in EXPERIMENTS.md: the
        linear sub-problem admits a classical surrogate; DeepOHeat's value
        is configurations that enter the PDE nonlinearly.
        """
        setup = scenario_for("a", scale="test", seed=5).compile()
        grid = StructuredGrid(paper_chip_a(), (5, 5, 4))
        rng = np.random.default_rng(2)
        maps = setup.model.inputs[0].sample(rng, 60)
        fields = np.stack(
            [
                solve_steady(
                    setup.model.concrete_config({"power_map": m}).heat_problem(grid)
                ).temperature
                for m in maps
            ]
        )
        surrogate = RidgeRegressionSurrogate(1e-10).fit(
            maps.reshape(60, -1), fields
        )
        test_map = setup.model.inputs[0].sample(rng, 1)[0]
        predicted = surrogate.predict(test_map.reshape(1, -1))[0]
        reference = solve_steady(
            setup.model.concrete_config({"power_map": test_map}).heat_problem(grid)
        ).temperature
        assert np.abs(predicted - reference).max() < 0.05

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeRegressionSurrogate().predict(np.zeros((1, 3)))

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            RidgeRegressionSurrogate().fit(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            RidgeRegressionSurrogate().fit(np.zeros((3, 2)), np.zeros((4, 1)))


class TestPOD:
    def _snapshots(self, n=16):
        """Exp-B style: fields over a 2-parameter HTC grid."""
        setup = scenario_for("b", scale="test", seed=7).compile()
        grid = StructuredGrid(setup.model.config.chip, (5, 5, 5))
        values = np.linspace(350.0, 950.0, int(np.sqrt(n)))
        params, fields = [], []
        for top in values:
            for bottom in values:
                design = {"htc_top": top, "htc_bottom": bottom}
                solution = solve_steady(
                    setup.model.concrete_config(design).heat_problem(grid)
                )
                params.append([top, bottom])
                fields.append(solution.temperature)
        return setup, grid, np.asarray(params), np.stack(fields)

    def test_interpolates_unseen_parameters_accurately(self):
        setup, grid, params, fields = self._snapshots()
        surrogate = PODSurrogate().fit(params, fields)
        query = np.array([[700.0, 450.0]])
        predicted = surrogate.predict(query)[0]
        design = {"htc_top": 700.0, "htc_bottom": 450.0}
        reference = solve_steady(
            setup.model.concrete_config(design).heat_problem(grid)
        ).temperature
        assert np.abs(predicted - reference).max() < 0.05

    def test_mode_truncation(self):
        rng = np.random.default_rng(0)
        params = rng.uniform(size=(10, 2))
        fields = np.outer(params[:, 0], np.ones(30))  # rank-1 snapshots
        surrogate = PODSurrogate().fit(params, fields)
        assert surrogate.n_modes == 1

    def test_max_modes_cap(self):
        rng = np.random.default_rng(1)
        params = rng.uniform(size=(10, 2))
        fields = rng.normal(size=(10, 30))
        surrogate = PODSurrogate(max_modes=3).fit(params, fields)
        assert surrogate.n_modes <= 3

    def test_validation(self):
        with pytest.raises(RuntimeError):
            PODSurrogate().predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            PODSurrogate().fit(np.zeros((1, 2)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            PODSurrogate().fit(np.zeros((3, 2)), np.zeros((4, 5)))


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        first = spawn_seeds(1234, 6)
        second = spawn_seeds(1234, 6)
        assert first == second
        assert len(set(first)) == 6

    def test_prefix_stability(self):
        # Seeds key on (base_seed, index): asking for more must not
        # reshuffle the streams already handed out.
        assert spawn_seeds(7, 3) == spawn_seeds(7, 8)[:3]

    def test_edge_cases(self):
        assert spawn_seeds(0, 0) == []
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestSeededDatasetGeneration:
    def test_same_seed_is_bitwise_reproducible(self):
        setup = scenario_for("a", scale="test", seed=0).compile()
        grid = StructuredGrid(setup.model.config.chip, (5, 5, 4))
        first = generate_dataset(setup.model, grid, 6, seed=11)
        second = generate_dataset(setup.model, grid, 6, seed=11)
        assert np.array_equal(first.fields_hat, second.fields_hat)
        for lhs, rhs in zip(first.raws, second.raws):
            assert np.array_equal(lhs, rhs)
        other = generate_dataset(setup.model, grid, 6, seed=12)
        assert not np.array_equal(first.raws[0], other.raws[0])

    def test_rng_and_seed_are_exclusive(self):
        setup = scenario_for("a", scale="test", seed=0).compile()
        grid = StructuredGrid(setup.model.config.chip, (5, 5, 4))
        with pytest.raises(ValueError, match="exactly one"):
            generate_dataset(setup.model, grid, 2)
        with pytest.raises(ValueError, match="exactly one"):
            generate_dataset(
                setup.model, grid, 2, rng=np.random.default_rng(0), seed=1
            )
