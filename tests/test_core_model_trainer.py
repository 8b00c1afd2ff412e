"""Tests for the DeepOHeat model facade, trainer and presets."""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.core import (
    DeepOHeat,
    MeshCollocation,
    RandomCollocation,
    Trainer,
    TrainerConfig,
)
from repro.fdm import solve_steady
from repro.geometry import StructuredGrid, paper_chip_a

T_AMB = 298.15


@pytest.fixture(scope="module")
def setup_a():
    return scenario_for("a", scale="test").compile()


@pytest.fixture(scope="module")
def setup_b():
    return scenario_for("b", scale="test").compile()


@pytest.fixture(scope="module")
def trained_a():
    """A briefly-trained Experiment-A model shared by the module's tests."""
    setup = scenario_for("a", scale="test", seed=3).compile()
    history = setup.make_trainer().run()
    return setup, history


class TestPresetConstruction:
    def test_scales_available(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scenario_for("a", scale="huge").compile()
        with pytest.raises(ValueError, match="unknown scale"):
            scenario_for("b", scale="huge").compile()

    def test_experiment_a_wiring(self, setup_a):
        assert setup_a.model.net.n_inputs == 1
        assert setup_a.model.inputs[0].name == "power_map"
        assert isinstance(setup_a.plan, MeshCollocation)
        assert setup_a.eval_grid.shape == (21, 21, 11)

    def test_experiment_b_wiring(self, setup_b):
        assert setup_b.model.net.n_inputs == 2
        names = [inp.name for inp in setup_b.model.inputs]
        assert names == ["htc_top", "htc_bottom"]
        assert isinstance(setup_b.plan, RandomCollocation)
        assert setup_b.plan.aligned

    def test_paper_scale_matches_reported_architecture(self):
        setup = scenario_for("a", scale="paper").compile()
        branch = setup.model.net.branches[0]
        assert branch.layer_sizes[0] == 441
        assert branch.layer_sizes[1:-1] == [256] * 9
        assert branch.out_features == 128
        trunk = setup.model.net.trunk
        assert trunk.fourier is not None
        assert trunk.fourier.std == pytest.approx(2.0 * np.pi)
        assert setup.trainer_config.iterations == 10_000
        assert setup.trainer_config.n_functions == 50

    def test_paper_scale_b_settings(self):
        setup = scenario_for("b", scale="paper").compile()
        assert setup.model.net.branches[0].layer_sizes[1:-1] == [20] * 5
        assert setup.model.net.trunk.fourier.std == pytest.approx(np.pi)

    def test_mismatched_branch_count_rejected(self, setup_a):
        from repro.core import HTCInput
        from repro.geometry import Face

        with pytest.raises(ValueError, match="branches"):
            DeepOHeat(
                setup_a.model.config,
                [setup_a.model.inputs[0], HTCInput(Face.BOTTOM)],
                setup_a.model.net,
            )

    def test_mismatched_sensor_dim_rejected(self, setup_a):
        from repro.core import PowerMapInput

        wrong = PowerMapInput(chip=paper_chip_a(), map_shape=(9, 9))
        with pytest.raises(ValueError, match="sensors"):
            DeepOHeat(setup_a.model.config, [wrong], setup_a.model.net)


class TestLossComputation:
    def test_loss_is_finite_and_positive(self, setup_a):
        rng = np.random.default_rng(0)
        raws = [setup_a.model.inputs[0].sample(rng, 3)]
        batch = setup_a.plan.batch(rng, 3)
        total, parts = setup_a.model.compute_loss(raws, batch)
        assert np.isfinite(total.item()) and total.item() > 0.0
        assert set(parts) == {"pde"} | {f"bc:{f.name}" for f in
                              __import__("repro.geometry", fromlist=["Face"]).Face}

    def test_loss_aligned_mode(self, setup_b):
        rng = np.random.default_rng(1)
        raws = [inp.sample(rng, 3) for inp in setup_b.model.inputs]
        batch = setup_b.plan.batch(rng, 3)
        total, parts = setup_b.model.compute_loss(raws, batch)
        assert np.isfinite(total.item())

    def test_gradients_flow_from_loss(self, setup_a):
        from repro import autodiff as ad

        rng = np.random.default_rng(2)
        raws = [setup_a.model.inputs[0].sample(rng, 2)]
        batch = setup_a.plan.batch(rng, 2)
        total, _ = setup_a.model.compute_loss(raws, batch)
        grads = ad.grad(total, setup_a.model.net.parameters())
        nonzero = sum(1 for g in grads if np.any(g.data != 0.0))
        assert nonzero >= len(grads) - 1


class TestTraining:
    def test_loss_decreases(self, trained_a):
        _, history = trained_a
        assert history.improvement_factor() > 2.0, (
            f"loss went {history.initial_loss:.3e} -> {history.final_loss:.3e}"
        )

    def test_history_structure(self, trained_a):
        _, history = trained_a
        assert history.iterations[0] == 0
        assert len(history.total_loss) == len(history.iterations)
        assert "pde" in history.components
        assert history.wall_time > 0.0

    def test_callback_fires(self, setup_b):
        calls = []
        config = TrainerConfig(iterations=4, n_functions=2, log_every=2, seed=0)
        Trainer([(setup_b.model, setup_b.plan)], config).run(
            callback=lambda it, total, parts: calls.append(it)
        )
        assert calls == [0, 2, 3]

    def test_lr_schedule_applied(self, trained_a):
        _, history = trained_a
        assert history.learning_rates[0] == pytest.approx(1e-3)

    def test_trained_model_beats_untrained(self, trained_a):
        setup, _ = trained_a
        fresh = scenario_for("a", scale="test", seed=99).compile()
        uniform = np.ones(setup.model.inputs[0].map_shape)
        grid = StructuredGrid(paper_chip_a(), (7, 7, 5))
        reference = solve_steady(
            setup.model.concrete_config({"power_map": uniform}).heat_problem(grid)
        ).temperature
        trained_error = np.abs(
            setup.model.predict({"power_map": uniform}, grid.points()) - reference
        ).mean()
        fresh_error = np.abs(
            fresh.model.predict({"power_map": uniform}, grid.points()) - reference
        ).mean()
        assert trained_error < fresh_error

    def test_trained_model_physically_plausible(self, trained_a):
        """After brief training, prediction is in the right temperature range
        and hotter at the heated top than the cooled bottom."""
        setup, _ = trained_a
        uniform = np.ones(setup.model.inputs[0].map_shape)
        grid = StructuredGrid(paper_chip_a(), (7, 7, 5))
        field = grid.to_array(
            setup.model.predict({"power_map": uniform}, grid.points())
        )
        assert 295.0 < field.mean() < 330.0
        assert field[:, :, -1].mean() > field[:, :, 0].mean()


class TestPrediction:
    def test_predict_shapes(self, setup_a):
        points = np.random.default_rng(0).uniform(0, 5e-4, size=(13, 3))
        uniform = np.ones(setup_a.model.inputs[0].map_shape)
        out = setup_a.model.predict({"power_map": uniform}, points)
        assert out.shape == (13,)

    def test_predict_grid_shape(self, setup_a):
        grid = StructuredGrid(paper_chip_a(), (5, 5, 4))
        uniform = np.ones(setup_a.model.inputs[0].map_shape)
        field = setup_a.model.predict_grid({"power_map": uniform}, grid)
        assert field.shape == (5, 5, 4)

    def test_predict_many_matches_predict(self, setup_a):
        rng = np.random.default_rng(1)
        maps = [rng.normal(size=setup_a.model.inputs[0].map_shape) for _ in range(3)]
        points = rng.uniform(0, 5e-4, size=(7, 3))
        designs = [{"power_map": m} for m in maps]
        batched = setup_a.model.predict_many(designs, points)
        assert batched.shape == (3, 7)
        for row, design in zip(batched, designs):
            assert np.allclose(row, setup_a.model.predict(design, points))

    def test_predict_missing_input_raises(self, setup_a):
        with pytest.raises(KeyError, match="power_map"):
            setup_a.model.predict({}, np.zeros((1, 3)))

    def test_reference_solution_consistent_with_fdm(self, setup_a):
        grid = StructuredGrid(paper_chip_a(), (5, 5, 4))
        uniform = np.ones(setup_a.model.inputs[0].map_shape)
        solution = setup_a.model.reference_solution({"power_map": uniform}, grid)
        expected_top = T_AMB + 5.0 + 12.5
        assert solution.to_array()[:, :, -1].mean() == pytest.approx(
            expected_top, abs=0.05
        )


class TestPersistence:
    def test_save_load_roundtrip(self, setup_a, tmp_path):
        clone = scenario_for("a", scale="test", seed=123).compile()
        path = tmp_path / "model.npz"
        setup_a.model.save(path, meta={"note": "unit-test"})
        loaded_meta = clone.model.load(path)
        assert loaded_meta["note"] == "unit-test"
        assert loaded_meta["inputs"] == ["power_map"]
        uniform = np.ones(setup_a.model.inputs[0].map_shape)
        points = np.random.default_rng(2).uniform(0, 4e-4, size=(5, 3))
        assert np.allclose(
            setup_a.model.predict({"power_map": uniform}, points),
            clone.model.predict({"power_map": uniform}, points),
        )


class TestTrainerMembers:
    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Trainer([])

    def test_members_with_different_nets_rejected(self, setup_a):
        other = scenario_for("a", scale="test").compile()
        with pytest.raises(ValueError, match="share one net"):
            Trainer([(setup_a.model, setup_a.plan), (other.model, other.plan)])

    def test_balancing_over_several_members_rejected(self, setup_a):
        members = [(setup_a.model, setup_a.plan)] * 2
        with pytest.raises(ValueError, match="balance_every"):
            Trainer(members, TrainerConfig(balance_every=2))
        Trainer(members[:1], TrainerConfig(balance_every=2))  # one is fine


class TestAdaptiveBalancing:
    def test_balancing_updates_weights(self):
        from repro.core import Trainer, TrainerConfig

        setup = scenario_for("b", scale="test", seed=2).compile()
        setup.model.builder.weights = {}
        cfg = TrainerConfig(
            iterations=6, n_functions=3, balance_every=2, log_every=3, seed=0
        )
        Trainer([(setup.model, setup.plan)], cfg).run()
        weights = setup.model.builder.weights
        assert weights, "balancing should have populated the weights"
        assert all(np.isfinite(w) and w > 0 for w in weights.values())
        # The stiff PDE component should end up *down*-weighted relative to
        # at least one boundary component.
        assert weights["pde"] < max(
            w for name, w in weights.items() if name.startswith("bc:")
        )

    def test_balancing_respects_clip(self):
        from repro.core import Trainer, TrainerConfig

        setup = scenario_for("b", scale="test", seed=3).compile()
        setup.model.builder.weights = {}
        cfg = TrainerConfig(
            iterations=4, n_functions=3, balance_every=1, balance_clip=5.0,
            balance_momentum=0.0, log_every=2, seed=0,
        )
        Trainer([(setup.model, setup.plan)], cfg).run()
        for weight in setup.model.builder.weights.values():
            assert 1.0 / 5.0 - 1e-9 <= weight <= 5.0 + 1e-9

    def test_balancing_off_by_default(self):
        from repro.core import Trainer, TrainerConfig

        setup = scenario_for("a", scale="test", seed=4).compile()
        before = dict(setup.model.builder.weights)
        cfg = TrainerConfig(iterations=3, n_functions=2, log_every=2, seed=0)
        Trainer([(setup.model, setup.plan)], cfg).run()
        assert setup.model.builder.weights == before
