"""End-to-end integration tests crossing every subsystem.

These are the highest-level checks in the suite: they train real (tiny)
models with the physics-informed loss, compare them against the FDM
reference on the paper's workloads, and exercise the downstream
application loop (floorplan annealing).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import scenario_for
from repro.experiments import run_experiment_a, run_experiment_b
from repro.geometry import StructuredGrid
from repro.power import paper_test_suite

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trained_a():
    setup = scenario_for("a", scale="test", seed=7).compile()
    setup.make_trainer().run()
    return setup


@pytest.fixture(scope="module")
def trained_b():
    setup = scenario_for("b", scale="test", seed=7).compile()
    setup.make_trainer().run()
    return setup


class TestEndToEndExperimentA:
    def test_unseen_block_maps_beat_trivial_baselines(self, trained_a):
        """The trained operator must beat (a) predicting ambient and
        (b) predicting the train-time mean field, on unseen block maps."""
        suite = paper_test_suite()[:3]
        result = run_experiment_a(trained_a, suite=suite)
        for case in result.cases:
            ambient_mape = float(
                np.mean(
                    np.abs(case.reference - 298.15) / np.abs(case.reference)
                )
            ) * 100.0
            assert case.report.mape < ambient_mape, case.name

    def test_errors_grow_with_complexity_shape(self, trained_a):
        """Paper Table I shape: complex maps err more than simple ones."""
        suite = paper_test_suite()
        result = run_experiment_a(trained_a, suite=[suite[0], suite[-1]])
        assert result.cases[1].report.pape >= result.cases[0].report.pape * 0.5

    def test_prediction_resolution_independence(self, trained_a):
        """The operator evaluates on any grid without retraining."""
        coarse = StructuredGrid(trained_a.model.config.chip, (5, 5, 4))
        fine = StructuredGrid(trained_a.model.config.chip, (13, 13, 9))
        tiles = paper_test_suite()[0].tiles
        from repro.power import tiles_to_grid

        design = {
            "power_map": tiles_to_grid(tiles, trained_a.model.inputs[0].map_shape)
        }
        field_coarse = trained_a.model.predict_grid(design, coarse)
        field_fine = trained_a.model.predict_grid(design, fine)
        # Shared corner nodes must agree exactly (same network, same points).
        assert field_coarse[0, 0, 0] == pytest.approx(field_fine[0, 0, 0])
        assert field_coarse[-1, -1, -1] == pytest.approx(field_fine[-1, -1, -1])


class TestEndToEndExperimentB:
    def test_paper_cases_sane(self, trained_b):
        result = run_experiment_b(trained_b)
        for case in result.cases:
            assert case.report.mape < 2.0
            assert case.predicted.min() > 290.0
            assert case.predicted.max() < 320.0

    def test_interpolation_within_training_range(self, trained_b):
        """Predictions vary smoothly between sampled HTC values."""
        points = trained_b.eval_grid.points()
        peaks = []
        for htc in (400.0, 600.0, 800.0):
            design = {"htc_top": htc, "htc_bottom": htc}
            peaks.append(trained_b.model.predict(design, points).max())
        assert peaks[0] > peaks[2]  # better cooling -> cooler chip


class TestFloorplanLoop:
    def test_anneal_with_surrogate_and_validate_with_fdm(self, trained_a):
        from repro.floorplan import (
            Floorplan,
            FunctionalBlock,
            SurrogatePeakObjective,
            simulated_annealing,
        )

        rng = np.random.default_rng(3)
        grid = StructuredGrid(trained_a.model.config.chip, (7, 7, 5))
        objective = SurrogatePeakObjective(trained_a.model, grid)
        blocks = [
            FunctionalBlock("hot", 4, 4, 3.0),
            FunctionalBlock("warm", 3, 3, 1.0),
        ]
        initial = Floorplan.random(blocks, rng)
        result = simulated_annealing(
            initial, objective, rng, iterations=40, temperature=0.3
        )
        assert result.best_objective <= result.initial_objective + 1e-9
        # The surrogate-chosen best plan must be solvable by the reference.
        validated = objective.reference_peak(result.best)
        assert 298.15 < validated < 400.0


class TestExamplesRun:
    """The quickstart example must execute cleanly end to end."""

    def test_quickstart_script(self):
        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py"),
             "--scale", "test"],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "accuracy vs reference" in completed.stdout
        assert "mape_pct" in completed.stdout
