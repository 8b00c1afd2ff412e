"""Tests for the experiment drivers (Table I / Figs. 3-5 / speedup)."""

import numpy as np
import pytest

from repro.api import ThermalService, scenario_for
from repro.experiments import (
    evaluate_power_map,
    fdm_scaling_curve,
    figure4_maps,
    figure4_text,
    htc_design_sweep,
    run_experiment_a,
    run_experiment_b,
    run_speedup_study,
)
from repro.power import paper_test_suite


def _trained_setup(name, cache_dir, force_retrain=False):
    """Train the test-scale preset into ``cache_dir`` (or load it)."""
    scenario = scenario_for(name, scale="test")
    service = ThermalService(cache_dir=cache_dir)
    service.train(scenario, force_retrain=force_retrain)
    return service.setup(scenario)


@pytest.fixture(scope="module")
def tiny_a(tmp_path_factory):
    return _trained_setup("a", tmp_path_factory.mktemp("cache_a"))


@pytest.fixture(scope="module")
def tiny_b(tmp_path_factory):
    return _trained_setup("b", tmp_path_factory.mktemp("cache_b"))


class TestModelCache:
    def test_cache_roundtrip(self, tmp_path):
        first = _trained_setup("a", tmp_path)
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        # Second call must load, not retrain: parameters identical.
        second = _trained_setup("a", tmp_path)
        for (na, pa), (nb, pb) in zip(
            first.model.net.named_parameters(), second.model.net.named_parameters()
        ):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            _trained_setup("z", tmp_path)

    def test_force_retrain(self, tmp_path):
        _trained_setup("a", tmp_path)
        setup = _trained_setup("a", tmp_path, force_retrain=True)
        assert setup.model is not None


class TestExperimentADriver:
    def test_evaluate_power_map_structure(self, tiny_a):
        tiles = paper_test_suite()[0].tiles
        case = evaluate_power_map(tiny_a, tiles, name="p1")
        assert case.predicted.shape == tiny_a.eval_grid.shape
        assert case.reference.shape == tiny_a.eval_grid.shape
        assert case.report.mape >= 0.0
        assert case.grid_map.shape == tiny_a.model.inputs[0].map_shape

    def test_run_suite_and_table(self, tiny_a):
        suite = paper_test_suite()[:3]
        result = run_experiment_a(tiny_a, suite=suite)
        assert len(result.cases) == 3
        text = result.table_one_text()
        assert "MAPE (%)" in text and "p3" in text
        assert len(result.mapes()) == 3

    def test_figure3_panel_renders(self, tiny_a):
        result = run_experiment_a(tiny_a, suite=paper_test_suite()[:1])
        panel = result.figure3_panel(0)
        assert "DeepOHeat" in panel and "Reference" in panel

    def test_figure4_maps_shapes(self, tiny_a):
        panels = figure4_maps(tiny_a)
        assert panels["training_grf"].shape == tiny_a.model.inputs[0].map_shape
        assert panels["tile_map"].shape == (20, 20)
        text = figure4_text(panels)
        assert "training map" in text and "interpolated" in text


class TestExperimentBDriver:
    def test_run_cases(self, tiny_b):
        result = run_experiment_b(tiny_b, cases=[(700.0, 450.0)])
        assert len(result.cases) == 1
        case = result.cases[0]
        assert case.predicted.shape == tiny_b.eval_grid.shape
        assert case.report.pape >= case.report.mape

    def test_summary_rows_include_paper_numbers(self, tiny_b):
        result = run_experiment_b(tiny_b)
        rows = result.summary_rows()
        assert len(rows) == 2
        assert "0.032" in rows[0][3]

    def test_design_sweep_monotone_reference_behaviour(self, tiny_b):
        sweep = htc_design_sweep(tiny_b, n_per_axis=3)
        assert sweep["peak_temperature"].shape == (3, 3)
        assert np.all(np.isfinite(sweep["peak_temperature"]))


class TestSpeedupDriver:
    def test_study_structure(self, tiny_a):
        study = run_speedup_study(
            tiny_a, refine_factor=2, batch_size=4, repeats=1,
            paper_speedup_cpu=3000.0,
        )
        assert len(study.table.rows) == 4
        text = study.format()
        assert "refined" in text and "paper" in text
        assert "farm" in text  # the amortised shared-operator reference row
        assert study.details["batch_size"] == 4
        assert study.details["solver_farm_sweep"]["amortized"] > 0

    def test_scaling_curve(self, tiny_a):
        rows = fdm_scaling_curve(tiny_a, factors=[1, 2])
        assert rows[0]["n_nodes"] < rows[1]["n_nodes"]
        assert all(r["solver_seconds"] > 0 for r in rows)
