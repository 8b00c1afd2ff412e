"""Tests for floorplan blocks and simulated-annealing optimisation."""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.floorplan import (
    Floorplan,
    FunctionalBlock,
    Placement,
    SurrogatePeakObjective,
    simulated_annealing,
)
from repro.geometry import StructuredGrid, paper_chip_a


def _blocks():
    return [
        FunctionalBlock("cpu", 4, 4, 2.0),
        FunctionalBlock("gpu", 5, 5, 1.5),
        FunctionalBlock("sram", 3, 3, 0.5),
    ]


class TestFunctionalBlock:
    def test_total_power(self):
        assert FunctionalBlock("b", 2, 3, 1.5).total_power == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionalBlock("b", 0, 3, 1.0)
        with pytest.raises(ValueError):
            FunctionalBlock("b", 2, 2, -1.0)


class TestPlacement:
    def test_footprint(self):
        p = Placement(FunctionalBlock("b", 2, 3, 1.0), 4, 5)
        assert p.footprint() == (4, 6, 5, 8)

    def test_overlap_detection(self):
        block = FunctionalBlock("b", 3, 3, 1.0)
        a = Placement(block, 0, 0)
        assert a.overlaps(Placement(block, 2, 2))
        assert not a.overlaps(Placement(block, 3, 0))
        assert not a.overlaps(Placement(block, 0, 3))


class TestFloorplan:
    def test_to_tiles_total_power(self):
        fp = Floorplan([Placement(FunctionalBlock("b", 2, 2, 2.0), 0, 0)])
        tiles = fp.to_tiles()
        assert tiles.sum() == pytest.approx(8.0)
        assert fp.total_power() == pytest.approx(8.0)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="leaves the lattice"):
            Floorplan([Placement(FunctionalBlock("b", 4, 4, 1.0), 18, 18)])

    def test_overlap_rejected(self):
        block = FunctionalBlock("b", 4, 4, 1.0)
        with pytest.raises(ValueError, match="overlap"):
            Floorplan([Placement(block, 0, 0), Placement(block, 1, 1)])

    def test_moved_preserves_original(self):
        fp = Floorplan([Placement(FunctionalBlock("b", 2, 2, 1.0), 0, 0)])
        moved = fp.moved(0, 5, 5)
        assert fp.placements[0].row == 0
        assert moved.placements[0].row == 5

    def test_random_is_feasible_and_deterministic(self):
        a = Floorplan.random(_blocks(), np.random.default_rng(3))
        b = Floorplan.random(_blocks(), np.random.default_rng(3))
        assert [p.footprint() for p in a.placements] == [
            p.footprint() for p in b.placements
        ]

    def test_random_impossible_raises(self):
        huge = [FunctionalBlock("x", 15, 15, 1.0), FunctionalBlock("y", 15, 15, 1.0)]
        with pytest.raises(RuntimeError):
            Floorplan.random(huge, np.random.default_rng(0), max_tries=50)


class TestAnnealing:
    def test_anneal_improves_synthetic_objective(self):
        """Objective: distance of the hot block from the centre (min at centre)."""
        rng = np.random.default_rng(0)
        fp = Floorplan.random([FunctionalBlock("hot", 2, 2, 3.0)], rng)

        def objective(plan):
            p = plan.placements[0]
            return (p.row - 9) ** 2 + (p.col - 9) ** 2

        result = simulated_annealing(fp, objective, rng, iterations=300,
                                     temperature=5.0)
        assert result.best_objective <= result.initial_objective
        assert result.best_objective < 9.0
        assert result.accepted_moves > 0
        assert result.proposed_moves >= result.accepted_moves

    def test_history_starts_at_initial(self):
        rng = np.random.default_rng(1)
        fp = Floorplan.random([FunctionalBlock("b", 2, 2, 1.0)], rng)
        result = simulated_annealing(fp, lambda plan: 1.0, rng, iterations=10)
        assert result.history[0] == 1.0

    def test_validation(self):
        rng = np.random.default_rng(2)
        fp = Floorplan.random([FunctionalBlock("b", 2, 2, 1.0)], rng)
        with pytest.raises(ValueError):
            simulated_annealing(fp, lambda p: 0.0, rng, iterations=0)


class TestSurrogateObjective:
    @pytest.fixture(scope="class")
    def objective(self):
        setup = scenario_for("a", scale="test", seed=21).compile()
        setup.make_trainer().run()
        grid = StructuredGrid(paper_chip_a(), (7, 7, 5))
        return SurrogatePeakObjective(setup.model, grid)

    def test_power_map_shape_matches_model(self, objective):
        fp = Floorplan.random(_blocks(), np.random.default_rng(4))
        assert objective.power_map(fp).shape == objective.map_shape

    def test_objective_returns_kelvin_scale(self, objective):
        fp = Floorplan.random(_blocks(), np.random.default_rng(5))
        value = objective(fp)
        assert 280.0 < value < 400.0
        assert objective.calls == 1

    def test_reference_peak_close_to_plausible_range(self, objective):
        fp = Floorplan.random(_blocks(), np.random.default_rng(6))
        reference = objective.reference_peak(fp)
        assert 300.0 < reference < 400.0

    def test_more_power_raises_surrogate_peak(self, objective):
        # Both power levels stay inside the GRF training range (~[-2.5, 2.5])
        # so the tiny test-scale model interpolates rather than extrapolates.
        rng = np.random.default_rng(7)
        low = Floorplan.random([FunctionalBlock("a", 3, 3, 0.5)], rng)
        high = Floorplan([Placement(FunctionalBlock("a", 3, 3, 2.0),
                                    low.placements[0].row,
                                    low.placements[0].col)])
        assert objective(high) > objective(low)
