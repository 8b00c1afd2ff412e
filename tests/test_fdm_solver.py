"""Physics verification of the FDM reference solver (the Celsius substitute)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import ConvectionBC, DirichletBC, NeumannBC
from repro.fdm import (
    HeatProblem,
    assemble,
    convergence_order,
    dirichlet_slab_profile,
    layered_series_resistance_t_top,
    manufactured_case,
    slab_flux_convection_profile,
    slab_problem,
    solve_steady,
)
from repro.geometry import (
    Cuboid,
    CuboidStack,
    Face,
    StructuredGrid,
    paper_chip_a,
    power_units_to_flux,
)
from repro.materials import LayeredConductivity, UniformConductivity
from repro.power import UniformLayerPower, random_block_map, tiles_to_grid
from repro.power.interpolate import grid_bilinear_function

T_AMB = 298.15


def _paper_problem(power_fn=None, grid_shape=(21, 21, 11), htc=500.0):
    """Experiment-A setup: power on top, convection bottom, adiabatic sides."""
    chip = paper_chip_a()
    grid = StructuredGrid(chip, grid_shape)
    bcs = {
        Face.TOP: NeumannBC(power_fn if power_fn is not None else 2500.0),
        Face.BOTTOM: ConvectionBC(htc, T_AMB),
    }
    return HeatProblem(
        grid=grid, conductivity=UniformConductivity(0.1), bcs=bcs
    )


class TestExactSolutions:
    def test_uniform_flux_convection_slab_is_exact(self):
        """FV is exact for the linear 1-D profile (paper Exp-A continuum)."""
        chip = paper_chip_a()
        problem = slab_problem(chip, (5, 5, 9), influx=2500.0, htc=500.0,
                               t_ambient=T_AMB, k=0.1)
        solution = solve_steady(problem)
        exact = slab_flux_convection_profile(chip, 2500.0, 500.0, T_AMB, 0.1)
        assert np.allclose(solution.temperature, exact(problem.grid.points()),
                           rtol=1e-10, atol=1e-8)

    def test_paper_scale_sanity(self):
        """Uniform one-unit power map: bottom ~303.15 K, top ~315.65 K."""
        solution = solve_steady(_paper_problem())
        field = solution.to_array()
        assert field[:, :, 0].mean() == pytest.approx(T_AMB + 5.0, abs=1e-6)
        assert field[:, :, -1].mean() == pytest.approx(T_AMB + 5.0 + 12.5, abs=1e-6)

    def test_dirichlet_slab_linear_profile(self):
        chip = paper_chip_a()
        grid = StructuredGrid(chip, (4, 4, 11))
        problem = HeatProblem(
            grid=grid,
            conductivity=UniformConductivity(1.0),
            bcs={Face.BOTTOM: DirichletBC(300.0), Face.TOP: DirichletBC(350.0)},
        )
        solution = solve_steady(problem)
        exact = dirichlet_slab_profile(chip, 300.0, 350.0)
        assert np.allclose(solution.temperature, exact(grid.points()), atol=1e-9)

    def test_layered_stack_series_resistance(self):
        """Harmonic-mean face conductivity reproduces series resistance."""
        thicknesses = [0.2e-3, 0.1e-3, 0.2e-3]
        ks = [100.0, 1.0, 10.0]
        stack = CuboidStack.from_thicknesses((0, 0), (1e-3, 1e-3), thicknesses)
        chip = stack.bounding_cuboid
        # Put nodes exactly on the layer interfaces: 0.05 mm spacing.
        grid = StructuredGrid(chip, (3, 3, 11))
        problem = HeatProblem(
            grid=grid,
            conductivity=LayeredConductivity(stack, ks),
            bcs={
                Face.TOP: NeumannBC(1000.0),
                Face.BOTTOM: ConvectionBC(500.0, T_AMB),
            },
        )
        solution = solve_steady(problem)
        t_top_expected = layered_series_resistance_t_top(
            thicknesses, ks, 1000.0, 500.0, T_AMB
        )
        t_top = solution.to_array()[:, :, -1].mean()
        # Nodal-k harmonic averaging across interfaces is approximate: the
        # interface node carries the upper layer's k. Accept ~2% here.
        assert t_top == pytest.approx(t_top_expected, rel=0.02)

    def test_manufactured_solution_second_order(self):
        errors = []
        spacings = []
        for n in (6, 11, 21):
            case = manufactured_case((n, n, n))
            solution = solve_steady(case.problem)
            err = np.max(np.abs(solution.temperature - case.exact_field()))
            errors.append(err)
            spacings.append(case.problem.grid.spacing[0])
        order = convergence_order(errors, spacings)
        assert order > 1.7, f"observed order {order:.2f}, errors {errors}"


class TestConservationAndStructure:
    def test_energy_balance_exact_for_block_power(self):
        tiles = random_block_map(np.random.default_rng(0), n_blocks=5)
        grid_map = power_units_to_flux(tiles_to_grid(tiles, (21, 21)))
        power_fn = grid_bilinear_function(grid_map, (1e-3, 1e-3))
        solution = solve_steady(_paper_problem(lambda p: power_fn(p[:, :2])))
        report = solution.info["energy"]
        assert report.injected > 0.0
        assert abs(report.relative_imbalance) < 1e-10

    def test_energy_balance_with_volumetric_source(self):
        chip = paper_chip_a()
        grid = StructuredGrid(chip, (9, 9, 9))
        problem = HeatProblem(
            grid=grid,
            conductivity=UniformConductivity(0.1),
            volumetric_power=UniformLayerPower((0.15625e-3, 0.34375e-3), 1e-3, 1e-6),
            bcs={
                Face.TOP: ConvectionBC(800.0, T_AMB),
                Face.BOTTOM: ConvectionBC(500.0, T_AMB),
            },
        )
        solution = solve_steady(problem)
        report = solution.info["energy"]
        assert report.injected == pytest.approx(1e-3, rel=1e-9)
        assert abs(report.relative_imbalance) < 1e-10

    def test_thin_layer_power_integrated_exactly(self):
        """Control-volume overlap integration makes even sub-cell layers
        inject exactly their nominal power, on any grid."""
        chip = paper_chip_a()
        for shape in ((5, 5, 5), (5, 5, 8), (5, 5, 11)):
            grid = StructuredGrid(chip, shape)
            problem = HeatProblem(
                grid=grid,
                conductivity=UniformConductivity(0.1),
                volumetric_power=UniformLayerPower((0.24e-3, 0.26e-3), 1e-3, 1e-6),
                bcs={Face.BOTTOM: ConvectionBC(500.0, T_AMB)},
            )
            solution = solve_steady(problem)
            report = solution.info["energy"]
            assert report.injected == pytest.approx(1e-3, rel=1e-9), shape
            assert abs(report.relative_imbalance) < 1e-10

    def test_experiment_b_source_injects_nominal_power(self):
        """The paper's 0.625 mW layer must inject exactly 0.625 mW on the
        Experiment-B evaluation grid (this guards against the 2x bias that
        boundary-inclusive point sampling would introduce)."""
        from repro.geometry import paper_chip_b

        chip = paper_chip_b()
        grid = StructuredGrid(chip, (21, 21, 12))
        problem = HeatProblem(
            grid=grid,
            conductivity=UniformConductivity(0.1),
            volumetric_power=UniformLayerPower.paper_experiment_b(chip),
            bcs={
                Face.TOP: ConvectionBC(500.0, T_AMB),
                Face.BOTTOM: ConvectionBC(500.0, T_AMB),
            },
        )
        solution = solve_steady(problem)
        assert solution.info["energy"].injected == pytest.approx(0.000625, rel=1e-9)

    def test_energy_balance_with_dirichlet_sink(self):
        problem = _paper_problem()
        problem.bcs[Face.BOTTOM] = DirichletBC(T_AMB)
        solution = solve_steady(problem)
        report = solution.info["energy"]
        assert report.dirichlet_out == pytest.approx(report.injected, rel=1e-9)

    def test_maximum_principle_without_sources(self):
        """No interior extremum when q_V = 0: max/min sit on the boundary."""
        solution = solve_steady(_paper_problem())
        field = solution.to_array()
        interior = field[1:-1, 1:-1, 1:-1]
        assert interior.max() <= field.max()
        assert field.max() == pytest.approx(field[:, :, -1].max())

    def test_matrix_is_symmetric(self):
        system = assemble(_paper_problem(grid_shape=(7, 7, 5)))
        difference = (system.matrix - system.matrix.T).tocoo()
        assert np.max(np.abs(difference.data)) if difference.nnz else 0.0 < 1e-12

    def test_all_adiabatic_is_singular(self):
        chip = paper_chip_a()
        problem = HeatProblem(grid=StructuredGrid(chip, (4, 4, 4)))
        with pytest.raises(ValueError, match="singular"):
            assemble(problem)

    def test_negative_conductivity_rejected(self):
        problem = _paper_problem(grid_shape=(4, 4, 4))

        class BadK:
            def __call__(self, points):
                return np.full(np.atleast_2d(points).shape[0], -1.0)

        problem.conductivity = BadK()
        with pytest.raises(ValueError, match="positive"):
            assemble(problem)


class TestSolverInterface:
    def test_info_fields(self):
        solution = solve_steady(_paper_problem(grid_shape=(5, 5, 5)))
        for key in ("solve_time", "assembly_time", "nnz", "linear_residual"):
            assert key in solution.info
        assert solution.info["linear_residual"] < 1e-8

    def test_solution_extremes(self):
        solution = solve_steady(_paper_problem())
        assert solution.t_max > solution.t_min > T_AMB

    def test_sample_interpolates(self):
        solution = solve_steady(_paper_problem(grid_shape=(5, 5, 5)))
        node = solution.grid.points()[17]
        assert solution.sample(node[None, :])[0] == pytest.approx(
            solution.temperature[17]
        )

    def test_sample_clamps_outside(self):
        solution = solve_steady(_paper_problem(grid_shape=(5, 5, 5)))
        outside = np.array([[10.0, 10.0, 10.0]])
        assert np.isfinite(solution.sample(outside)[0])


class TestPhysicalBehaviour:
    def test_hotter_under_stronger_power(self):
        weak = solve_steady(_paper_problem(power_fn=1000.0))
        strong = solve_steady(_paper_problem(power_fn=5000.0))
        assert strong.t_max > weak.t_max

    def test_better_cooling_lowers_temperature(self):
        lazy = solve_steady(_paper_problem(htc=300.0))
        strong = solve_steady(_paper_problem(htc=1500.0))
        assert strong.t_max < lazy.t_max

    def test_symmetric_power_map_gives_symmetric_field(self):
        def centered(points):
            x, y = points[:, 0], points[:, 1]
            inside = (np.abs(x - 0.5e-3) < 0.2e-3) & (np.abs(y - 0.5e-3) < 0.2e-3)
            return np.where(inside, 5000.0, 0.0)

        solution = solve_steady(_paper_problem(power_fn=centered))
        field = solution.to_array()
        assert np.allclose(field, field[::-1, :, :], atol=1e-8)
        assert np.allclose(field, field[:, ::-1, :], atol=1e-8)
        assert np.allclose(field, np.swapaxes(field, 0, 1), atol=1e-8)

    def test_hot_spot_above_heat_block(self):
        def corner_block(points):
            x, y = points[:, 0], points[:, 1]
            return np.where((x < 0.3e-3) & (y < 0.3e-3), 10000.0, 0.0)

        solution = solve_steady(_paper_problem(power_fn=corner_block))
        top = solution.to_array()[:, :, -1]
        hot = np.unravel_index(np.argmax(top), top.shape)
        assert hot[0] <= 6 and hot[1] <= 6  # within/near the heated corner

    def test_inhomogeneous_htc_shifts_cold_side(self):
        def lopsided(points):
            return 200.0 + 1.3e6 * points[:, 0]  # stronger cooling at +x

        solution = solve_steady(_paper_problem(htc=lopsided))
        bottom = solution.to_array()[:, :, 0]
        assert bottom[0].mean() > bottom[-1].mean()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_energy_balance_random_power_maps(seed):
    """Conservation must hold for arbitrary block power maps."""
    rng = np.random.default_rng(seed)
    tiles = random_block_map(rng, n_blocks=int(rng.integers(1, 8)))
    grid_map = power_units_to_flux(tiles_to_grid(tiles, (11, 11)))
    power_fn = grid_bilinear_function(grid_map, (1e-3, 1e-3))
    problem = _paper_problem(
        power_fn=lambda p: power_fn(p[:, :2]), grid_shape=(11, 11, 7)
    )
    solution = solve_steady(problem)
    assert abs(solution.info["energy"].relative_imbalance) < 1e-9


@settings(max_examples=10, deadline=None)
@given(
    htc_top=st.floats(min_value=333.33, max_value=1000.0),
    htc_bottom=st.floats(min_value=333.33, max_value=1000.0),
)
def test_property_temperature_above_ambient_with_positive_power(htc_top, htc_bottom):
    """Experiment-B style problems stay above ambient everywhere."""
    chip = Cuboid((0, 0, 0), (1e-3, 1e-3, 0.55e-3))
    grid = StructuredGrid(chip, (7, 7, 9))
    problem = HeatProblem(
        grid=grid,
        conductivity=UniformConductivity(0.1),
        volumetric_power=UniformLayerPower.paper_experiment_b(chip),
        bcs={
            Face.TOP: ConvectionBC(htc_top, T_AMB),
            Face.BOTTOM: ConvectionBC(htc_bottom, T_AMB),
        },
    )
    solution = solve_steady(problem)
    assert solution.t_min > T_AMB - 1e-9
