"""Shared-operator solve farm: cache-correctness, block-solve parity, LRU.

The contract under test (ISSUE 3):

* operator digests key on grid / conductivity / BC structure / HTC values
  — changing any of those must *miss* the cache; RHS-only changes (power
  map, Neumann flux magnitude, ambient temperature, Dirichlet values)
  must *hit* it;
* cache-hit solutions are bitwise identical to cold-cache solutions, and
  block multi-RHS solves are bitwise identical to one-at-a-time solves;
* every farm-solved problem keeps the discrete energy balance to <= 1e-8
  relative imbalance;
* operators that differ only in HTC (equal structure digest) share one
  factorization: siblings are solved to LU accuracy by LU-preconditioned
  CG, and fall back to their own LU past the iteration cap.
"""

import threading

import numpy as np
import pytest

from repro.bc import AdiabaticBC, ConvectionBC, DirichletBC, NeumannBC
from repro.fdm import (
    HeatProblem,
    SolveFarm,
    TransientSolver,
    assemble,
    assemble_operator,
    get_default_farm,
    operator_digest,
    reset_default_farm,
    solve_many,
    solve_steady,
    structure_digest,
)
from repro.geometry import Face, StructuredGrid, paper_chip_a
from repro.materials import UniformConductivity
from repro.power import UniformLayerPower

T_AMB = 298.15


def _problem(
    grid_shape=(7, 7, 5),
    k=0.1,
    influx=2500.0,
    htc=500.0,
    t_ambient=T_AMB,
    top_bc=None,
    bottom_bc=None,
    power=None,
):
    """Experiment-A-shaped problem: power on top, convection bottom."""
    chip = paper_chip_a()
    grid = StructuredGrid(chip, grid_shape)
    bcs = {
        Face.TOP: top_bc if top_bc is not None else NeumannBC(influx),
        Face.BOTTOM: (
            bottom_bc if bottom_bc is not None else ConvectionBC(htc, t_ambient)
        ),
    }
    kwargs = {"grid": grid, "conductivity": UniformConductivity(k), "bcs": bcs}
    if power is not None:
        kwargs["volumetric_power"] = power
    return HeatProblem(**kwargs)


# ----------------------------------------------------------------------
# Operator digest: what must hit and what must miss.
# ----------------------------------------------------------------------
class TestOperatorDigest:
    def test_rhs_only_changes_share_the_digest(self):
        base = operator_digest(_problem())
        # Neumann flux magnitude (the power map) is RHS-only.
        assert operator_digest(_problem(influx=9000.0)) == base
        # Ambient temperature enters b = ... + h A T_amb, not the matrix.
        assert operator_digest(_problem(t_ambient=310.0)) == base
        # A spatially-varying power map is still the same operator.
        assert (
            operator_digest(
                _problem(top_bc=NeumannBC(lambda p: 1e3 * (1 + p[:, 0] * 1e3)))
            )
            == base
        )

    def test_volumetric_power_is_rhs_only(self):
        powered = _problem(
            power=UniformLayerPower((0.15e-3, 0.35e-3), 1e-3, 1e-6)
        )
        assert operator_digest(powered) == operator_digest(_problem())

    def test_dirichlet_value_is_rhs_only(self):
        hot = _problem(bottom_bc=DirichletBC(350.0))
        cold = _problem(bottom_bc=DirichletBC(300.0))
        assert operator_digest(hot) == operator_digest(cold)

    def test_conductivity_change_misses(self):
        assert operator_digest(_problem(k=0.2)) != operator_digest(_problem())

    def test_htc_value_change_misses(self):
        assert operator_digest(_problem(htc=750.0)) != operator_digest(_problem())

    def test_bc_type_change_misses(self):
        base = operator_digest(_problem())
        dirichlet = operator_digest(_problem(bottom_bc=DirichletBC(T_AMB)))
        convective_top = operator_digest(
            _problem(top_bc=ConvectionBC(100.0, T_AMB))
        )
        assert dirichlet != base
        assert convective_top != base
        assert dirichlet != convective_top

    def test_grid_change_misses(self):
        assert operator_digest(_problem(grid_shape=(9, 9, 5))) != operator_digest(
            _problem()
        )

    def test_adiabatic_is_a_zero_flux_neumann_operator(self):
        """Adiabatic vs non-zero Neumann leave the matrix identical."""
        adiabatic = _problem(top_bc=AdiabaticBC())
        assert operator_digest(adiabatic) == operator_digest(_problem())

    def test_structure_digest_ignores_only_htc_values(self):
        base = structure_digest(_problem())
        assert structure_digest(_problem(htc=750.0, influx=10.0)) == base
        assert structure_digest(_problem(k=0.2)) != base
        assert structure_digest(_problem(bottom_bc=DirichletBC(T_AMB))) != base
        assert structure_digest(_problem(grid_shape=(9, 9, 5))) != base


# ----------------------------------------------------------------------
# Cache behaviour + numerical parity.
# ----------------------------------------------------------------------
class TestFarmSolves:
    def test_rhs_only_change_hits_and_matches_cold_path_bitwise(self):
        farm = SolveFarm()
        farm.solve(_problem(influx=1000.0))
        assert farm.stats.operator_misses == 1

        hot = _problem(influx=7777.0)
        warm = farm.solve(hot)  # operator + factorization from cache
        assert farm.stats.operator_hits == 1
        assert farm.stats.factorizations == 1
        assert warm.info["operator_cached"]

        cold = SolveFarm().solve(hot)
        assert np.array_equal(warm.temperature, cold.temperature)

    def test_farm_matches_solve_steady(self):
        problems = [
            _problem(influx=500.0 * (index + 1)) for index in range(5)
        ]
        farm = SolveFarm()
        solutions = farm.solve_many(problems)
        for problem, solution in zip(problems, solutions):
            reference = solve_steady(problem)
            assert np.abs(
                solution.temperature - reference.temperature
            ).max() <= 1e-8

    def test_block_solve_is_bitwise_identical_to_single_solves(self):
        problems = [
            _problem(influx=300.0 + 100.0 * index) for index in range(4)
        ]
        block = SolveFarm().solve_many(problems)
        for problem, solution in zip(problems, block):
            single = SolveFarm().solve(problem)
            assert np.array_equal(solution.temperature, single.temperature)

    def test_mixed_operator_batch_comes_back_in_input_order(self):
        problems = [
            _problem(influx=1000.0),
            _problem(htc=750.0, influx=1000.0),
            _problem(influx=2000.0),
            _problem(htc=750.0, influx=2000.0),
        ]
        farm = SolveFarm()
        solutions = farm.solve_many(problems)
        assert farm.stats.operator_misses == 2
        assert farm.stats.block_solves == 2
        for problem, solution in zip(problems, solutions):
            reference = solve_steady(problem)
            assert np.abs(
                solution.temperature - reference.temperature
            ).max() <= 1e-8

    def test_energy_balance_for_every_farm_problem_class(self):
        problems = [
            _problem(influx=4000.0),
            _problem(bottom_bc=DirichletBC(320.0)),
            _problem(power=UniformLayerPower((0.15e-3, 0.35e-3), 1e-3, 1e-6)),
            _problem(t_ambient=285.0, influx=1234.5),
        ]
        solutions = SolveFarm().solve_many(problems)
        for solution in solutions:
            report = solution.info["energy"]
            assert abs(report.relative_imbalance) <= 1e-8

    def test_assembled_matches_legacy_assemble(self):
        problem = _problem(bottom_bc=DirichletBC(305.0))
        farm = SolveFarm()
        via_farm = farm.assembled(problem)
        legacy = assemble(problem)
        assert (via_farm.matrix != legacy.matrix).nnz == 0
        assert (via_farm.matrix_raw != legacy.matrix_raw).nnz == 0
        assert np.array_equal(via_farm.rhs, legacy.rhs)
        assert np.array_equal(via_farm.rhs_raw, legacy.rhs_raw)
        assert np.array_equal(via_farm.dirichlet_values, legacy.dirichlet_values)
        assert via_farm.injected_power == legacy.injected_power

    def test_lru_eviction(self):
        farm = SolveFarm(max_operators=2)
        keys = []
        for k in (0.1, 0.2, 0.3):
            problem = _problem(k=k)
            keys.append(operator_digest(problem))
            farm.solve(problem)
        assert farm.cache_info()["cached_operators"] == 2
        assert farm.stats.evictions == 1
        assert farm.cached_keys() == keys[1:]  # oldest evicted
        # Re-solving the evicted operator is a miss again.
        farm.solve(_problem(k=0.1))
        assert farm.stats.operator_misses == 4


# ----------------------------------------------------------------------
# Default farm + module-level API.
# ----------------------------------------------------------------------
class TestDefaultFarm:
    def test_shared_instance_and_reset(self):
        reset_default_farm()
        farm = get_default_farm()
        assert get_default_farm() is farm
        reset_default_farm()
        assert get_default_farm() is not farm

    def test_module_level_solve_many(self):
        reset_default_farm()
        solutions = solve_many([_problem(), _problem(influx=100.0)])
        assert len(solutions) == 2
        assert get_default_farm().stats.problems_solved == 2
        reset_default_farm()


# ----------------------------------------------------------------------
# Transient integration (satellite: initial_steady + dt-keyed LHS cache).
# ----------------------------------------------------------------------
class TestTransientFarm:
    def test_initial_steady_reuses_farm_factorization(self):
        problem = _problem()
        farm = SolveFarm()
        solver = TransientSolver(problem, 1.6e6, farm=farm)
        steady = solver.initial_steady()
        assert farm.stats.factorizations == 1
        reference = solve_steady(problem)
        assert np.abs(steady - reference.temperature).max() <= 1e-8
        # Another call keeps using the same factorization.
        again = solver.initial_steady()
        assert farm.stats.factorizations == 1
        assert np.array_equal(steady, again)
        # steady_state stays as a compatible alias.
        assert np.array_equal(solver.steady_state(), steady)

    def test_theta_lhs_factorization_keyed_by_dt(self):
        problem = _problem(grid_shape=(5, 5, 4))
        solver = TransientSolver(problem, 1.6e6, farm=SolveFarm())
        t0 = np.full(problem.grid.n_nodes, T_AMB)
        tau = solver.time_constant()
        solver.run(t0, dt=tau / 50, n_steps=2)
        solver.run(t0, dt=tau / 25, n_steps=2)
        solver.run(t0, dt=tau / 50, n_steps=2)  # alternating: no refactor
        assert len(solver._lhs_factors) == 2
        # Distinct theta is a distinct LHS.
        solver.run(t0, dt=tau / 50, n_steps=2, theta=0.5)
        assert len(solver._lhs_factors) == 3

    def test_cached_dt_factor_matches_fresh_solver(self):
        problem = _problem(grid_shape=(5, 5, 4))
        t0 = np.full(problem.grid.n_nodes, T_AMB)
        tau = 1.0
        warm = TransientSolver(problem, 1.6e6, farm=SolveFarm())
        warm.run(t0, dt=tau, n_steps=3)  # seed the (dt, theta) cache
        warm_result = warm.run(t0, dt=tau, n_steps=3)
        fresh_result = TransientSolver(problem, 1.6e6, farm=SolveFarm()).run(
            t0, dt=tau, n_steps=3
        )
        assert np.array_equal(warm_result.snapshots, fresh_result.snapshots)


# ----------------------------------------------------------------------
# Satellites in solver.py.
# ----------------------------------------------------------------------
class TestSolverSatellites:
    def test_sample_caches_the_interpolator(self):
        solution = solve_steady(_problem())
        points = problem_points = solution.grid.points()[:5]
        first = solution.sample(points)
        built = solution._interpolator
        assert built is not None
        second = solution.sample(problem_points)
        assert solution._interpolator is built
        assert np.array_equal(first, second)
        # Nodal sampling reproduces the nodal field.
        assert np.allclose(first, solution.temperature[:5], atol=1e-9)


    @pytest.mark.parametrize("dirichlet", [True, False])
    def test_slot_nbytes_counts_both_operator_halves(self, dirichlet):
        from repro.fdm.farm import _CachedOperator, _sparse_nbytes

        bottom = DirichletBC(T_AMB) if dirichlet else None
        operator = assemble_operator(
            _problem(grid_shape=(11, 11, 7), bottom_bc=bottom)
        )
        slot = _CachedOperator(operator=operator)
        matrix = _sparse_nbytes(operator.matrix)
        if dirichlet:
            assert operator.matrix_raw is not operator.matrix
            assert slot.nbytes == matrix + _sparse_nbytes(operator.matrix_raw)
        else:
            assert operator.matrix_raw is operator.matrix
            assert slot.nbytes == matrix


# ----------------------------------------------------------------------
# Thread-safe session caches (serving threads share both).
# ----------------------------------------------------------------------
class TestThreadSafeCaches:
    def test_trunk_cache_survives_hammering(self):
        from repro.engine import TrunkFeatureCache

        cache = TrunkFeatureCache(4)
        errors = []

        def worker(tag):
            try:
                rng = np.random.default_rng(tag)
                for i in range(200):
                    key = ("grid", int(rng.integers(0, 8)))
                    if cache.get(key) is None:
                        cache.put(key, np.full((3, 3), tag))
                    cache.info()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.info().entries <= 4

    def test_farm_cache_concurrent_solves(self):
        farm = SolveFarm(max_operators=2)
        problems = [
            _problem(k=0.05 * (1 + tag), influx=1000.0) for tag in range(4)
        ]
        errors = []

        def worker(problem):
            try:
                for _ in range(5):
                    farm.solve_many([problem])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in problems
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert farm.cache_info()["cached_operators"] <= 2


# ----------------------------------------------------------------------
# Operators that differ only in HTC share one factorization.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def htc_problem():
    """Experiment-B designs (top/bottom HTC inputs) on its eval grid."""
    from repro.api import scenario_for

    setup = scenario_for("b", scale="test").compile()

    def build(top, bottom):
        design = {"htc_top": top, "htc_bottom": bottom}
        return setup.model.concrete_config(design).heat_problem(setup.eval_grid)

    return build


def _assert_matches_solve_steady(problems, solutions, atol):
    for problem, solution in zip(problems, solutions):
        reference = solve_steady(problem).temperature
        assert np.abs(solution.temperature - reference).max() <= atol(reference)
        assert abs(solution.info["energy"].relative_imbalance) <= 1e-8


class TestSharedStructure:
    def test_htc_sweep_factorizes_once(self, htc_problem):
        rng = np.random.default_rng(5)
        cases = rng.uniform(333.33, 1000.0, size=(8, 2))
        problems = [htc_problem(top, bottom) for top, bottom in cases]
        farm = SolveFarm()
        solutions = farm.solve_many(problems)
        assert farm.stats.factorizations == 1
        _assert_matches_solve_steady(problems, solutions, lambda ref: 1e-10)

        pivots = [s for s in solutions if "preconditioned_by" not in s.info]
        assert len(pivots) == 1
        pivot_key = pivots[0].info["operator_key"]
        assert pivots[0].info["factor_time"] > 0
        iterations = farm.cache_stats()["iterations"]
        for solution in solutions:
            if solution is pivots[0]:
                continue
            assert solution.info["preconditioned_by"] == pivot_key
            assert solution.info["factor_time"] == 0.0
            assert 0 < solution.info["iterations"] <= 10
            assert iterations[solution.info["operator_key"]]["per_block"] == [
                solution.info["iterations"]
            ]

        reversed_solutions = SolveFarm().solve_many(problems[::-1])[::-1]
        for forward, backward in zip(solutions, reversed_solutions):
            assert (
                np.abs(forward.temperature - backward.temperature).max() <= 1e-10
            )

    def test_resident_lu_is_preferred_as_pivot(self, htc_problem):
        farm = SolveFarm()
        resident = farm.solve(htc_problem(1000.0, 1000.0))
        problems = [htc_problem(400.0, 500.0), htc_problem(1000.0, 1000.0)]
        solutions = farm.solve_many(problems)
        assert farm.stats.factorizations == 1
        assert solutions[1].info["factor_time"] == 0.0
        assert np.array_equal(solutions[1].temperature, resident.temperature)
        assert solutions[0].info["preconditioned_by"] == (
            resident.info["operator_key"]
        )
        _assert_matches_solve_steady(problems, solutions, lambda ref: 1e-10)

    def test_extreme_spread_hits_the_cap_and_refactorizes(self, htc_problem):
        cases = [(1.0, 1.0), (1e5, 1e5), (10.0, 1e4)]
        problems = [htc_problem(top, bottom) for top, bottom in cases]
        farm = SolveFarm()
        solutions = farm.solve_many(problems)
        assert farm.stats.factorizations > 1
        _assert_matches_solve_steady(
            problems, solutions, lambda ref: 1e-11 * ref.max()
        )

    def test_resident_high_htc_pivot_keeps_siblings_accurate(self, htc_problem):
        # The resident pivot has the largest HTC, so every sibling
        # subtracts from its diagonal: the one-sided case for the stop.
        farm = SolveFarm()
        farm.solve(htc_problem(1e5, 1e5))
        cases = [(1.0, 1.0), (10.0, 1e4), (1e5, 1e5)]
        problems = [htc_problem(top, bottom) for top, bottom in cases]
        solutions = farm.solve_many(problems)
        assert farm.stats.factorizations == 1
        assert "preconditioned_by" in solutions[0].info
        _assert_matches_solve_steady(
            problems, solutions, lambda ref: 1e-11 * ref.max()
        )

    def test_conductivity_or_bc_kind_change_never_shares_a_pivot(self):
        problems = [
            _problem(htc=500.0),
            _problem(htc=750.0, k=0.2),
            _problem(htc=900.0, top_bc=ConvectionBC(100.0, T_AMB)),
            _problem(bottom_bc=DirichletBC(T_AMB)),
        ]
        farm = SolveFarm()
        solutions = farm.solve_many(problems)
        assert farm.stats.factorizations == len(problems)
        assert all("preconditioned_by" not in s.info for s in solutions)

    def test_single_digest_call_skips_the_structure_digest(self, monkeypatch):
        def forbidden(problem):
            raise AssertionError("structure_digest on a single-digest call")

        monkeypatch.setattr("repro.fdm.farm.structure_digest", forbidden)
        farm = SolveFarm()
        farm.solve_many([_problem(influx=100.0 * (i + 1)) for i in range(3)])
        farm.solve(_problem(htc=750.0))
        assert farm.stats.factorizations == 2
