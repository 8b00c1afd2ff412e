"""Solver tiers: parity, repeat solves, byte-budget policy.

The contract under test:

* the ``block_cg`` tier reproduces the LU tier to <= 1e-8 K on
  realistic operators, across operator sizes, and its per-block
  iteration counts are observable through ``cache_stats()["iterations"]``;
* a repeat solve of one design on one farm is bitwise equal to the
  first, on ``block_cg`` and on ``auto`` degraded to it;
* the default (``solver=None``) and explicit ``solver="lu"`` are one
  code path: bitwise-equal answers, equal factorization counts;
* ``solver="auto"`` degrades to ``block_cg`` under a byte budget
  while explicit ``solver="lu"`` refuses up front with
  :class:`MemoryBudgetExceeded`.
"""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.bc import ConvectionBC, NeumannBC
from repro.fdm import (
    HeatProblem,
    MemoryBudgetExceeded,
    SolveFarm,
    choose_tier,
    estimate_lu_bytes,
    operator_digest,
)
from repro.fdm.krylov import estimate_csr_bytes
from repro.geometry import Face, StructuredGrid, paper_chip_a
from repro.materials import UniformConductivity

T_AMB = 298.15
PARITY_K = 1e-8


def _problem(grid_shape=(7, 7, 5), k=0.1, influx=2500.0, htc=500.0):
    """Experiment-A-shaped problem: power on top, convection bottom."""
    grid = StructuredGrid(paper_chip_a(), grid_shape)
    return HeatProblem(
        grid=grid,
        conductivity=UniformConductivity(k),
        bcs={
            Face.TOP: NeumannBC(influx),
            Face.BOTTOM: ConvectionBC(htc, T_AMB),
        },
    )


def _sweep(grid_shape, fluxes=(1000.0, 2000.0, 3000.0, 4000.0)):
    """One operator, len(fluxes) right-hand sides."""
    return [_problem(grid_shape, influx=f) for f in fluxes]


def _max_dev(solutions, references):
    return max(
        float(np.abs(s.temperature - r.temperature).max())
        for s, r in zip(solutions, references)
    )


# ----------------------------------------------------------------------
# Tier-vs-LU parity across operator sizes
# ----------------------------------------------------------------------
class TestTierParity:
    @pytest.mark.parametrize("grid_shape", [(7, 7, 5), (11, 11, 7), (15, 15, 9)])
    @pytest.mark.parametrize("tier", ["block_cg"])
    def test_matches_lu(self, grid_shape, tier):
        problems = _sweep(grid_shape)
        reference = SolveFarm().solve_many(problems, solver="lu")
        solutions = SolveFarm().solve_many(problems, solver=tier)
        assert _max_dev(solutions, reference) <= PARITY_K
        info = solutions[0].info
        assert info["solver"] == tier
        assert all(
            abs(s.info["energy"].relative_imbalance) <= 1e-8 for s in solutions
        )

    @pytest.mark.parametrize(
        "case", ["single_operator", "htc_siblings", "over_budget"]
    )
    def test_legacy_default_is_untouched(self, case):
        if case == "htc_siblings":
            # Eight experiment-B designs: the shared-LU sibling path.
            setup = scenario_for("b", scale="test").compile()
            rng = np.random.default_rng(5)
            problems = [
                setup.model.concrete_config(
                    {"htc_top": top, "htc_bottom": bottom}
                ).heat_problem(setup.eval_grid)
                for top, bottom in rng.uniform(333.33, 1000.0, size=(8, 2))
            ]
        else:
            problems = _sweep((7, 7, 5))
        default_farm, lu_farm = SolveFarm(), SolveFarm()
        if case == "over_budget":
            # Under the default a budget only evicts; explicit "lu"
            # refuses, so the reference is an unbudgeted farm.
            n = problems[0].grid.n_nodes
            budget = estimate_csr_bytes(n) + estimate_lu_bytes(n) - 1
            with pytest.raises(MemoryBudgetExceeded):
                SolveFarm(max_bytes=budget).solve_many(problems, solver="lu")
            default_farm = SolveFarm(max_bytes=budget)
        default = default_farm.solve_many(problems)
        tiered = lu_farm.solve_many(problems, solver="lu")
        for lhs, rhs in zip(default, tiered):
            assert np.array_equal(lhs.temperature, rhs.temperature)
        assert default_farm.stats.factorizations == 1
        assert lu_farm.stats.factorizations == 1
        assert "solver" not in default[0].info
        assert tiered[0].info["solver"] == "lu"

    def test_cache_stats_iterations_shape(self):
        farm = SolveFarm()
        problems = _sweep((9, 9, 7))
        farm.solve_many(problems, solver="block_cg")
        stats = farm.cache_stats()
        digest16 = operator_digest(problems[0])[:16]
        history = stats["iterations"][digest16]
        assert history["total"] == sum(history["per_block"])
        assert len(history["per_block"]) == history["blocks"]


# ----------------------------------------------------------------------
# Repeat solves on one farm
# ----------------------------------------------------------------------
class TestRepeatSolves:
    @pytest.mark.parametrize("solver", ["block_cg", "auto"])
    def test_low_htc_repeat_is_bitwise(self, solver):
        # Experiment B at HTC (1, 1), far below its sampled range: the
        # weakest convection, so the least diagonally dominant operator.
        setup = scenario_for("b", scale="test").compile()
        design = {"htc_top": 1.0, "htc_bottom": 1.0}
        problem = setup.model.concrete_config(design).heat_problem(setup.eval_grid)
        reference = SolveFarm().solve(problem, solver="lu")
        n = problem.grid.n_nodes
        # Under "auto" a budget the direct tier cannot meet forces block_cg.
        farm = SolveFarm(max_bytes=estimate_csr_bytes(n))
        repeats = [farm.solve(problem, solver=solver) for _ in range(3)]
        for solution in repeats:
            assert solution.info["solver"] == "block_cg"
            assert solution.info["iterations"] > 0
            assert _max_dev([solution], [reference]) <= PARITY_K
            assert np.array_equal(solution.temperature, repeats[0].temperature)


# ----------------------------------------------------------------------
# Byte-budget policy
# ----------------------------------------------------------------------
class TestTierPolicy:
    def test_choose_tier_thresholds(self):
        n = 33**3
        full = estimate_csr_bytes(n) + estimate_lu_bytes(n)
        assert choose_tier(n, full) == "lu"
        assert choose_tier(n, full - 1) == "block_cg"
        assert choose_tier(n, 3 * estimate_csr_bytes(n) - 1) == "block_cg"
        assert choose_tier(245, None) == "lu"  # default cap, tiny operator

    def test_explicit_lu_refuses_over_budget(self):
        problems = _sweep((7, 7, 5))
        n = problems[0].grid.n_nodes
        farm = SolveFarm(max_bytes=estimate_csr_bytes(n))
        with pytest.raises(MemoryBudgetExceeded, match="refused"):
            farm.solve_many(problems, solver="lu")

    def test_auto_degrades_to_block_cg(self):
        problems = _sweep((7, 7, 5))
        n = problems[0].grid.n_nodes
        reference = SolveFarm().solve_many(problems, solver="lu")
        farm = SolveFarm(max_bytes=estimate_csr_bytes(n))
        solutions = farm.solve_many(problems, solver="auto")
        assert solutions[0].info["solver"] == "block_cg"
        assert _max_dev(solutions, reference) <= PARITY_K

    def test_bad_solver_name_rejected(self):
        with pytest.raises(ValueError):
            SolveFarm().solve_many(_sweep((7, 7, 5)), solver="cholesky")
        with pytest.raises(ValueError):
            SolveFarm(solver="cholesky")
