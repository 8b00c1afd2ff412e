"""Reference-solver farm benchmark: shared-operator sweep vs per-design.

PR 1/2 made the surrogate side fast; this bench pins the contract that
makes the *reference* side keep up on sweep workloads (Table-I suites,
floorplan validation, dataset generation).  A 16-design power-map sweep
shares one operator — only the top-face Neumann RHS changes — so the
farm assembles + factorizes once and back-substitutes all right-hand
sides as one ``(n, 16)`` block:

* ``SolveFarm.solve_many`` over the sweep must deliver >= 5x the
  throughput of per-design ``solve_steady`` calls (each of which
  re-assembles and re-factorizes from scratch);
* farm temperatures must match ``solve_steady`` to <= 1e-8 K max-abs;
* every farm solution's energy audit must balance to <= 1e-8 relative.

Methodology: the per-design baseline is timed over one full pass; the
farm is timed as the median of three sweeps, each on a *fresh* farm so
the number honestly includes the one assembly + factorization being
amortised.  No trained model is needed — the sweep exercises the FV
substrate only.  With ``REPRO_SMOKE=1`` (the CI perf-contract job) only
the parity and energy contracts are asserted: throughput ratios on
loaded CI runners are noise.

PR 9 adds the **mesh-scaling ladder**: the same 4-design sweep climbed
across grid sizes, solved by every tier (``lu`` / ``block_cg`` /
``recycled``) that fits, with wall time + peak RSS per tier and a final
rung whose estimated CSR + LU fill footprint exceeds the farm byte
budget — the ``lu`` tier is shown *refusing* up front
(:class:`~repro.fdm.MemoryBudgetExceeded`) while ``solver="auto"``
degrades to the matrix-free recycled tier and completes.  Peak RSS is
the process high-water mark (``ru_maxrss``) sampled after each tier;
tiers run in ascending memory order (recycled → block_cg → lu) so each
increment is attributable to the tier that caused it.

Run with ``pytest benchmarks/bench_fdm_farm.py``; measured numbers land
in ``benchmarks/out/fdm_farm.txt`` and ``benchmarks/out/fdm_scaling.json``
(the repo-root ``BENCH_fdm.json`` / ``BENCH_fdm_scaling.json`` record the
committed perf trajectory).
"""

import json
import resource
import time

import numpy as np
import pytest
from conftest import SMOKE

from repro.api import scenario_for
from repro.bc import ConvectionBC, NeumannBC
from repro.fdm import (
    HeatProblem,
    MemoryBudgetExceeded,
    SolveFarm,
    estimate_lu_bytes,
    solve_steady,
)
from repro.fdm.krylov import estimate_csr_bytes
from repro.geometry import Face, StructuredGrid, paper_chip_a
from repro.materials import UniformConductivity

N_DESIGNS = 16
MIN_SPEEDUP = 5.0
MAX_ABS_DEV = 1e-8
MAX_ENERGY_IMBALANCE = 1e-8
FARM_ROUNDS = 1 if SMOKE else 3


def _sweep_problems():
    """16 GRF power-map designs on the experiment-A grid (one operator)."""
    setup = scenario_for("a", scale="test" if SMOKE else "ci").compile()
    rng = np.random.default_rng(7)
    maps = setup.model.inputs[0].sample(rng, N_DESIGNS)
    grid = setup.eval_grid
    return grid, [
        setup.model.concrete_config({"power_map": power_map}).heat_problem(grid)
        for power_map in maps
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_farm_sweep_throughput_and_parity(out_dir):
    """The acceptance numbers: >= 5x sweep throughput, <= 1e-8 K parity."""
    grid, problems = _sweep_problems()

    # Baseline: the pre-farm path, one assembly + factorization per design.
    references, baseline_seconds = _timed(
        lambda: [solve_steady(problem) for problem in problems]
    )

    # Farm: fresh each round so the timing includes the amortised
    # assembly + factorization; median de-noises.
    rounds = []
    for _ in range(FARM_ROUNDS):
        solutions, seconds = _timed(lambda: SolveFarm().solve_many(problems))
        rounds.append(seconds)
    farm_seconds = sorted(rounds)[len(rounds) // 2]

    max_dev = max(
        float(np.abs(solution.temperature - reference.temperature).max())
        for solution, reference in zip(solutions, references)
    )
    worst_energy = max(
        abs(solution.info["energy"].relative_imbalance) for solution in solutions
    )
    baseline_rate = N_DESIGNS / baseline_seconds
    farm_rate = N_DESIGNS / max(farm_seconds, 1e-12)
    speedup = farm_rate / baseline_rate

    text = "\n".join(
        [
            f"fdm farm sweep ({N_DESIGNS} power maps, grid {grid.shape})",
            f"per-design solve_steady : {baseline_rate:8.1f} solves/s",
            f"farm block solve        : {farm_rate:8.1f} solves/s",
            f"speedup                 : {speedup:8.1f}x",
            f"max |dT| vs solve_steady: {max_dev:10.3e} K",
            f"worst energy imbalance  : {worst_energy:10.3e}",
            "",
        ]
    )
    (out_dir / "fdm_farm.txt").write_text(text)
    (out_dir / "fdm_farm.json").write_text(
        json.dumps(
            {
                "n_designs": N_DESIGNS,
                "grid": list(grid.shape),
                "baseline_solves_per_sec": round(baseline_rate, 2),
                "farm_solves_per_sec": round(farm_rate, 2),
                "speedup": round(speedup, 2),
                "max_abs_deviation_K": max_dev,
                "worst_energy_imbalance": worst_energy,
                "smoke": SMOKE,
            },
            indent=2,
        )
    )
    print("\n" + text)

    assert max_dev <= MAX_ABS_DEV, f"farm deviates from solve_steady by {max_dev}"
    assert worst_energy <= MAX_ENERGY_IMBALANCE, (
        f"farm-solved problem breaks energy balance: {worst_energy}"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"farm only {speedup:.1f}x over per-design solve_steady"
        )


# ----------------------------------------------------------------------
# Mesh-scaling ladder (PR 9)
# ----------------------------------------------------------------------
LADDER = (9, 13, 17) if SMOKE else (17, 25, 33)
LARGE = 21 if SMOKE else 97
# Chosen so at the large rung the CSR+LU estimate AND 3x CSR both exceed
# the budget: explicit lu refuses, auto degrades to matrix-free recycled.
LARGE_BUDGET = 4_000_000 if SMOKE else 256 * 1024 * 1024
LADDER_DESIGNS = 4
TIER_ORDER = ("recycled", "block_cg", "lu")  # ascending resident memory


def _ladder_problems(side):
    """4 designs on a cubic grid sharing one operator (flux-only deltas)."""
    grid = StructuredGrid(paper_chip_a(), (side, side, side))
    return [
        HeatProblem(
            grid=grid,
            conductivity=UniformConductivity(0.1),
            bcs={
                Face.TOP: NeumannBC(2500.0 * (1 + i)),
                Face.BOTTOM: ConvectionBC(500.0, 298.15),
            },
        )
        for i in range(LADDER_DESIGNS)
    ]


def _rss_kb() -> int:
    """Process peak-RSS high-water mark in KiB (monotone within a run)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _tier_iterations(farm):
    """Per-block iteration history of the rung's single operator digest."""
    history = farm.cache_stats()["iterations"]
    return next(iter(history.values()))["per_block"] if history else []


def test_mesh_scaling_ladder(out_dir):
    """Every tier climbs the ladder; LU refuses the rung it cannot fit.

    Contracts: block_cg and recycled match LU to <= 1e-8 K wherever LU
    fits; every tier's energy audit balances to <= 1e-8; at the large
    rung explicit ``solver="lu"`` raises
    :class:`~repro.fdm.MemoryBudgetExceeded` while ``solver="auto"``
    degrades to the recycled tier and completes.
    """
    rungs = []
    for side in LADDER:
        n = side**3
        problems = _ladder_problems(side)
        tiers = {}
        reference = None
        for tier in TIER_ORDER:
            farm = SolveFarm()
            start = time.perf_counter()
            solutions = farm.solve_many(problems, solver=tier)
            seconds = time.perf_counter() - start
            record = {
                "seconds": round(seconds, 4),
                "peak_rss_kb": _rss_kb(),
                "iterations": _tier_iterations(farm),
            }
            worst_energy = max(
                abs(s.info["energy"].relative_imbalance) for s in solutions
            )
            assert worst_energy <= MAX_ENERGY_IMBALANCE, (
                f"{tier}@{side}^3 energy imbalance {worst_energy}"
            )
            record["worst_energy_imbalance"] = worst_energy
            if tier == "lu":
                reference = solutions
            tiers[tier] = (record, solutions)
        for tier in ("recycled", "block_cg"):
            record, solutions = tiers[tier]
            max_dev = max(
                float(np.abs(s.temperature - r.temperature).max())
                for s, r in zip(solutions, reference)
            )
            assert max_dev <= MAX_ABS_DEV, (
                f"{tier}@{side}^3 deviates from lu by {max_dev} K"
            )
            record["max_dev_vs_lu_K"] = max_dev
        rungs.append(
            {
                "shape": [side, side, side],
                "n_nodes": n,
                "csr_bytes_est": estimate_csr_bytes(n),
                "lu_bytes_est": estimate_lu_bytes(n),
                "tiers": {tier: record for tier, (record, _) in tiers.items()},
            }
        )

    # The rung the direct tier cannot climb: CSR+LU (and 3x CSR) exceed
    # the budget, so lu refuses up front and auto goes matrix-free.
    n = LARGE**3
    lu_footprint = estimate_csr_bytes(n) + estimate_lu_bytes(n)
    assert lu_footprint > LARGE_BUDGET
    assert 3 * estimate_csr_bytes(n) > LARGE_BUDGET
    problems = _ladder_problems(LARGE)
    farm = SolveFarm(max_bytes=LARGE_BUDGET)
    with pytest.raises(MemoryBudgetExceeded) as refusal:
        farm.solve_many(problems, solver="lu")
    farm = SolveFarm(max_bytes=LARGE_BUDGET)
    start = time.perf_counter()
    solutions = farm.solve_many(problems, solver="auto")
    seconds = time.perf_counter() - start
    assert solutions[0].info["solver"] == "recycled"
    assert solutions[0].info["matrix_free"]
    worst_energy = max(
        abs(s.info["energy"].relative_imbalance) for s in solutions
    )
    assert worst_energy <= MAX_ENERGY_IMBALANCE
    large = {
        "shape": [LARGE, LARGE, LARGE],
        "n_nodes": n,
        "budget_bytes": LARGE_BUDGET,
        "lu_bytes_est": estimate_lu_bytes(n),
        "csr_bytes_est": estimate_csr_bytes(n),
        "lu_refused": True,
        "refusal": str(refusal.value),
        "auto_tier": "recycled",
        "seconds": round(seconds, 4),
        "peak_rss_kb": _rss_kb(),
        "iterations": _tier_iterations(farm),
        "worst_energy_imbalance": worst_energy,
    }

    report = {
        "n_designs": LADDER_DESIGNS,
        "smoke": SMOKE,
        "tier_order": list(TIER_ORDER),
        "ladder": rungs,
        "large": large,
    }
    (out_dir / "fdm_scaling.json").write_text(json.dumps(report, indent=2))
    lines = [f"fdm mesh-scaling ladder ({LADDER_DESIGNS} designs per rung)"]
    for rung in rungs:
        side = rung["shape"][0]
        for tier in TIER_ORDER:
            record = rung["tiers"][tier]
            dev = record.get("max_dev_vs_lu_K")
            lines.append(
                f"{side:>3}^3 {tier:>9}: {record['seconds']:8.3f} s  "
                f"rss {record['peak_rss_kb'] / 1024:7.1f} MB"
                + (f"  |dT| vs lu {dev:.2e} K" if dev is not None else "")
            )
    lines.append(
        f"{LARGE:>3}^3        lu: REFUSED (est "
        f"{lu_footprint / 1e9:.1f} GB > budget "
        f"{LARGE_BUDGET / 1e6:.0f} MB)"
    )
    lines.append(
        f"{LARGE:>3}^3 auto->recycled: {large['seconds']:8.3f} s  "
        f"rss {large['peak_rss_kb'] / 1024:7.1f} MB  "
        f"iters {large['iterations']}"
    )
    text = "\n".join(lines) + "\n"
    (out_dir / "fdm_scaling.txt").write_text(text)
    print("\n" + text)


def test_farm_sweep_bench(benchmark):
    """pytest-benchmark hook: one fresh-farm sweep per round."""
    _, problems = _sweep_problems()
    solutions = benchmark(lambda: SolveFarm().solve_many(problems))
    assert len(solutions) == N_DESIGNS


def test_operator_cache_across_sweeps(benchmark):
    """Warm-farm sweep: the steady-state cost once the operator is cached."""
    _, problems = _sweep_problems()
    farm = SolveFarm()
    farm.solve_many(problems)  # seed operator + factorization
    solutions = benchmark(lambda: farm.solve_many(problems))
    assert len(solutions) == N_DESIGNS
    assert all(solution.info["operator_cached"] for solution in solutions)
