"""``explore`` workload: the paper's design-space loop, in-process.

``ThermalService.sweep`` streams a batch of seeded designs through the
serving engine and FDM-validates the hottest K.  Three operations
alternate round-robin until the run's time is spent, each on a cleared
solve farm so every operation does the same work:

* ``a`` — experiment A power maps: GRF sampling, the engine, then one
  shared FDM operator (one factorization, K back-substitutions);
* ``b`` — experiment B HTC pairs: one operator per design, so K
  assemblies and K factorizations;
* ``c`` — a bulk experiment-A sweep with no validation: sampling and
  the engine only.

The traced run replays one ``a`` and one ``b`` sweep through the public
calls ``sweep`` makes (``sample_designs``, ``CompiledSurrogate``
warm-up and ``predict_batch``, ``heat_problem``, ``fdm.assembly``,
``SolveFarm.solve_many``) with a span around each.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import common

SIZES = {"a": 512, "b": 64, "c": 4096}
VALIDATE = {"a": 8, "b": 8, "c": 0}
CHUNK = 64
SETUP_REPEATS = 5
CHECK_DESIGNS = 4
INDEPENDENT_SOLVES = 2
#: tolerances of the in-run checks (kelvin / relative energy).
ENGINE_TOL_K = 1e-9
FDM_TOL_K = 1e-8
ENERGY_TOL = 1e-8


def _specs(seed: int) -> Dict[str, object]:
    training_seed = common.derived_seed(seed, 2, 1)
    return {"a": common.scenario_a(common.CHECKPOINT_ITERATIONS, training_seed),
            "b": common.scenario_b(common.CHECKPOINT_ITERATIONS, training_seed)}


def prepare(seed: int, registry) -> None:
    """Cold-start preparation: train + save both checkpoints, warm engines."""
    from repro.api import ThermalService

    with ThermalService(cache_dir=registry) as service:
        for spec in _specs(seed).values():
            service.train(spec)
            service.engine(spec).warmup(service.setup(spec).eval_grid)


def _sweep(service, spec, case: str, seed: int):
    service.farm.clear()
    return service.sweep(spec, n_designs=SIZES[case], chunk_size=CHUNK,
                         seed=seed, validate=VALIDATE[case])


def check_energy(case: str, result, outcome) -> None:
    """The validation solves conserve energy."""
    if result.validation is not None:
        imbalance = result.validation.worst_energy_imbalance
        outcome.check(imbalance <= ENERGY_TOL, f"explore {case}: energy "
                      f"imbalance {imbalance:.3e} > {ENERGY_TOL:g}")


def check_sweep(service, spec, case: str, result, outcome) -> None:
    """Engine vs the autodiff reference path; validation vs a direct solve."""
    from repro.fdm.solver import solve_steady

    check_energy(case, result, outcome)
    setup = service.setup(spec)
    grid = setup.eval_grid
    picks = np.linspace(0, result.n_designs - 1, CHECK_DESIGNS).astype(int)
    designs = [result.design(int(i)) for i in picks]
    engine = service.predict(spec, designs).fields
    reference = setup.model.predict_many_uncached(designs, grid.points())
    gap = float(np.max(np.abs(engine - reference)))
    outcome.check(gap <= ENGINE_TOL_K, f"explore {case}: engine fields {gap:.3e} K "
                  f"from predict_many_uncached (tolerance {ENGINE_TOL_K:g} K)")
    peak_gap = float(np.max(np.abs(engine.max(axis=1) - result.peaks[picks])))
    outcome.check(peak_gap <= ENGINE_TOL_K, f"explore {case}: sweep peaks "
                  f"{peak_gap:.3e} K from predicted fields (tolerance {ENGINE_TOL_K:g} K)")
    validation = result.validation
    if validation is None:
        return
    for j in (0, len(validation.design_indices) - 1)[:INDEPENDENT_SOLVES]:
        design = result.design(int(validation.design_indices[j]))
        direct = solve_steady(setup.model.concrete_config(design).heat_problem(grid))
        gap = abs(direct.t_max - float(validation.reference_peaks[j]))
        outcome.check(gap <= FDM_TOL_K, f"explore {case}: validated peak {gap:.3e} K "
                      f"from a per-design solve_steady (tolerance {FDM_TOL_K:g} K)")


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple:
    """Run the workload; returns ``(outcome, metrics, tracer, config)``."""
    from repro.api import ThermalService
    from repro.fdm import SolveFarm

    outcome = common.Outcome()
    specs = _specs(seed)
    setups = [common.cold_start("explore", seed, workdir / f"setup{index}")
              for index in range(SETUP_REPEATS)]
    service = ThermalService(cache_dir=workdir / f"setup{SETUP_REPEATS - 1}",
                             farm=SolveFarm())
    cases = {"a": specs["a"], "b": specs["b"], "c": specs["a"]}
    for spec in specs.values():
        outcome.check(service.train(spec).from_cache,
                      "explore: prepared checkpoint missing from the registry")

    seeds = iter(range(10**6))
    # Warm-up round (untimed): lazy set-up finishes, and its results are
    # the ones cross-checked against the reference paths.
    for case, spec in cases.items():
        result = _sweep(service, spec, case, common.derived_seed(seed, 2, 2, next(seeds)))
        check_sweep(service, spec, case, result, outcome)

    walls: Dict[str, List[float]] = {case: [] for case in cases}
    designs = 0
    busy = 0.0
    trunk_before = _trunk_counts(service, specs)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for case, spec in cases.items():
            op_seed = common.derived_seed(seed, 2, 2, next(seeds))
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                result = _sweep(service, spec, case, op_seed)
            except Exception as exc:  # counted, reported, never fatal
                outcome.failed += 1
                outcome.check(False, f"explore {case} raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            walls[case].append(elapsed)
            busy += elapsed
            designs += result.n_designs
            check_energy(case, result, outcome)
    trunk_after = _trunk_counts(service, specs)

    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "a_p50_ms": 1e3 * common.median(walls["a"]),
        "b_p50_ms": 1e3 * common.median(walls["b"]),
        "c_p50_ms": 1e3 * common.median(walls["c"]),
        "throughput_per_s": designs / busy,
    }
    tracer = None
    if trace:
        tracer = common.Tracer()
        metrics = _trace(service, specs, seed, tracer)
        metrics["engine.trunk_hits"] = trunk_after[0] - trunk_before[0]
        metrics["engine.trunk_misses"] = trunk_after[1] - trunk_before[1]
    service.close()
    config = {"designs": SIZES, "validate": VALIDATE, "chunk_size": CHUNK,
              "setup_repeats": SETUP_REPEATS, "solver": "farm default (direct LU)",
              "workers": "serial (default)"}
    return outcome, metrics, tracer, config


def _trunk_counts(service, specs) -> tuple:
    """(hits, misses) of the trunk cache every engine of the service shares."""
    info = service.engine(specs["a"]).cache_info()
    return info.hits, info.misses


def replay_sweep(service, spec, label: str, seed: int, tracer) -> None:
    """One validated sweep through public layer calls, spans around each."""
    from repro.fdm.assembly import assemble_operator, assemble_rhs

    setup = service.setup(spec)
    engine = service.engine(spec)
    grid = setup.eval_grid
    farm = service.farm
    n, k = SIZES[label], VALIDATE[label]
    with tracer.span(f"explore.{label}.sweep", trace_id=f"{label}-{seed}"):
        with tracer.span(f"power.{label}.sample_s"):
            raws = service.sample_designs(spec, n, seed=seed)
        with tracer.span(f"engine.{label}.warmup_s"):
            engine.clear_cache()
            engine.warmup(grid)
        peaks = []
        with tracer.span(f"engine.{label}.sweep_s"):
            for lo in range(0, n, CHUNK):
                chunk = {name: batch[lo:lo + CHUNK] for name, batch in raws.items()}
                peaks.append(engine.predict_batch(chunk, grid=grid).max(axis=1))
        hottest = np.argsort(np.concatenate(peaks))[::-1][:k]
        problems = []
        for index in hottest:
            with tracer.span(f"fdm.{label}.heat_problem_ms"):
                design = {name: batch[index] for name, batch in raws.items()}
                problems.append(setup.model.concrete_config(design).heat_problem(grid))
        for problem in problems:
            with tracer.span(f"fdm.{label}.assemble_operator_ms"):
                operator = assemble_operator(problem)
            with tracer.span(f"fdm.{label}.assemble_rhs_ms"):
                assemble_rhs(problem, operator)
        farm.clear()
        with tracer.span(f"fdm.{label}.validate_s"):
            farm.solve_many(problems, solver=service.solver)


def _trace(service, specs, seed: int, tracer) -> Dict[str, float]:
    """Per-layer split of one ``a`` and one ``b`` sweep, plus counters."""
    metrics: Dict[str, float] = {}
    traced = untraced = 0.0
    for label, spec in specs.items():
        op_seed = common.derived_seed(seed, 2, 3)
        replay_sweep(service, spec, label, op_seed, common.NullTracer())  # warm-up
        start = time.perf_counter()
        replay_sweep(service, spec, label, op_seed, common.NullTracer())
        untraced += time.perf_counter() - start
        before = service.farm.cache_info()
        start = time.perf_counter()
        replay_sweep(service, spec, label, op_seed, tracer)
        traced += time.perf_counter() - start
        after = service.farm.cache_info()
        for name in ("factorizations", "operator_hits", "evictions"):
            metrics[f"fdm.{label}.{name}"] = after[name] - before[name]
        grid = service.setup(spec).eval_grid
        times = tracer.self_times()
        sweep_s = times[f"engine.{label}.sweep_s"][-1]
        flops = 2.0 * SIZES[label] * spec.network.q * int(np.prod(grid.shape))
        metrics[f"engine.{label}.gflops_computed"] = flops / sweep_s / 1e9
        for name in ("power.{}.sample_s", "engine.{}.warmup_s", "engine.{}.sweep_s",
                     "fdm.{}.validate_s"):
            metrics[name.format(label)] = times[name.format(label)][-1]
        for name in ("fdm.{}.heat_problem_ms", "fdm.{}.assemble_operator_ms",
                     "fdm.{}.assemble_rhs_ms"):
            metrics[name.format(label)] = 1e3 * common.median(times[name.format(label)])
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics
