"""Command-line interface: ``python -m repro <subcommand>``.

Every subcommand is a thin adapter over the declarative scenario API
(:mod:`repro.api`): presets become :class:`~repro.api.ThermalScenario`
specs and all execution routes through one
:class:`~repro.api.ThermalService` session.

Subcommands
-----------
``info``             package/version and preset inventory (``--json``)
``solve``            run the FV reference solver on a paper workload
``train``            train a preset and save the checkpoint
``evaluate``         evaluate a (cached or given) model on the paper's tests
``speedup``          measure the solver-vs-surrogate speedup table
``sweep``            stream a batch of designs through the engine (``--json``)
``transient``        roll a transient surrogate against the theta reference
``validate-config``  check a scenario (or family) JSON, listing every
                     problem found
``run``              validate → solve → train → predict/rollout a scenario
                     JSON end-to-end (new workloads without new code)
``serve``            long-running daemon: newline-JSON socket protocol
                     with cross-request micro-batching (``repro.serve``)
``family``           train one conditioned surrogate across a
                     ``ScenarioFamily`` JSON (``repro.family``)
``finetune``         warm-start a covered scenario from its family
                     checkpoint (records ``parent_digest`` lineage)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepOHeat reproduction (DAC 2023) command-line tools",
    )
    parser.add_argument(
        "--solver", choices=["auto", "lu", "block_cg"],
        default=None,
        help="FDM solver tier for reference solves (default: exact LU, "
             "the same answers as 'lu'; a memory budget only evicts). "
             "'lu' refuses operators over the budget, 'auto' picks by "
             "operator size and memory budget; see docs/solvers.md. Give "
             "it before the subcommand: repro --solver auto solve ...",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="show version and preset inventory")
    info.add_argument("--json", action="store_true",
                      help="machine-readable output (version, schema, presets)")
    info.add_argument("--config", default=None, metavar="JSON",
                      help="scenario or family JSON: also report its digest, "
                           "registry checkpoint and lineage chain")

    solve = subparsers.add_parser("solve", help="run the FV reference solver")
    solve.add_argument("--experiment", choices=["a", "b"], default="a")
    solve.add_argument("--map", dest="map_name", default="p5",
                       help="test power map p1..p10 (experiment a)")
    solve.add_argument("--htc", nargs=2, type=float, default=[1000.0, 333.33],
                       metavar=("TOP", "BOTTOM"),
                       help="HTC pair in W/m^2K (experiment b)")
    solve.add_argument("--grid", nargs=3, type=int, default=None,
                       metavar=("NX", "NY", "NZ"))

    train = subparsers.add_parser("train", help="train a preset model")
    train.add_argument("--experiment",
                       choices=["a", "b", "volumetric", "transient"],
                       default="a")
    train.add_argument("--scale", choices=["test", "ci", "paper"], default="ci")
    train.add_argument("--iterations", type=int, default=None,
                       help="override the preset's iteration budget")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", default=None, help="checkpoint path (.npz)")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="autosave resumable trainer state every N "
                            "iterations (crash-safe; see --resume)")
    train.add_argument("--resume", action="store_true",
                       help="continue from the autosaved trainer state if "
                            "present (bitwise-identical to an uninterrupted "
                            "run); a missing snapshot starts fresh")
    train.add_argument("--quiet", action="store_true")

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a trained model on the paper's test cases"
    )
    evaluate.add_argument("--experiment", choices=["a", "b"], default="a")
    evaluate.add_argument("--scale", choices=["test", "ci"], default="ci")
    evaluate.add_argument("--checkpoint", default=None,
                          help="explicit checkpoint (defaults to the cache)")

    speedup = subparsers.add_parser("speedup", help="solver vs surrogate timing")
    speedup.add_argument("--experiment", choices=["a", "b"], default="a")
    speedup.add_argument("--scale", choices=["test", "ci"], default="ci")
    speedup.add_argument("--batch", type=int, default=32)
    speedup.add_argument("--refine", type=int, default=2)

    sweep = subparsers.add_parser(
        "sweep",
        help="stream a batch of sampled designs through the serving engine",
    )
    sweep.add_argument("--experiment", choices=["a", "b"], default="a")
    sweep.add_argument("--scale", choices=["test", "ci"], default="ci")
    sweep.add_argument("--checkpoint", default=None,
                       help="explicit checkpoint (defaults to the cache)")
    sweep.add_argument("--designs", type=int, default=64,
                       help="number of random designs to evaluate")
    sweep.add_argument("--chunk", type=int, default=16,
                       help="designs per predict_batch call (streaming chunk)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--compare-naive", action="store_true",
                       help="also time the legacy per-design predict loop")
    sweep.add_argument("--validate", type=int, default=0, metavar="N",
                       help="FDM-validate the N hottest designs through the "
                            "shared-operator solve farm")
    sweep.add_argument("--json", action="store_true",
                       help="machine-readable sweep result")

    transient = subparsers.add_parser(
        "transient",
        help="transient rollout on a power-pulse scenario vs the "
             "theta-scheme reference",
    )
    transient.add_argument("--scale", choices=["test", "ci"], default="ci")
    transient.add_argument("--scenario", choices=["step", "ramp", "clock"],
                           default="step",
                           help="held-out power pulse to evaluate")
    transient.add_argument("--times", type=int, default=9,
                           help="instants compared across the horizon")
    transient.add_argument("--steps-per-interval", type=int, default=8,
                           help="implicit reference steps per instant")
    transient.add_argument("--theta", type=float, default=1.0,
                           help="time scheme: 1.0 backward Euler, "
                                "0.5 Crank-Nicolson")
    transient.add_argument("--early-stop", type=float, default=None,
                           metavar="TOL",
                           help="stop the reference once the peak settles "
                                "below TOL K/s (convergence to steady state)")
    transient.add_argument("--checkpoint", default=None,
                           help="explicit checkpoint (defaults to the cache)")

    validate = subparsers.add_parser(
        "validate-config",
        help="validate a scenario JSON (exit 0 on ok, 2 on errors)",
    )
    validate.add_argument("config", help="path to a ThermalScenario .json")

    run = subparsers.add_parser(
        "run",
        help="run a scenario JSON end-to-end: validate, reference-solve, "
             "train (registry-cached), predict or rollout",
    )
    run.add_argument("--config", required=True,
                     help="path to a ThermalScenario .json")
    run.add_argument("--designs", type=int, default=4,
                     help="sampled designs for the serving stage")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--force-retrain", action="store_true",
                     help="ignore the checkpoint registry")
    run.add_argument("--parity-tol", type=float, default=1e-8,
                     help="max |engine - reference path| kelvin before the "
                          "serving stage is declared broken (exit 3)")
    run.add_argument("--json", action="store_true",
                     help="machine-readable pipeline report")
    run.add_argument("--quiet", action="store_true")

    serve = subparsers.add_parser(
        "serve",
        help="serving daemon: micro-batched predict/rollout/solve over a "
             "newline-JSON socket",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7070,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--scenario", action="append", default=[],
                       metavar="JSON", dest="scenarios",
                       help="scenario (or family) JSON to warm-start at boot "
                            "(exact registry hit, family-ancestor fallback, "
                            "or boot-time training); repeatable")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="most requests fused into one engine call "
                            "(1 disables fusion)")
    serve.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="micro-batching window: how long the oldest "
                            "request waits for company")
    serve.add_argument("--queue-depth", type=int, default=128,
                       help="pending-request bound; beyond it requests are "
                            "rejected with 'overloaded' + retry_after")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       metavar="MB",
                       help="byte budget over the trunk-feature and "
                            "operator caches (byte-accounted LRU eviction)")
    serve.add_argument("--watchdog-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="declare the compute thread wedged after one "
                            "dispatch runs this long: pending requests fail "
                            "cleanly and the daemon exits 2 (default: off)")

    family = subparsers.add_parser(
        "family",
        help="train one conditioned surrogate across a ScenarioFamily JSON",
    )
    family.add_argument("action", choices=["train"],
                        help="family operation")
    family.add_argument("--config", required=True,
                        help="path to a ScenarioFamily .json")
    family.add_argument("--force-retrain", action="store_true",
                        help="ignore the checkpoint registry")
    family.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="autosave resumable trainer state every N "
                             "iterations (crash-safe; see --resume)")
    family.add_argument("--resume", action="store_true",
                        help="continue from the autosaved trainer state if "
                             "present (bitwise-identical to an uninterrupted "
                             "run); a missing snapshot starts fresh")
    family.add_argument("--quiet", action="store_true")

    finetune = subparsers.add_parser(
        "finetune",
        help="fine-tune a family checkpoint to one covered scenario "
             "(records parent_digest lineage)",
    )
    finetune.add_argument("--config", required=True,
                          help="target ThermalScenario .json (must be "
                               "covered by the family's envelope)")
    finetune.add_argument("--family", required=True, dest="family_config",
                          metavar="JSON",
                          help="ScenarioFamily .json to warm-start from "
                               "(trained first if its checkpoint is missing)")
    finetune.add_argument("--iterations", type=int, default=None,
                          help="fine-tune budget (default: the scenario's "
                               "own training.iterations)")
    finetune.add_argument("--force-retrain", action="store_true",
                          help="ignore a cached fine-tuned checkpoint")
    finetune.add_argument("--quiet", action="store_true")
    return parser


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _service(solver: Optional[str] = None):
    """A service session rooted at the shared model cache.

    Passes no ``cache_dir``, so :class:`~repro.api.ThermalService` reads
    ``repro.api.service.DEFAULT_CACHE_DIR`` (``REPRO_MODEL_CACHE``) at
    call time.
    """
    from .api import ThermalService

    return ThermalService(solver=solver)


def _trained(service, name: str, scale: str, checkpoint: Optional[str]):
    """(scenario, setup) ready to evaluate: checkpoint- or registry-backed."""
    from .api import scenario_for

    scenario = scenario_for(name, scale=scale)
    if checkpoint:
        service.load_checkpoint(scenario, checkpoint)
    else:
        service.train(scenario)
    return scenario, service.setup(scenario)


def _dumps(payload) -> str:
    """Indented JSON of a report, numpy values included."""
    from .serve.protocol import json_default

    return json.dumps(payload, indent=2, default=json_default)


# ----------------------------------------------------------------------
# Subcommand implementations (each returns an exit code).
# ----------------------------------------------------------------------
def _config_report(path: str):
    """Digest/checkpoint/lineage report for a scenario or family JSON."""
    from pathlib import Path

    from .api import ScenarioValidationError
    from .family import ScenarioFamily, sniff_family_json
    from .nn.serialize import CheckpointCorrupt

    report = {"path": path}
    try:
        if sniff_family_json(Path(path)):
            spec = ScenarioFamily.from_json(Path(path))
            report["kind"] = "family"
            report["n_members"] = spec.n_members
        else:
            spec, errors = _load_scenario(path)
            if errors:
                report["errors"] = errors
                return report
            report["kind"] = "scenario"
    except ScenarioValidationError as error:
        report["errors"] = list(error.errors)
        return report
    report["name"] = spec.name
    report["digest"] = spec.content_digest()

    registry = _service().registry
    checkpoint = None
    if report["kind"] == "scenario":
        checkpoint = registry.find_fine_tuned(spec)
    checkpoint = checkpoint or registry.find(spec)
    report["checkpoint"] = None if checkpoint is None else str(checkpoint)
    try:
        report["lineage"] = registry.lineage(spec)
    except CheckpointCorrupt as error:
        report["lineage_error"] = str(error)
    return report


def _cmd_info(args) -> int:
    from . import __version__
    from .api import SCHEMA_VERSION, preset_inventory

    if args.json:
        payload = {
            "version": __version__,
            "scenario_schema_version": SCHEMA_VERSION,
            "presets": preset_inventory(),
            "scales": ["test", "ci", "paper"],
            "commands": ["info", "solve", "train", "evaluate", "speedup",
                         "sweep", "transient", "validate-config", "run",
                         "serve", "family", "finetune"],
        }
        if args.config:
            payload["config"] = _config_report(args.config)
        print(_dumps(payload))
        return 0

    if args.config:
        report = _config_report(args.config)
        if "errors" in report:
            print(f"{args.config}: INVALID ({len(report['errors'])} error(s))")
            for error in report["errors"]:
                print(f"  - {error}")
            return 2
        print(f"{args.config}: {report['kind']} {report['name']} "
              f"(digest {report['digest'][:16]})")
        print(f"  checkpoint: {report['checkpoint'] or '<none>'}")
        for entry in report.get("lineage", []):
            parent = entry["parent_digest"]
            print(f"  lineage: {entry['digest'][:16]} <- "
                  f"{'<root>' if parent is None else parent[:16]}")
        if "lineage_error" in report:
            print(f"  lineage: ERROR {report['lineage_error']}")
        return 0

    from .analysis import kv_block

    print(
        kv_block(
            f"repro {__version__} — DeepOHeat reproduction (DAC 2023)",
            {
                "experiment a": "2D power maps, 1x1x0.5 mm chip (Sec. V-A)",
                "experiment b": "dual HTC inputs, volumetric layer (Sec. V-B)",
                "experiment volumetric": "3D power maps (Sec. VI future work)",
                "experiment transient": "time-modulated power pulses (eq. 1)",
                "scales": "test (seconds) / ci (minutes) / paper (hours)",
                "scenario API": "repro run --config <scenario.json> "
                                "(repro.api.ThermalScenario)",
                "benches": "pytest benchmarks/ --benchmark-only",
            },
        )
    )
    return 0


def _cmd_solve(args) -> int:
    from .analysis import ascii_heatmap, kv_block
    from .api import scenario_for
    from .power import paper_test_suite, tiles_to_grid

    service = _service(args.solver)
    scenario = scenario_for(args.experiment, scale="ci")
    setup = service.setup(scenario)

    if args.experiment == "a":
        suite = {m.name: m for m in paper_test_suite()}
        if args.map_name not in suite:
            print(f"unknown map {args.map_name!r}; choose p1..p10", file=sys.stderr)
            return 2
        tiles = suite[args.map_name].tiles
        design = {
            "power_map": tiles_to_grid(tiles, setup.model.inputs[0].map_shape)
        }
        label = f"experiment a / {args.map_name}"
    else:
        design = {"htc_top": args.htc[0], "htc_bottom": args.htc[1]}
        label = f"experiment b / h=({args.htc[0]:g}, {args.htc[1]:g})"

    result = service.solve(
        scenario, designs=[design],
        grid_shape=tuple(args.grid) if args.grid is not None else None,
    )
    field = result.fields[0]
    print(
        kv_block(
            f"FV solve — {label} on {result.grid_shape}",
            {
                "T max": f"{result.peaks[0]:.3f} K",
                "T min": f"{field.min():.3f} K",
                "injected power": f"{result.injected_power[0] * 1e3:.4f} mW",
                "energy imbalance": f"{result.energy_imbalance[0]:.2e}",
                "solve time": f"{result.elapsed * 1e3:.1f} ms",
            },
        )
    )
    print()
    print(ascii_heatmap(field[:, :, -1], "top-surface temperature (K)"))
    return 0


def _cmd_train(args) -> int:
    from .analysis import model_summary
    from .api import scenario_for

    try:
        scenario = scenario_for(args.experiment, scale=args.scale)
    except ValueError as error:
        # e.g. presets without a paper-scale variant (volumetric,
        # transient): report cleanly instead of a raw traceback.
        print(str(error), file=sys.stderr)
        return 2
    if args.iterations is not None:
        scenario.training.iterations = args.iterations
    if args.seed:
        scenario.training.seed = args.seed

    service = _service(args.solver)
    setup = service.setup(scenario)
    print(f"training {setup.name} ({setup.scale}): {setup.description}")
    print(model_summary(setup.model))
    output = args.output
    if output is None:
        output = f"{setup.name}-{setup.scale}.npz"
    trainer = setup.make_trainer()
    state_path = None
    if args.checkpoint_every is not None:
        trainer.config.checkpoint_every = args.checkpoint_every
    if args.resume or trainer.config.checkpoint_every:
        # Resumable trainer state rides next to the final checkpoint; it
        # is deleted once the run completes.
        state_path = f"{output}.train"
    history = trainer.run(verbose=not args.quiet,
                          checkpoint_path=state_path, resume=args.resume)
    print(
        f"loss {history.initial_loss:.4e} -> {history.final_loss:.4e} "
        f"in {history.wall_time:.1f} s"
    )
    setup.model.save(output, meta={
        "final_loss": history.final_loss,
        "scenario_digest": scenario.content_digest(),
    })
    if state_path is not None:
        Path(f"{state_path}.npz").unlink(missing_ok=True)
    print(f"checkpoint written to {output}")
    return 0


def _cmd_evaluate(args) -> int:
    from .analysis import format_table
    from .experiments import run_experiment_a, run_experiment_b

    _, setup = _trained(_service(args.solver), args.experiment, args.scale,
                        args.checkpoint)

    if args.experiment == "a":
        result = run_experiment_a(setup)
        print(result.table_one_text())
    else:
        result = run_experiment_b(setup)
        print(
            format_table(
                ["(h_top, h_bottom)", "MAPE %", "PAPE %", "paper", "peak err K"],
                result.summary_rows(),
            )
        )
    return 0


def _cmd_speedup(args) -> int:
    from .experiments import run_speedup_study

    _, setup = _trained(_service(args.solver), args.experiment, args.scale,
                        None)
    paper = {
        "a": dict(paper_solver_seconds=300.0, paper_speedup_cpu=3000.0,
                  paper_speedup_gpu=300000.0),
        "b": dict(paper_solver_seconds=120.0, paper_speedup_cpu=1200.0,
                  paper_speedup_gpu=120000.0),
    }[args.experiment]
    study = run_speedup_study(
        setup, refine_factor=args.refine, batch_size=args.batch, **paper
    )
    print(study.format())
    return 0


def _cmd_sweep(args) -> int:
    import time

    from .analysis import kv_block, model_summary

    service = _service(args.solver)
    scenario, setup = _trained(service, args.experiment, args.scale,
                               args.checkpoint)
    result = service.sweep(
        scenario,
        n_designs=args.designs,
        chunk_size=args.chunk,
        seed=args.seed,
        validate=args.validate,
    )

    naive_rate = None
    if args.compare_naive:
        n_naive = min(result.n_designs, 16)
        designs = [result.design(index) for index in range(n_naive)]
        points = setup.eval_grid.points()
        start = time.perf_counter()
        for design in designs:
            setup.model.predict_many_uncached([design], points)
        naive_elapsed = time.perf_counter() - start
        naive_rate = n_naive / max(naive_elapsed, 1e-12)

    if args.json:
        payload = {
            "scenario": result.scenario_name,
            "scale": scenario.scale,
            "digest": result.digest,
            "designs": result.n_designs,
            "chunk_size": result.chunk_size,
            "grid_shape": list(result.grid_shape),
            "elapsed_seconds": result.elapsed,
            "throughput_designs_per_s": result.throughput,
            "peaks_kelvin": result.peaks,
            "trunk_cache": result.cache,
        }
        if result.validation is not None:
            payload["validation"] = {
                "design_indices": result.validation.design_indices,
                "reference_peaks": result.validation.reference_peaks,
                "peak_errors": result.validation.peak_errors,
                "worst_energy_imbalance":
                    result.validation.worst_energy_imbalance,
                "elapsed_seconds": result.validation.elapsed,
                "farm_stats": result.validation.farm_stats,
            }
        if naive_rate is not None:
            payload["naive_designs_per_s"] = naive_rate
            payload["engine_speedup"] = result.throughput / max(naive_rate,
                                                                1e-12)
        print(_dumps(payload))
        return 0

    print(model_summary(setup.model,
                        title=f"sweep — {setup.name} ({setup.scale})"))
    print()
    cache = result.cache
    values = {
        "designs": result.n_designs,
        "grid": "x".join(str(n) for n in result.grid_shape)
                + f" ({int(np.prod(result.grid_shape))} nodes)",
        "chunk size": result.chunk_size,
        "engine time": f"{result.elapsed * 1e3:.1f} ms",
        "throughput": f"{result.throughput:.0f} designs/s",
        "trunk cache": f"{cache['hits']} hits / {cache['misses']} misses",
        "peak T across sweep": f"{result.peaks.max():.3f} K",
        "coolest peak T": f"{result.peaks.min():.3f} K",
    }
    if result.validation is not None:
        validation = result.validation
        n_validate = len(validation.design_indices)
        farm = validation.farm_stats
        values["farm validation"] = (
            f"{n_validate} hottest designs in {validation.elapsed * 1e3:.1f} ms "
            f"({n_validate / max(validation.elapsed, 1e-12):.1f} solves/s)"
        )
        values["farm operator reuse"] = (
            f"{farm['operator_hits']} hits / "
            f"{farm['operator_misses']} misses, "
            f"{farm['factorizations']} factorization(s)"
        )
        values["max |peak error|"] = f"{validation.peak_errors.max():.3f} K"
        values["worst energy imbalance"] = (
            f"{validation.worst_energy_imbalance:.2e}"
        )
    if naive_rate is not None:
        values["naive loop"] = (
            f"{naive_rate:.1f} designs/s over "
            f"{min(result.n_designs, 16)} designs (legacy path)"
        )
        values["engine speedup"] = (
            f"{result.throughput / max(naive_rate, 1e-12):.1f}x"
        )

    print(kv_block("serving engine sweep", values))
    return 0


def _cmd_transient(args) -> int:
    from .experiments import run_experiment_c

    service = _service(args.solver)
    _, setup = _trained(service, "transient", args.scale, args.checkpoint)

    result = run_experiment_c(
        setup,
        scenario=args.scenario,
        n_times=args.times,
        steps_per_interval=args.steps_per_interval,
        theta=args.theta,
        early_stop_tol=args.early_stop,
    )
    print(result.summary_text())
    print()
    print(result.table_text())
    cache = setup.model.engine.cache_info()
    print()
    print(
        f"trunk cache: {cache.hits} hits / {cache.misses} misses "
        f"(one space-time block per rollout time grid)"
    )
    return 0


def _load_scenario(path: str):
    """(scenario, errors): parse+validate a JSON file, never raising."""
    from pathlib import Path

    from .api import ScenarioValidationError, ThermalScenario

    try:
        return ThermalScenario.from_json(Path(path)), []
    except ScenarioValidationError as error:
        return None, list(error.errors)


def _cmd_validate_config(args) -> int:
    from pathlib import Path

    from .family import sniff_family_json

    if sniff_family_json(Path(args.config)):
        from .api import ScenarioValidationError
        from .family import FAMILY_SCHEMA_VERSION, ScenarioFamily

        try:
            family = ScenarioFamily.from_json(Path(args.config))
        except ScenarioValidationError as error:
            print(f"{args.config}: INVALID ({len(error.errors)} error(s))")
            for err in error.errors:
                print(f"  - {err}")
            return 2
        print(f"{args.config}: ok")
        print(f"  family: {family.name} ({family.n_members} member(s), "
              f"{len(family.axes)} axis(es))")
        print(f"  family schema version: {FAMILY_SCHEMA_VERSION}")
        print(f"  content digest: {family.content_digest()[:16]}")
        return 0

    scenario, errors = _load_scenario(args.config)
    if errors:
        print(f"{args.config}: INVALID ({len(errors)} error(s))")
        for error in errors:
            print(f"  - {error}")
        return 2
    print(f"{args.config}: ok")
    print(f"  scenario: {scenario.name} (scale={scenario.scale})")
    print(f"  schema version: {scenario.schema_version}")
    print(f"  content digest: {scenario.content_digest()[:16]}")
    return 0


def _cmd_run(args) -> int:
    scenario, errors = _load_scenario(args.config)
    if errors:
        print(f"{args.config}: INVALID ({len(errors)} error(s))",
              file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 2

    service = _service(args.solver)
    report = {
        "config": args.config,
        "scenario": scenario.name,
        "scale": scenario.scale,
        "digest": scenario.content_digest(),
        "transient": scenario.transient is not None,
    }

    def say(message: str) -> None:
        if not args.quiet and not args.json:
            print(message)

    say(f"[1/4] validate: ok — {scenario.name} "
        f"(digest {scenario.content_digest()[:16]})")

    # [2/4] FDM reference solve of one sampled design.
    solve = service.solve(scenario, n_designs=1, seed=args.seed)
    report["solve"] = {
        "grid_shape": list(solve.grid_shape),
        "peak_kelvin": float(solve.peaks[0]),
        "energy_imbalance": float(solve.energy_imbalance[0]),
        "elapsed_seconds": solve.elapsed,
    }
    say(f"[2/4] solve: peak {solve.peaks[0]:.3f} K on "
        f"{'x'.join(str(n) for n in solve.grid_shape)} "
        f"(imbalance {solve.energy_imbalance[0]:.1e})")

    # [3/4] train (or load from the digest-keyed registry).
    trained = service.train(scenario, force_retrain=args.force_retrain,
                            verbose=False)
    report["train"] = {
        "from_cache": trained.from_cache,
        "checkpoint": str(trained.checkpoint_path),
        "iterations": trained.iterations,
        "final_loss": trained.final_loss,
    }
    say(f"[3/4] train: {'registry hit' if trained.from_cache else 'trained'} "
        f"({trained.iterations} iterations, "
        f"final loss {trained.final_loss:.3e})"
        if trained.final_loss is not None else
        f"[3/4] train: {'registry hit' if trained.from_cache else 'trained'}")

    # [4/4] serve: predict (steady) or rollout (transient), with a hard
    # engine-parity gate against an independent evaluation path.
    n_designs = max(1, args.designs)
    raws = service.sample_designs(scenario, n_designs, seed=args.seed + 1)
    designs = [
        {name: batch[index] for name, batch in raws.items()}
        for index in range(n_designs)
    ]
    setup = service.setup(scenario)
    if scenario.transient is None:
        predicted = service.predict(scenario, designs)
        reference = setup.model.predict_many_uncached(
            designs, setup.eval_grid.points()
        )
        parity = float(np.max(np.abs(predicted.fields - reference)))
        # Informational accuracy check: FDM-solve the first served design
        # (one farm back-substitution — the operator is already cached).
        oracle = service.solve(scenario, designs=[designs[0]])
        fdm_gap = float(abs(predicted.peaks[0] - oracle.peaks[0]))
        report["serve"] = {
            "mode": "predict",
            "designs": n_designs,
            "peak_kelvin": float(predicted.peaks.max()),
            "engine_parity_kelvin": parity,
            "fdm_peak_gap_kelvin": fdm_gap,
            "elapsed_seconds": predicted.elapsed,
        }
        say(f"[4/4] predict: {n_designs} designs, hottest peak "
            f"{predicted.peaks.max():.3f} K, engine parity {parity:.2e} K "
            f"(FDM sample gap {fdm_gap:.3f} K)")
    else:
        times = np.linspace(0.0, scenario.transient.horizon, 5)
        rollout = service.rollout(scenario, designs, times)
        # Independent path: one single-instant space-time block per time
        # (separate trunk tiling/reshape) vs the fused K-instant rollout
        # block — the parity contract bench_transient.py pins at 1e-10.
        engine = service.engine(scenario)
        per_instant = np.stack([
            engine.predict_batch(designs, grid=setup.eval_grid, t=float(ti))
            for ti in times
        ], axis=1)
        parity = float(np.max(np.abs(rollout.fields - per_instant)))
        report["serve"] = {
            "mode": "rollout",
            "designs": n_designs,
            "times_seconds": times,
            "peak_kelvin": float(rollout.peak_traces.max()),
            "engine_parity_kelvin": parity,
            "elapsed_seconds": rollout.elapsed,
        }
        say(f"[4/4] rollout: {n_designs} designs x {len(times)} instants, "
            f"hottest peak {rollout.peak_traces.max():.3f} K, "
            f"per-instant parity {parity:.2e} K")

    ok = bool(np.isfinite(parity)) and parity <= args.parity_tol
    report["parity_ok"] = ok
    if args.json:
        print(_dumps(report))
    if not ok:
        print(f"PARITY FAILURE: engine disagrees with the reference "
              f"path by {parity:.3e} K (tol {args.parity_tol:g})",
              file=sys.stderr)
        return 3
    say("pipeline ok")
    return 0


def _cmd_serve(args) -> int:
    from .serve import serve_main

    budget = (None if args.memory_budget_mb is None
              else int(args.memory_budget_mb * 1024 * 1024))
    return serve_main(
        scenario_paths=args.scenarios,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait=args.max_wait_ms / 1e3,
        queue_depth=args.queue_depth,
        memory_budget=budget,
        watchdog_timeout=args.watchdog_timeout,
        solver=args.solver,
    )


def _cmd_family(args) -> int:
    from pathlib import Path

    from .api import ScenarioValidationError
    from .family import ScenarioFamily

    try:
        family = ScenarioFamily.from_json(Path(args.config))
    except ScenarioValidationError as error:
        print(f"{args.config}: INVALID ({len(error.errors)} error(s))",
              file=sys.stderr)
        for err in error.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    service = _service(args.solver)
    if not args.quiet:
        print(f"family {family.name}: {family.n_members} member(s), "
              f"digest {family.content_digest()[:16]}")
    result = service.train_family(
        family,
        force_retrain=args.force_retrain,
        verbose=not args.quiet,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
    )
    status = "registry hit" if result.from_cache else "trained"
    if result.final_loss is not None:
        status += f", final loss {result.final_loss:.3e}"
    print(f"family {family.name}: {status} ({result.iterations} iterations)")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_finetune(args) -> int:
    from pathlib import Path

    from .api import ScenarioValidationError
    from .family import ScenarioFamily

    scenario, errors = _load_scenario(args.config)
    if errors:
        print(f"{args.config}: INVALID ({len(errors)} error(s))",
              file=sys.stderr)
        for err in errors:
            print(f"  - {err}", file=sys.stderr)
        return 2
    try:
        family = ScenarioFamily.from_json(Path(args.family_config))
    except ScenarioValidationError as error:
        print(f"{args.family_config}: INVALID ({len(error.errors)} error(s))",
              file=sys.stderr)
        for err in error.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    service = _service(args.solver)
    try:
        result = service.fine_tune(
            scenario,
            from_family=family,
            iterations=args.iterations,
            force_retrain=args.force_retrain,
            verbose=not args.quiet,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    status = "registry hit" if result.from_cache else "fine-tuned"
    if result.final_loss is not None:
        status += f", final loss {result.final_loss:.3e}"
    print(f"{scenario.name}: {status} ({result.iterations} iterations)")
    print(f"checkpoint: {result.checkpoint_path}")
    for entry in service.lineage(scenario):
        parent = entry["parent_digest"]
        print(f"lineage: {entry['digest'][:16]} <- "
              f"{'<root>' if parent is None else parent[:16]}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "solve": _cmd_solve,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "speedup": _cmd_speedup,
    "sweep": _cmd_sweep,
    "transient": _cmd_transient,
    "validate-config": _cmd_validate_config,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "family": _cmd_family,
    "finetune": _cmd_finetune,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    # Arm the fault-injection registry from REPRO_FAULTS so chaos
    # harnesses can target whole CLI runs, `repro serve` daemons
    # included.  No-op when unset.
    from repro import faults

    faults.load_from_env()
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
