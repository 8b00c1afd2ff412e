"""``train`` workload: serial physics-informed training, three setups.

Each timed operation is one ``ThermalService.train(force_retrain=True)``
(or ``train_family``) call from freshly initialised weights, so every
operation does the same work.  The setups alternate round-robin until
the run's time is spent:

* ``a`` — experiment A, ci architecture, mesh collocation (the batch is
  built once and cached);
* ``b`` — experiment B, ci architecture, random collocation resampled
  every iteration, two branches;
* ``c`` — the shipped HTC-sweep family, round-robin over its members.

The traced run replays the serial loop through the same public calls
the trainer makes (input sampling, collocation batch, physics loss,
tape gradient, Adam step), with a span around each.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

import common

#: iterations per timed training run, chosen so each run takes ~0.5-1 s.
ITERATIONS = {"a": 30, "b": 5, "c": 60}
SETUP_REPEATS = 5
CHECK_DESIGNS = 4
#: replayed vs trainer-recorded final loss (same calls, same order).
LOSS_RTOL = 1e-12


def _specs(seed: int) -> Dict[str, object]:
    training_seed = common.derived_seed(seed, 3, 1)
    return {
        "a": common.scenario_a(ITERATIONS["a"], training_seed),
        "b": common.scenario_b(ITERATIONS["b"], training_seed),
        "c": common.family(ITERATIONS["c"], training_seed),
    }


def _is_family(case: str) -> bool:
    return case == "c"


def _compile(service, case: str, spec):
    """Compile a case's setup inside ``service`` (untimed preparation)."""
    if _is_family(case):
        return service.family_session(spec).setup
    return service.setup(spec)


def _train(service, case: str, spec):
    if _is_family(case):
        return service.train_family(spec, force_retrain=True)
    return service.train(spec, force_retrain=True)


def replay(case: str, spec, tracer: common.Tracer, label: str) -> List[float]:
    """The serial training loop through public calls, one span per phase.

    Returns the loss of every iteration; bitwise the trainer's own
    trajectory when the arithmetic is unchanged.
    """
    from repro import autodiff as ad
    from repro.nn import Adam

    if _is_family(case):
        setup = spec.compile()
        members = setup.setups
        params = setup.net.parameters()
    else:
        setup = spec.compile()
        members = [setup]
        params = setup.model.net.parameters()
    cfg = setup.trainer_config
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(params, lr=cfg.learning_rate)
    schedule = cfg.schedule()
    losses = []
    for iteration in range(cfg.iterations):
        member = members[iteration % len(members)]
        with tracer.span(f"train.{label}.iteration", trace_id=f"{label}-{iteration}"):
            with tracer.span(f"power.{label}.train_sample_ms"):
                raws = [inp.sample(rng, cfg.n_functions) for inp in member.model.inputs]
            with tracer.span(f"core.{label}.batch_ms"):
                batch = member.plan.batch(rng, cfg.n_functions)
            with tracer.span(f"core.{label}.loss_ms"):
                total, _ = member.model.compute_loss(raws, batch, stacked=cfg.stacked)
            with tracer.span(f"autodiff.{label}.grad_ms"):
                grads = ad.grad(total, params)
            with tracer.span(f"nn.{label}.adam_ms"):
                optimizer.lr = schedule(iteration)
                optimizer.step([g.data for g in grads])
        losses.append(float(total.item()))
    return losses


def check_replay(case: str, replayed: float, expected: float, outcome) -> None:
    """The replayed loop reproduces the trainer's recorded final loss."""
    outcome.check(abs(replayed - expected) <= LOSS_RTOL * abs(expected),
                  f"train {case}: replayed final loss {replayed!r} != "
                  f"trainer's {expected!r} (tolerance {LOSS_RTOL:g} relative)")


def _first_batch_loss(case: str, spec, registry=None) -> float:
    """Physics loss on the trainer's first batch, at init or trained.

    With ``registry`` the saved checkpoint is loaded first, so the two
    calls compare the same batch before and after training (the loss
    of a resampled batch is too noisy over a handful of iterations).
    """
    setup = spec.compile()
    if registry is not None:
        registry.load(spec, setup.model)
    member = setup.setups[0] if _is_family(case) else setup
    cfg = setup.trainer_config
    rng = np.random.default_rng(cfg.seed)
    raws = [inp.sample(rng, cfg.n_functions) for inp in member.model.inputs]
    batch = member.plan.batch(rng, cfg.n_functions)
    total, _ = member.model.compute_loss(raws, batch, stacked=cfg.stacked)
    return float(total.item())


def _reload_matches(service, case: str, spec, seed: int) -> float:
    """Max |trained - reloaded checkpoint| kelvin over sampled designs."""
    trained_setup = _compile(service, case, spec)
    fresh = spec.compile()
    service.registry.load(spec, fresh.model)
    trained = trained_setup.model
    rng = common.rng_for(seed, 3, 7)
    raws = {inp.name: inp.sample(rng, CHECK_DESIGNS) for inp in trained.inputs}
    grid = (trained_setup.setups[0] if _is_family(case) else trained_setup).eval_grid
    a = trained.engine.predict_batch(raws, grid=grid)
    b = fresh.model.engine.predict_batch(raws, grid=grid)
    return float(np.max(np.abs(a - b)))


def prepare(seed: int, registry) -> None:
    """Cold-start preparation: compile the three setups in a service."""
    from repro.api import ThermalService

    with ThermalService(cache_dir=registry) as service:
        for case, spec in _specs(seed).items():
            _compile(service, case, spec)


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple:
    """Run the workload; returns ``(outcome, metrics, tracer, config)``."""
    from repro.api import CheckpointRegistry, ThermalService

    outcome = common.Outcome()
    registry = workdir / "registry"
    specs = _specs(seed)

    setups = [common.cold_start("train", seed, workdir / f"setup{index}")
              for index in range(SETUP_REPEATS)]

    # Warm-up round (untimed): lazy set-up finishes, and its results are
    # the ones cross-checked (reload, loss decrease, traced replay).
    final_losses: Dict[str, float] = {}
    for case, spec in specs.items():
        with ThermalService(cache_dir=registry) as service:
            _compile(service, case, spec)
            final_losses[case] = _train(service, case, spec).final_loss
            gap = _reload_matches(service, case, spec, seed)
        outcome.check(gap == 0.0, f"train {case}: reloaded checkpoint "
                      f"predicts {gap:.3e} K away from the trained model")

    per_iteration: Dict[str, List[float]] = {case: [] for case in specs}
    total_iterations = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for case, spec in specs.items():
            service = ThermalService(cache_dir=registry)
            _compile(service, case, spec)
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                result = _train(service, case, spec)
            except Exception as exc:  # counted, reported, never fatal
                outcome.failed += 1
                outcome.check(False, f"train {case} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                service.close()
            busy += elapsed
            total_iterations += ITERATIONS[case]
            per_iteration[case].append(elapsed / ITERATIONS[case])
            outcome.check(math.isfinite(result.final_loss),
                          f"train {case}: final loss {result.final_loss} not finite")

    for case, spec in specs.items():
        initial = _first_batch_loss(case, spec)
        trained = _first_batch_loss(case, spec, CheckpointRegistry(registry))
        outcome.check(trained < initial,
                      f"train {case}: first-batch loss {trained:.6g} after "
                      f"training is not below {initial:.6g} at init")

    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "a_p50_ms": 1e3 * common.median(per_iteration["a"]),
        "b_p50_ms": 1e3 * common.median(per_iteration["b"]),
        "c_p50_ms": 1e3 * common.median(per_iteration["c"]),
        "throughput_per_s": total_iterations / busy,
    }
    tracer = None
    if trace:
        tracer = common.Tracer()
        metrics = _trace(specs, final_losses, tracer, registry, outcome)
    config = {"iterations_per_run": ITERATIONS, "setup_repeats": SETUP_REPEATS,
              "workers": "serial (default)"}
    return outcome, metrics, tracer, config


_LABELS = {"a": "a", "b": "b", "c": "family"}


def _trace(specs, final_losses, tracer, registry, outcome) -> Dict[str, float]:
    """Per-layer split of each setup's serial loop (traced replay)."""
    from repro.api import CheckpointRegistry

    checkpoints = CheckpointRegistry(registry)
    metrics: Dict[str, float] = {}
    traced_wall = untraced_wall = 0.0
    for case, spec in specs.items():
        label = _LABELS[case]
        start = time.perf_counter()
        untraced = replay(case, spec, common.NullTracer(), label)
        untraced_wall += time.perf_counter() - start
        start = time.perf_counter()
        losses = replay(case, spec, tracer, label)
        traced_wall += time.perf_counter() - start
        expected = final_losses[case]
        for replayed in (untraced[-1], losses[-1]):
            check_replay(case, replayed, expected, outcome)
        model = spec.compile().model
        for _ in range(3):
            with tracer.span(f"api.{label}.checkpoint_save_ms"):
                checkpoints.save(spec, model, meta={"final_loss": expected})
    times = tracer.self_times()
    for case in specs:
        label = _LABELS[case]
        for name in ("power.{}.train_sample_ms", "core.{}.batch_ms", "core.{}.loss_ms",
                     "autodiff.{}.grad_ms", "nn.{}.adam_ms",
                     "api.{}.checkpoint_save_ms"):
            key = name.format(label)
            metrics[key] = 1e3 * common.median(times[key])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return metrics
