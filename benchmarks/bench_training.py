"""Training-throughput benchmark: fused stacked streams vs legacy per-axis.

The training hot path propagates value / gradient / Hessian streams
through the trunk every iteration.  This bench pins the contract of the
fused kernels (`repro.nn.taylor` stacked layout + low-overhead tape
backward):

* the stacked path (`TrainerConfig.stacked=True`, the default) must
  deliver >= 2x the iterations/sec of the legacy per-axis stream path
  (``stacked=False``) at the experiment-A configuration;
* both paths must follow the *same* loss trajectory: max relative drift
  <= 1e-10 over the measured window (same seed, same sampled
  configurations, same optimizer state evolution).

Methodology
-----------
Each path trains freshly compiled Experiment-A presets
(``scenario_for("a", ...).compile()``) from scratch
(no model cache) with ``log_every=1`` so the loss is recorded at every
step.  iterations/sec is ``iterations / TrainingHistory.wall_time`` —
wall time covers the full iteration (configuration sampling,
collocation batch, loss assembly, backward, Adam step), not just the
forward pass, because that is the number a user sees.  All runs share
the seed, so their random streams are identical and any loss divergence
is numerical, not statistical.

The speedup is the **median of paired ratios** over ``ROUNDS`` rounds,
each timing a legacy run immediately followed by a stacked run: machine
noise on a shared box is strongly time-correlated, so pairing cancels it
from the ratio and the median discards outlier rounds.  Parity is
checked once over the longer ``ITERATIONS`` window.

``REPRO_SMOKE=1`` (the CI perf-contract job) drops to the tiny
``test`` scale and a handful of iterations, asserting *parity only*:
throughput ratios on loaded CI runners are noise, numerical equivalence
is not.

Run with ``pytest benchmarks/bench_training.py``; the measured numbers
land in ``benchmarks/out/training.txt`` (and the repo-root
``BENCH_training.json`` records the committed perf trajectory).
"""

import json
from dataclasses import replace

import numpy as np
from conftest import MODEL_SCALE as SCALE
from conftest import SMOKE

from repro.api import scenario_for
from repro.core.trainer import Trainer
ITERATIONS = 10 if SMOKE else 50
MIN_SPEEDUP = 2.0
MAX_REL_DRIFT = 1e-10


ROUNDS = 1 if SMOKE else 5
TIMING_ITERATIONS = 4 if SMOKE else 20


def _run(stacked: bool, iterations: int):
    """Train a fresh experiment-A preset; return (losses, iterations/sec)."""
    setup = scenario_for("a", scale=SCALE).compile()
    cfg = replace(
        setup.trainer_config,
        iterations=iterations,
        stacked=stacked,
        log_every=1,
    )
    history = Trainer([(setup.model, setup.plan)], cfg).run()
    return np.asarray(history.total_loss), iterations / history.wall_time


def test_training_throughput_and_parity(out_dir):
    """The acceptance numbers: >= 2x iterations/sec, <= 1e-10 loss drift.

    Throughput is measured as the *median of paired ratios*: each round
    times a fresh legacy run immediately followed by a fresh stacked run,
    so machine-load noise hits both sides of a ratio roughly equally;
    the median over rounds discards outlier rounds entirely.  Trajectory
    parity is checked once over the full ``ITERATIONS`` window.
    """
    legacy_losses, _ = _run(stacked=False, iterations=ITERATIONS)
    stacked_losses, _ = _run(stacked=True, iterations=ITERATIONS)

    ratios = []
    rates = []
    for _ in range(ROUNDS):
        _, legacy_rate = _run(stacked=False, iterations=TIMING_ITERATIONS)
        _, stacked_rate = _run(stacked=True, iterations=TIMING_ITERATIONS)
        ratios.append(stacked_rate / legacy_rate)
        rates.append((legacy_rate, stacked_rate))
    speedup = float(np.median(ratios))
    legacy_rate = float(np.median([r[0] for r in rates]))
    stacked_rate = float(np.median([r[1] for r in rates]))

    drift = float(
        np.max(np.abs(stacked_losses - legacy_losses) / np.abs(legacy_losses))
    )

    text = "\n".join(
        [
            f"training throughput (experiment-A, scale={SCALE}, "
            f"{ROUNDS}x{TIMING_ITERATIONS} paired timing iterations, "
            f"parity over {ITERATIONS})",
            f"legacy per-axis : {legacy_rate:8.2f} it/s (median)",
            f"fused stacked   : {stacked_rate:8.2f} it/s (median)",
            f"speedup         : {speedup:8.2f}x (median of paired ratios)",
            f"max rel drift   : {drift:10.3e}",
            "",
        ]
    )
    (out_dir / "training.txt").write_text(text)
    (out_dir / "training.json").write_text(
        json.dumps(
            {
                "scale": SCALE,
                "iterations": ITERATIONS,
                "legacy_iters_per_sec": legacy_rate,
                "stacked_iters_per_sec": stacked_rate,
                "speedup": speedup,
                "max_rel_loss_drift": drift,
            },
            indent=2,
        )
        + "\n"
    )
    print("\n" + text)

    assert drift <= MAX_REL_DRIFT, (
        f"stacked/legacy loss trajectories drifted by {drift:.3e} "
        f"(limit {MAX_REL_DRIFT:.0e})"
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, (
            f"stacked path only {speedup:.2f}x over legacy "
            f"(contract: >= {MIN_SPEEDUP}x)"
        )
