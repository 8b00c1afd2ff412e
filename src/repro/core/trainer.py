"""Self-supervised training loop (paper Sec. IV-B / V-A.4).

Per iteration: sample configurations from their function spaces, draw a
collocation batch, assemble the physics loss (eq. 11), and take one Adam
step under the paper's staircase LR schedule (1e-3, x0.9 every 500).
No simulation data is consumed anywhere — training is purely residual
driven, which is the paper's headline practicality claim.

One :class:`Trainer` serves a single scenario and a scenario family
alike: it trains a shared net over a list of ``(model, plan)`` members,
round-robin, so a scenario is simply a family of one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import autodiff as ad
from .. import faults
from ..nn import Adam, ExponentialDecay, clip_grad_norm
from ..nn.serialize import CheckpointCorrupt, read_payload, write_payload
from .model import DeepOHeat
from .sampler import CollocationPlan

logger = logging.getLogger("repro.core.trainer")

#: schema tag of trainer-state checkpoints (autosave/resume files).
STATE_SCHEMA = "repro-trainer-state-v1"

#: config fields that determine the numerical trajectory — a resume with
#: any of these changed would silently compute a *different* run, so
#: they are recorded at save time and enforced at load time.
_RESUME_FIELDS = (
    "seed",
    "n_functions",
    "learning_rate",
    "decay_rate",
    "decay_every",
    "clip_norm",
    "balance_every",
    "balance_momentum",
    "balance_clip",
    "stacked",
)


@dataclass
class TrainerConfig:
    """Hyper-parameters of one training run.

    ``balance_every`` enables adaptive loss balancing: every N iterations
    the per-component weights are adjusted toward the inverse of each
    component's (raw) magnitude, EMA-smoothed and clamped, so that no
    single residual — e.g. a stiff volumetric source — monopolises the
    gradient signal.  Off by default (the paper uses the plain eq.-11 sum).
    """

    iterations: int = 1000
    n_functions: int = 16  # configurations sampled per iteration (paper: 50)
    learning_rate: float = 1e-3
    decay_rate: float = 0.9
    decay_every: int = 500
    clip_norm: Optional[float] = None
    seed: int = 0
    log_every: int = 50
    balance_every: Optional[int] = None
    balance_momentum: float = 0.7
    balance_clip: float = 100.0
    # Fused stacked derivative-stream propagation (see repro.nn.taylor).
    # False falls back to the legacy per-axis tape chains — the reference
    # path the fused-kernel parity tests and benchmarks compare against.
    stacked: bool = True
    # Autosave full trainer state (weights, Adam moments, RNG, iteration)
    # every N completed iterations when a checkpoint_path is passed to
    # :meth:`Trainer.run`.  None/0 disables autosave.
    checkpoint_every: Optional[int] = None

    def schedule(self) -> ExponentialDecay:
        return ExponentialDecay(
            self.learning_rate, self.decay_rate, self.decay_every, staircase=True
        )


@dataclass
class TrainingHistory:
    """Loss trajectory and timing of a run."""

    iterations: List[int] = field(default_factory=list)
    total_loss: List[float] = field(default_factory=list)
    components: Dict[str, List[float]] = field(default_factory=dict)
    learning_rates: List[float] = field(default_factory=list)
    wall_time: float = 0.0

    def record(self, iteration: int, total: float, parts: Dict[str, float],
               lr: float) -> None:
        self.iterations.append(iteration)
        self.total_loss.append(total)
        self.learning_rates.append(lr)
        for name, value in parts.items():
            self.components.setdefault(name, []).append(value)

    @property
    def final_loss(self) -> float:
        return self.total_loss[-1] if self.total_loss else float("nan")

    @property
    def initial_loss(self) -> float:
        return self.total_loss[0] if self.total_loss else float("nan")

    def improvement_factor(self) -> float:
        """initial/final loss ratio (>1 means learning happened)."""
        if not self.total_loss or self.final_loss == 0.0:
            return float("inf")
        return self.initial_loss / self.final_loss


def save_trainer_state(
    path: Union[str, Path],
    *,
    iteration: int,
    params: List,
    optimizer: Adam,
    rng: np.random.Generator,
    history: TrainingHistory,
    weights: Dict[str, float],
    config: TrainerConfig,
) -> Path:
    """Atomically snapshot *everything* a training run needs to continue.

    ``iteration`` is the next iteration to run (the snapshot is taken
    after a completed step).  The arrays (parameters + Adam first/second
    moments) carry a payload sha256; the metadata records the optimizer
    step count, the RNG bit-generator state (JSON-serializable for
    PCG64 — arbitrary-precision ints round-trip exactly), the recorded
    history so far, the adaptive loss weights, and the
    trajectory-determining config fields (enforced on resume).  Resuming
    from this snapshot is bitwise identical to never having stopped.
    """
    arrays: Dict[str, np.ndarray] = {}
    for index, (param, m, v) in enumerate(zip(params, optimizer._m, optimizer._v)):
        arrays[f"param_{index:03d}"] = param.data
        arrays[f"adam_m_{index:03d}"] = m
        arrays[f"adam_v_{index:03d}"] = v
    meta = {
        "schema": STATE_SCHEMA,
        "iteration": int(iteration),
        "step_count": int(optimizer.step_count),
        "rng_state": rng.bit_generator.state,
        "history": {
            "iterations": list(history.iterations),
            "total_loss": list(history.total_loss),
            "components": {k: list(v) for k, v in history.components.items()},
            "learning_rates": list(history.learning_rates),
            "wall_time": float(history.wall_time),
        },
        "weights": {k: float(v) for k, v in (weights or {}).items()},
        "config": {name: getattr(config, name) for name in _RESUME_FIELDS},
    }
    return write_payload(path, arrays, meta)


def load_trainer_state(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Load and verify a :func:`save_trainer_state` snapshot.

    Returns ``(arrays, meta)``.  Raises :class:`CheckpointCorrupt` on a
    torn/tampered file or wrong schema, ``FileNotFoundError`` when the
    snapshot simply does not exist.
    """
    arrays, meta = read_payload(path)
    if meta.get("schema") != STATE_SCHEMA:
        raise CheckpointCorrupt(
            path, f"unexpected trainer-state schema {meta.get('schema')!r}"
        )
    return arrays, meta


class Trainer:
    """Physics-informed training of one net over one or more members.

    ``members`` is a non-empty sequence of ``(model, plan)`` pairs whose
    models share one net; a single scenario is a family of one.
    Iteration ``i`` draws its functions and collocation batch from
    member ``i % len(members)``, and every gradient lands on the shared
    net.  The RNG, optimizer and history live on the trainer, so
    :meth:`advance` can interleave training chunks with evaluation and
    a second :meth:`run` continues where the first stopped.
    """

    def __init__(
        self,
        members: Sequence[Tuple[DeepOHeat, CollocationPlan]],
        config: Optional[TrainerConfig] = None,
    ):
        self.members = [(model, plan) for model, plan in members]
        if not self.members:
            raise ValueError("Trainer needs at least one (model, plan) member")
        net = self.members[0][0].net
        if any(model.net is not net for model, _ in self.members):
            raise ValueError("Trainer members must share one net")
        self.config = config if config is not None else TrainerConfig()
        if self.config.balance_every and len(self.members) > 1:
            raise ValueError(
                "balance_every adapts one member's loss weights; it cannot "
                f"train {len(self.members)} members"
            )
        for model, plan in self.members:
            # Transient models train on space-time (4-column) collocation
            # batches and vice versa; a mismatch would only surface as a
            # shape error deep inside the stacked propagation, so fail
            # fast here with the actual fix spelled out.
            model_transient = model.transient is not None
            plan_transient = bool(getattr(plan, "time_dependent", False))
            if model_transient != plan_transient:
                raise ValueError(
                    "transient mode mismatch: "
                    + (
                        "the model has a TransientSpec but the collocation "
                        "plan is steady — use TransientCollocation"
                        if model_transient
                        else "the collocation plan is time-dependent but the "
                        "model is steady — pass transient=TransientSpec(...) "
                        "to DeepOHeat"
                    )
                )
        self._rng: Optional[np.random.Generator] = None
        self._optimizer: Optional[Adam] = None
        self._schedule: Optional[ExponentialDecay] = None
        self._history: Optional[TrainingHistory] = None
        self._iteration = 0

    def run(
        self,
        callback: Optional[Callable[[int, float, Dict[str, float]], None]] = None,
        verbose: bool = False,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> TrainingHistory:
        """Train to ``config.iterations`` and return the loss history.

        ``callback(iteration, total, components)`` fires every
        ``log_every`` iterations (and on the last one).

        ``checkpoint_path`` + ``config.checkpoint_every`` turn on
        autosave: the full trainer state (parameters, Adam moments, RNG
        state, iteration, history, member 0's loss weights) is written
        crash-safely every N completed iterations.  ``resume=True``
        restores that snapshot if it exists (a missing file starts
        fresh) and continues with a bitwise-identical trajectory versus
        an uninterrupted run; a corrupt snapshot raises
        :class:`~repro.nn.CheckpointCorrupt`.
        """
        resumed = None
        if resume:
            if checkpoint_path is None:
                raise ValueError("resume=True requires a checkpoint_path")
            candidate = Path(checkpoint_path)
            if not candidate.exists() and candidate.with_suffix(
                candidate.suffix + ".npz"
            ).exists():
                candidate = candidate.with_suffix(candidate.suffix + ".npz")
            if candidate.exists():
                resumed = load_trainer_state(candidate)
                self._check_resume_config(resumed[1])
        if resumed is not None or self._optimizer is None:
            self._start(resumed)
        return self._train_until(
            self.config.iterations, callback, verbose, checkpoint_path
        )

    def advance(
        self,
        n: int,
        callback: Optional[Callable[[int, float, Dict[str, float]], None]] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run ``n`` more iterations from the current state.

        The incremental API for interleaving training with evaluation
        (e.g. fine-tune-to-error-threshold measurements); repeated calls
        continue the identical trajectory a single longer run would take.
        """
        if self._optimizer is None:
            self._start(None)
        return self._train_until(self._iteration + int(n), callback, verbose, None)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _train_until(
        self,
        stop: int,
        callback: Optional[Callable[[int, float, Dict[str, float]], None]],
        verbose: bool,
        checkpoint_path: Optional[Union[str, Path]],
    ) -> TrainingHistory:
        history = self._history
        prior_wall = history.wall_time
        started = time.perf_counter()
        while self._iteration < stop:
            self._step(callback, verbose)
            self._maybe_checkpoint(checkpoint_path, prior_wall, started)
        history.wall_time = prior_wall + time.perf_counter() - started
        return history

    def _step(
        self,
        callback: Optional[Callable[[int, float, Dict[str, float]], None]],
        verbose: bool,
    ) -> None:
        """One training iteration on member ``iteration % len(members)``."""
        cfg = self.config
        iteration = self._iteration
        member = iteration % len(self.members)
        model, plan = self.members[member]
        faults.hit("trainer.iteration", iteration=iteration, member=member)
        raws = [
            config_input.sample(self._rng, cfg.n_functions)
            for config_input in model.inputs
        ]
        batch = plan.batch(self._rng, cfg.n_functions)
        total, parts = model.compute_loss(raws, batch, stacked=cfg.stacked)
        if cfg.balance_every and iteration % cfg.balance_every == 0:
            self._rebalance(model.builder.weights, parts)
        optimizer = self._optimizer
        grads = ad.grad(total, optimizer.params)
        grad_arrays = [g.data for g in grads]
        if cfg.clip_norm is not None:
            grad_arrays = clip_grad_norm(grad_arrays, cfg.clip_norm)
        optimizer.lr = self._schedule(iteration)
        optimizer.step(grad_arrays)
        self._iteration += 1

        if iteration % cfg.log_every == 0 or iteration == cfg.iterations - 1:
            loss = total.item()
            self._history.record(iteration, loss, parts, optimizer.lr)
            if callback is not None:
                callback(iteration, loss, parts)
            if verbose:
                tag = f" member={member}" if len(self.members) > 1 else ""
                part_text = " ".join(
                    f"{k}={v:.3e}" for k, v in sorted(parts.items())
                )
                print(f"[{iteration:5d}]{tag} loss={loss:.4e} {part_text}")

    # ------------------------------------------------------------------
    # Checkpoint/resume plumbing
    # ------------------------------------------------------------------
    def _check_resume_config(self, meta: Dict) -> None:
        """Refuse to resume under config that would change the math."""
        saved = meta.get("config", {})
        mismatched = {
            name: (saved.get(name), getattr(self.config, name))
            for name in _RESUME_FIELDS
            if name in saved and saved[name] != getattr(self.config, name)
        }
        if mismatched:
            detail = ", ".join(
                f"{name}: saved {old!r} != current {new!r}"
                for name, (old, new) in sorted(mismatched.items())
            )
            raise ValueError(
                f"cannot resume: trajectory-determining config changed ({detail})"
            )

    def _start(self, resumed: Optional[Tuple[Dict[str, np.ndarray], Dict]]) -> None:
        """Build fresh (or snapshot-restored) RNG/optimizer/history state."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        params = self.members[0][0].net.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)
        history = TrainingHistory()
        iteration = 0
        if resumed is not None:
            arrays, meta = resumed
            expected = 3 * len(params)
            if len(arrays) != expected:
                raise CheckpointCorrupt(
                    "<trainer state>",
                    f"snapshot carries {len(arrays)} arrays but this model "
                    f"needs {expected} — wrong model for this checkpoint?",
                )
            for index, param in enumerate(params):
                param.data[...] = arrays[f"param_{index:03d}"]
                optimizer._m[index][...] = arrays[f"adam_m_{index:03d}"]
                optimizer._v[index][...] = arrays[f"adam_v_{index:03d}"]
            optimizer.step_count = int(meta["step_count"])
            rng.bit_generator.state = meta["rng_state"]
            recorded = meta.get("history", {})
            history.iterations = list(recorded.get("iterations", []))
            history.total_loss = list(recorded.get("total_loss", []))
            history.components = {
                k: list(v) for k, v in recorded.get("components", {}).items()
            }
            history.learning_rates = list(recorded.get("learning_rates", []))
            history.wall_time = float(recorded.get("wall_time", 0.0))
            weights = meta.get("weights") or {}
            if weights:
                builder_weights = self.members[0][0].builder.weights
                builder_weights.clear()
                builder_weights.update(weights)
            iteration = int(meta["iteration"])
            logger.info(
                "resuming training at iteration %d (of %d)",
                iteration,
                cfg.iterations,
            )
        self._rng = rng
        self._optimizer = optimizer
        self._schedule = cfg.schedule()
        self._history = history
        self._iteration = iteration

    def _maybe_checkpoint(
        self,
        checkpoint_path: Optional[Union[str, Path]],
        prior_wall: float,
        started: float,
    ) -> None:
        """Autosave the completed iterations when the cadence says so."""
        cfg = self.config
        if checkpoint_path is None or not cfg.checkpoint_every:
            return
        done = self._iteration
        if done % cfg.checkpoint_every != 0 or done >= cfg.iterations:
            return
        self._history.wall_time = prior_wall + time.perf_counter() - started
        save_trainer_state(
            checkpoint_path,
            iteration=done,
            params=self._optimizer.params,
            optimizer=self._optimizer,
            rng=self._rng,
            history=self._history,
            weights=self.members[0][0].builder.weights,
            config=cfg,
        )

    def _rebalance(self, weights: Dict[str, float], parts: Dict[str, float]) -> None:
        """Move loss weights toward inverse component magnitudes.

        Raw (unweighted) magnitudes are recovered by dividing each reported
        component by its current weight; new targets make every component
        contribute ~equally, smoothed by ``balance_momentum`` and clamped
        to ``[1/clip, clip]``.
        """
        cfg = self.config
        raw = {
            name: max(value / weights.get(name, 1.0), 1e-12)
            for name, value in parts.items()
        }
        mean_magnitude = float(np.mean(list(raw.values())))
        for name, magnitude in raw.items():
            target = mean_magnitude / magnitude
            target = float(np.clip(target, 1.0 / cfg.balance_clip, cfg.balance_clip))
            current = weights.get(name, 1.0)
            weights[name] = (
                cfg.balance_momentum * current
                + (1.0 - cfg.balance_momentum) * target
            )
