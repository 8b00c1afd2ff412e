"""Round-robin training of one conditioned model across family members.

:class:`FamilyTrainer` mirrors :class:`~repro.core.trainer.Trainer`'s
loop — same Adam, same staircase schedule, same crash-safe
checkpoint/resume snapshots — but each iteration draws its function
batch from member ``iteration % n_members``: every member keeps its own
collocation plan and physics while every gradient lands on the one
shared net.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import autodiff as ad
from .. import faults
from ..core.presets import ExperimentSetup
from ..core.trainer import (
    Trainer,
    TrainerConfig,
    TrainingHistory,
    load_trainer_state,
    save_trainer_state,
)
from ..nn import Adam, clip_grad_norm
from .spec import ScenarioFamily

logger = logging.getLogger("repro.family.trainer")


@dataclass
class FamilySetup:
    """A compiled family: shared net + one ``ExperimentSetup`` per member.

    Built by :meth:`ScenarioFamily.compile`.  ``setups[i].model`` all
    alias ``net``; ``envelope_inputs`` are the family-wide encoders that
    :meth:`member_setup` wraps around any further covered scenario
    (fine-tune targets, serving members).
    """

    family: ScenarioFamily
    net: object
    envelope_inputs: List
    members: List
    setups: List[ExperimentSetup] = field(default_factory=list)
    trainer_config: TrainerConfig = field(default_factory=TrainerConfig)

    @property
    def model(self):
        """A representative conditioned model (member 0's)."""
        return self.setups[0].model

    def member_setup(self, scenario) -> ExperimentSetup:
        """Wrap a covered scenario as a conditioned ``ExperimentSetup``.

        The scenario's own physics (config, collocation plan, eval
        grid) is kept; its inputs are re-encoded through the family
        envelope and the family's conditioning vector for it is
        appended — the resulting model aliases the shared ``net``.
        """
        from ..core.encoding import ScenarioConditioningInput
        from ..core.model import DeepOHeat
        from .conditioning import FamilyEncodedInput

        base_setup = scenario.compile()
        wrapped = [
            FamilyEncodedInput(member_input, envelope_input)
            for member_input, envelope_input in zip(
                base_setup.model.inputs, self.envelope_inputs
            )
        ]
        conditioning = ScenarioConditioningInput(
            self.family.conditioning_vector(scenario)
        )
        model = DeepOHeat(
            base_setup.model.config,
            wrapped + [conditioning],
            self.net,
            dt_ref=scenario.dt_ref,
            loss_weights=(dict(scenario.loss_weights)
                          if scenario.loss_weights else None),
            transient=base_setup.model.transient,
        )
        return ExperimentSetup(
            name=scenario.name,
            scale=scenario.scale,
            model=model,
            plan=base_setup.plan,
            trainer_config=base_setup.trainer_config,
            eval_grid=base_setup.eval_grid,
            description=f"family-conditioned {scenario.name!r}",
            scenario=scenario,
        )

    def make_trainer(self, config: Optional[TrainerConfig] = None
                     ) -> "FamilyTrainer":
        """A :class:`FamilyTrainer` over this setup."""
        return FamilyTrainer(self, config=config)


class FamilyTrainer:
    """Trains the shared conditioned net round-robin over the members.

    Holds its optimizer/RNG state across calls, so :meth:`advance` can
    interleave training chunks with evaluation (the fine-tune benchmark
    pattern) while :meth:`run` drives a full budget with the same
    autosave/resume contract as the single-scenario trainer.
    """

    def __init__(self, setup: FamilySetup,
                 config: Optional[TrainerConfig] = None):
        if not setup.setups:
            raise ValueError("family setup has no members")
        self.setup = setup
        self.config = config if config is not None else setup.trainer_config
        self._rng: Optional[np.random.Generator] = None
        self._params: Optional[List] = None
        self._optimizer: Optional[Adam] = None
        self._history: Optional[TrainingHistory] = None
        self._schedule = None
        self._iteration = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _ensure_state(
        self, resumed: Optional[Tuple[Dict[str, np.ndarray], Dict]] = None
    ) -> None:
        """Build (or rebuild-and-restore) the optimizer/RNG/history state."""
        if self._params is not None and resumed is None:
            return
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        self._params = self.setup.net.parameters()
        self._optimizer = Adam(self._params, lr=cfg.learning_rate)
        self._history = TrainingHistory()
        self._schedule = cfg.schedule()
        self._iteration = 0
        if resumed is not None:
            arrays, meta = resumed
            expected = 3 * len(self._params)
            if len(arrays) != expected:
                from ..nn.serialize import CheckpointCorrupt

                raise CheckpointCorrupt(
                    "<family trainer state>",
                    f"snapshot carries {len(arrays)} arrays but this model "
                    f"needs {expected} — wrong family for this checkpoint?",
                )
            for index, param in enumerate(self._params):
                param.data[...] = arrays[f"param_{index:03d}"]
                self._optimizer._m[index][...] = arrays[f"adam_m_{index:03d}"]
                self._optimizer._v[index][...] = arrays[f"adam_v_{index:03d}"]
            self._optimizer.step_count = int(meta["step_count"])
            self._rng.bit_generator.state = meta["rng_state"]
            recorded = meta.get("history", {})
            self._history.iterations = list(recorded.get("iterations", []))
            self._history.total_loss = list(recorded.get("total_loss", []))
            self._history.components = {
                k: list(v) for k, v in recorded.get("components", {}).items()
            }
            self._history.learning_rates = list(
                recorded.get("learning_rates", [])
            )
            self._history.wall_time = float(recorded.get("wall_time", 0.0))
            self._iteration = int(meta["iteration"])
            logger.info("resuming family training at iteration %d (of %d)",
                        self._iteration, cfg.iterations)

    def _snapshot(self, checkpoint_path: Union[str, Path],
                  prior_wall: float, started: float) -> None:
        """Write the crash-safe trainer-state snapshot."""
        self._history.wall_time = prior_wall + time.perf_counter() - started
        save_trainer_state(
            checkpoint_path,
            iteration=self._iteration,
            params=self._params,
            optimizer=self._optimizer,
            rng=self._rng,
            history=self._history,
            weights={},
            config=self.config,
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _step(self, iteration: int, callback, verbose: bool) -> None:
        """One round-robin training iteration."""
        cfg = self.config
        member = iteration % len(self.setup.setups)
        member_setup = self.setup.setups[member]
        faults.hit("family.iteration", iteration=iteration, member=member)
        raws = [
            config_input.sample(self._rng, cfg.n_functions)
            for config_input in member_setup.model.inputs
        ]
        batch = member_setup.plan.batch(self._rng, cfg.n_functions)
        loss, parts = member_setup.model.compute_loss(
            raws, batch, stacked=cfg.stacked
        )
        grads = ad.grad(loss, self._params)
        total = float(loss.item())
        grad_arrays = [g.data for g in grads]
        if cfg.clip_norm is not None:
            grad_arrays = clip_grad_norm(grad_arrays, cfg.clip_norm)
        self._optimizer.lr = self._schedule(iteration)
        self._optimizer.step(grad_arrays)
        is_log_step = (iteration % cfg.log_every == 0
                       or iteration == cfg.iterations - 1)
        if is_log_step:
            self._history.record(iteration, total, parts, self._optimizer.lr)
            if callback is not None:
                callback(iteration, total, parts)
            if verbose:
                part_text = " ".join(
                    f"{k}={v:.3e}" for k, v in sorted(parts.items())
                )
                print(f"[{iteration:5d}] member={member} "
                      f"loss={total:.4e} {part_text}")

    def advance(self, n: int, callback=None, verbose: bool = False
                ) -> TrainingHistory:
        """Run ``n`` more iterations from the current state.

        The incremental API for interleaving training with evaluation
        (e.g. fine-tune-to-error-threshold measurements); repeated
        calls continue the identical trajectory a single longer run
        would take.
        """
        self._ensure_state()
        prior_wall = self._history.wall_time
        started = time.perf_counter()
        for _ in range(int(n)):
            self._step(self._iteration, callback, verbose)
            self._iteration += 1
        self._history.wall_time = prior_wall + time.perf_counter() - started
        return self._history

    def run(
        self,
        callback: Optional[Callable[[int, float, Dict[str, float]], None]] = None,
        verbose: bool = False,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> TrainingHistory:
        """Train to ``config.iterations`` and return the loss history.

        Contract mirrors :meth:`repro.core.trainer.Trainer.run`:
        ``checkpoint_path`` + ``config.checkpoint_every`` autosave a
        resumable snapshot; ``resume=True`` restores it (missing file
        starts fresh) with a bitwise-identical trajectory versus an
        uninterrupted run.
        """
        cfg = self.config
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
                Trainer._check_resume_config(self, resumed[1])
        self._ensure_state(resumed)

        prior_wall = self._history.wall_time
        started = time.perf_counter()
        while self._iteration < cfg.iterations:
            self._step(self._iteration, callback, verbose)
            self._iteration += 1
            if (checkpoint_path is not None and cfg.checkpoint_every
                    and self._iteration % cfg.checkpoint_every == 0
                    and self._iteration < cfg.iterations):
                self._snapshot(checkpoint_path, prior_wall, started)
        self._history.wall_time = prior_wall + time.perf_counter() - started
        return self._history
