"""Data-driven operator learning — the baseline the paper argues against.

Sec. IV-B: "a DeepONet is generally trained via a data-driven approach, in
which data triplets (y, {u_i}, s) need to be collected via massive runs of
numerical simulation ... large-scale data collection is practically
prohibitive in this context."  This module implements exactly that
pipeline (FDM-labelled supervised training of the same MIONet), so the
baselines bench can measure the data-generation cost the paper avoids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import autodiff as ad
from ..core.model import DeepOHeat
from ..fdm import SolveFarm, get_default_farm
from ..geometry import StructuredGrid
from ..nn import Adam, paper_schedule


def spawn_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` independent child seeds derived from ``base_seed``.

    Deterministic in ``(base_seed, n)`` and nothing else.  Each child is
    a 64-bit integer suitable for :func:`numpy.random.default_rng`; the
    underlying :class:`~numpy.random.SeedSequence` spawn guarantees the
    child streams are pairwise independent (no overlap, no correlation),
    unlike ad-hoc ``base_seed + i`` offsets.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    children = np.random.SeedSequence(int(base_seed)).spawn(int(n))
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


@dataclass
class SupervisedDataset:
    """(configuration, solved field) pairs on a shared evaluation grid."""

    raws: List[np.ndarray]  # one entry per input; leading axis = samples
    fields_hat: np.ndarray  # (n_samples, n_points), hat temperature
    points_hat: np.ndarray  # (n_points, 3)
    generation_seconds: float

    @property
    def n_samples(self) -> int:
        return self.fields_hat.shape[0]


def generate_dataset(
    model: DeepOHeat,
    grid: StructuredGrid,
    n_samples: int,
    rng: Optional[np.random.Generator] = None,
    farm: Optional[SolveFarm] = None,
    seed: Optional[int] = None,
    solver: Optional[str] = None,
) -> SupervisedDataset:
    """Label random configurations with the FDM reference solver.

    Wall-clock generation time is recorded — it *is* the cost the paper's
    self-supervised training eliminates.  All samples stream through the
    shared-operator solve farm as one batch: designs that differ only in
    their power map share a single assembly + factorization and solve as
    one block of right-hand sides, which is where the data-generation
    speedup lives (see PAPERS.md on block-Krylov data generation).

    Pass exactly one of ``rng`` (the historical shared-stream sampling)
    or ``seed``: with ``seed``, each fixed 256-sample chunk draws from
    its own :func:`spawn_seeds` child stream, so the dataset depends
    only on ``(seed, n_samples)``.
    ``solver`` selects the farm tier for the labelling solves
    (``"auto"``/``"lu"``/``"block_cg"``).
    """
    if (rng is None) == (seed is None):
        raise ValueError("pass exactly one of rng= or seed=")
    # Chunked streaming keeps peak memory at O(chunk) solutions while the
    # farm's operator cache still amortises across every chunk.
    chunk = 256
    bounds = [
        (lo, min(n_samples, lo + chunk)) for lo in range(0, n_samples, chunk)
    ]
    if seed is not None:
        chunk_rngs = [
            np.random.default_rng(s) for s in spawn_seeds(seed, len(bounds))
        ]
        raw_chunks = [
            [config_input.sample(chunk_rng, hi - lo)
             for config_input in model.inputs]
            for chunk_rng, (lo, hi) in zip(chunk_rngs, bounds)
        ]
        raw_batches = [
            np.concatenate([chunk_raws[i] for chunk_raws in raw_chunks], axis=0)
            for i in range(len(model.inputs))
        ]
    else:
        raw_batches = [
            config_input.sample(rng, n_samples) for config_input in model.inputs
        ]
    points = grid.points()
    farm = farm if farm is not None else get_default_farm()
    fields = np.empty((n_samples, points.shape[0]))
    start = time.perf_counter()
    for lo, hi in bounds:
        problems = [
            model.concrete_config(
                {
                    config_input.name: raw[index]
                    for config_input, raw in zip(model.inputs, raw_batches)
                }
            ).heat_problem(grid)
            for index in range(lo, hi)
        ]
        solutions = farm.solve_many(problems, solver=solver)
        for index, solution in zip(range(lo, hi), solutions):
            fields[index] = model.nd.temp_to_hat(solution.temperature)
    elapsed = time.perf_counter() - start
    return SupervisedDataset(
        raws=raw_batches,
        fields_hat=fields,
        points_hat=model.nd.to_hat(points),
        generation_seconds=elapsed,
    )


@dataclass
class SupervisedHistory:
    iterations: List[int]
    mse: List[float]
    wall_time: float

    @property
    def final_mse(self) -> float:
        return self.mse[-1]


def train_supervised(
    model: DeepOHeat,
    dataset: SupervisedDataset,
    iterations: int = 500,
    batch_size: int = 8,
    learning_rate: float = 1e-3,
    seed: int = 0,
    log_every: int = 50,
) -> SupervisedHistory:
    """Fit the operator network to FDM labels with plain MSE.

    Uses the same architecture/optimizer/schedule as physics-informed
    training so the comparison isolates the *supervision source*.
    """
    rng = np.random.default_rng(seed)
    params = model.net.parameters()
    optimizer = Adam(params, lr=learning_rate)
    schedule = paper_schedule(learning_rate)
    targets = dataset.fields_hat
    logged: Dict[str, List] = {"it": [], "mse": []}
    start = time.perf_counter()
    for iteration in range(iterations):
        pick = rng.integers(0, dataset.n_samples, size=min(batch_size,
                                                           dataset.n_samples))
        branch_inputs = [
            ad.tensor(config_input.encode(raw[pick]))
            for config_input, raw in zip(model.inputs, dataset.raws)
        ]
        predicted = model.net.forward_cartesian(branch_inputs, dataset.points_hat)
        residual = predicted - ad.tensor(targets[pick])
        loss = ad.mean(residual * residual)
        grads = ad.grad(loss, params)
        optimizer.lr = schedule(iteration)
        optimizer.step([g.data for g in grads])
        if iteration % log_every == 0 or iteration == iterations - 1:
            logged["it"].append(iteration)
            logged["mse"].append(loss.item())
    return SupervisedHistory(
        iterations=logged["it"],
        mse=logged["mse"],
        wall_time=time.perf_counter() - start,
    )
