"""The DeepOHeat model facade: operator network + physics + units.

Glues together the pieces of Fig. 2: configuration encoders feeding branch
nets, the (Fourier-featured) trunk net over hat coordinates, the MIONet
merge, and the physics-informed loss.  Provides prediction APIs in SI units
and a reference path through the FDM solver for validation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..engine import CompiledSurrogate
from ..fdm import SolveFarm, ThermalSolution, get_default_farm
from ..fdm.assembly import assemble_rhs
from ..fdm.transient import TransientResult, TransientSolver
from ..geometry import StructuredGrid
from ..nn import MIONet, load_checkpoint, save_checkpoint
from ..nn.taylor import DerivativeStreams, stream_block_index
from .configs import ChipConfig
from .encoding import ConfigInput, apply_design
from .losses import PhysicsLossBuilder
from .sampler import CollocationBatch
from .transient import TransientSpec


class DeepOHeat:
    """Physics-informed multi-input operator surrogate for chip thermals.

    Parameters
    ----------
    config:
        Base chip design; the parts not covered by ``inputs`` stay fixed.
    inputs:
        Varying design configurations, in the same order as the MIONet's
        branch nets.
    net:
        The operator network; branch count must match ``inputs``.
    dt_ref:
        Temperature scale of the hat system (K).
    loss_weights:
        Optional residual weights (paper uses the unweighted sum).
    transient:
        A :class:`TransientSpec` switches the model into transient mode:
        the trunk consumes ``(x, y, z, t)`` (its input width must be 4),
        the physics loss gains the time-derivative and initial-condition
        terms, and rollout prediction/validation APIs become available.
    """

    def __init__(
        self,
        config: ChipConfig,
        inputs: Sequence[ConfigInput],
        net: MIONet,
        dt_ref: float = 10.0,
        loss_weights: Optional[Mapping[str, float]] = None,
        transient: Optional[TransientSpec] = None,
    ):
        if len(inputs) != net.n_inputs:
            raise ValueError(
                f"{len(inputs)} config inputs but the net has {net.n_inputs} branches"
            )
        for config_input, branch in zip(inputs, net.branches):
            if config_input.sensor_dim != branch.in_features:
                raise ValueError(
                    f"input {config_input.name!r} encodes {config_input.sensor_dim} "
                    f"sensors but its branch expects {branch.in_features}"
                )
        if transient is not None and net.trunk.in_features != 4:
            raise ValueError(
                f"transient mode needs a 4-input trunk (x, y, z, t); this "
                f"trunk consumes {net.trunk.in_features} coordinates"
            )
        self.config = config
        self.inputs = list(inputs)
        self.net = net
        self.nd = config.nondimensionalizer(dt_ref)
        self.transient = transient
        self._ic_grid: Optional[StructuredGrid] = (
            StructuredGrid(config.chip, transient.ic_grid_shape)
            if transient is not None
            else None
        )
        self.builder = PhysicsLossBuilder(
            config,
            inputs,
            self.nd,
            loss_weights,
            transient=transient,
            initial_field=self.initial_fields if transient is not None else None,
        )
        self._engine: Optional[CompiledSurrogate] = None
        # Per-batch derived geometry (regions/offsets/points/selections),
        # keyed by batch object identity; see compute_loss.
        self._loss_geometry: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_raws(self, raws: Sequence[np.ndarray]) -> List[Tensor]:
        """Encode raw instance batches into branch input tensors."""
        if len(raws) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} raw batches")
        return [
            ad.tensor(config_input.encode(raw))
            for config_input, raw in zip(self.inputs, raws)
        ]

    def encode_design(self, design: Mapping[str, np.ndarray]) -> List[Tensor]:
        """Encode one named design ``{input_name: value}`` (batch of 1)."""
        encoded = []
        for config_input in self.inputs:
            if config_input.name not in design:
                raise KeyError(f"design missing input {config_input.name!r}")
            raw = np.asarray(design[config_input.name], dtype=np.float64)
            encoded.append(ad.tensor(config_input.encode(raw[None, ...] if raw.ndim
                                                         else raw)))
        return encoded

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def compute_loss(
        self,
        raws: Sequence[np.ndarray],
        batch: CollocationBatch,
        stacked: bool = True,
    ) -> Tuple[Tensor, Dict[str, float]]:
        """Physics loss over a batch of sampled configurations.

        ``stacked`` selects the fused single-tensor derivative-stream
        propagation (the default training hot path, carrying the weighted
        Laplacian instead of per-axis Hessians); ``stacked=False`` runs
        the legacy per-axis streams as the numerical reference.
        """
        branch_inputs = self.encode_raws(raws)
        geometry = self._loss_geometry
        if geometry is None or geometry.get("batch") is not batch:
            # Fixed-mesh plans return the identical batch object every
            # iteration; caching the derived geometry keeps the
            # points-array identity stable so the trunk's constant-prefix
            # cache hits, and reuses the (range/index) selections.  The
            # concatenation / selection entries are filled lazily by
            # whichever path runs.
            regions = list(batch.hat)
            counts = [batch.hat[r].shape[-2] for r in regions]
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
            geometry = {"batch": batch, "regions": regions, "offsets": offsets}
            self._loss_geometry = geometry
        regions = geometry["regions"]
        offsets = geometry["offsets"]

        lap_weights = self.builder.axis_weights if stacked else None
        if stacked and not batch.aligned:
            if "selections" not in geometry:
                geometry["trunk_points"], geometry["selections"] = (
                    self._build_selections(batch, regions, offsets)
                )
            streams_by_region = self._selected_streams(
                branch_inputs,
                geometry["trunk_points"],
                geometry["selections"],
                regions,
                lap_weights,
            )
            return self.builder.loss(streams_by_region, batch, raws)

        if "all_points" not in geometry:
            axis = 1 if batch.aligned else 0
            geometry["all_points"] = np.concatenate(
                [batch.hat[r] for r in regions], axis=axis
            )
        all_points = geometry["all_points"]

        if batch.aligned:
            streams = self.net.forward_aligned_with_derivatives(
                branch_inputs, all_points, stacked=stacked,
                laplacian_weights=lap_weights,
            )
        else:
            streams = self.net.forward_cartesian_with_derivatives(
                branch_inputs, all_points, stacked=stacked,
            )

        streams_by_region: Dict[str, DerivativeStreams] = {}
        for region, start, stop in zip(regions, offsets[:-1], offsets[1:]):
            window = (slice(None), slice(int(start), int(stop)))
            streams_by_region[region] = DerivativeStreams(
                value=streams.value[window],
                gradient=[g[window] for g in streams.gradient],
                hessian_diag=[h[window] for h in streams.hessian_diag],
                laplacian_weighted=(
                    streams.laplacian_weighted[window]
                    if streams.laplacian_weighted is not None and region == "interior"
                    else None
                ),
                laplacian_axis_weights=streams.laplacian_axis_weights,
            )
        return self.builder.loss(streams_by_region, batch, raws)

    def _build_selections(
        self, batch: CollocationBatch, regions: Sequence[str], offsets: np.ndarray
    ):
        """Map each (region, required stream) pair to stack rows.

        The builder declares which streams each residual reads
        (:meth:`PhysicsLossBuilder.stream_requirements`).  With a
        deduplicating batch (structured mesh: face nodes are rows of the
        base region) the trunk runs only on the unique base points and
        face windows become index selections into the stack; otherwise
        the regions' concatenated points are used with range selections.
        Returns ``(trunk_points, [(region, need, rows), ...])``.
        """
        dedup = batch.dedup_indices if batch.dedup_base else None
        if dedup is not None:
            trunk_points = batch.hat[batch.dedup_base]
        else:
            trunk_points = np.concatenate(
                [batch.hat[r] for r in regions], axis=0
            )
        n, d = trunk_points.shape
        requirements = self.builder.stream_requirements()

        selections = []  # (region, need, rows) — rows: (start, stop) | index array
        for region, start, stop in zip(regions, offsets[:-1], offsets[1:]):
            for need in requirements[region]:
                base = stream_block_index(need, d) * n
                if dedup is None:
                    rows = (base + int(start), base + int(stop))
                elif region == batch.dedup_base:
                    rows = (base, base + n)
                else:
                    rows = base + dedup[region]
                selections.append((region, need, rows))
        return trunk_points, selections

    def _selected_streams(
        self,
        branch_inputs: Sequence[Tensor],
        trunk_points: np.ndarray,
        selections,
        regions: Sequence[str],
        lap_weights: Sequence[float],
    ) -> Dict[str, DerivativeStreams]:
        """Combine only the (stream, region) windows the loss consumes.

        ``MIONet.forward_cartesian_selected`` contracts the selected
        windows in one fused ``gather_combine`` node — skipping e.g. the
        interior windows of all gradient streams, by far the widest
        unused blocks — and, with a deduplicating batch, evaluates the
        trunk only once per unique mesh node.
        """
        d = trunk_points.shape[1]
        combined, _ = self.net.forward_cartesian_selected(
            branch_inputs,
            trunk_points,
            [rows for _, _, rows in selections],
            laplacian_weights=lap_weights,
        )

        parts: Dict[str, Dict[str, Tensor]] = {region: {} for region in regions}
        col = 0
        for region, need, rows in selections:
            length = (rows[1] - rows[0]) if isinstance(rows, tuple) else len(rows)
            window = combined[:, col : col + length]
            col += length
            if need == "value":
                window = window + self.net.bias
            parts[region][need] = window

        streams_by_region: Dict[str, DerivativeStreams] = {}
        for region in regions:
            entries = parts[region]
            streams_by_region[region] = DerivativeStreams(
                value=entries.get("value"),
                gradient=[entries.get(f"grad{i}") for i in range(d)],
                hessian_diag=[],
                laplacian_weighted=entries.get("laplacian"),
                laplacian_axis_weights=tuple(lap_weights),
            )
        return streams_by_region

    # ------------------------------------------------------------------
    # Serving engine
    # ------------------------------------------------------------------
    def compile(
        self,
        copy: bool = True,
        max_cache_entries: int = 8,
    ) -> CompiledSurrogate:
        """Freeze the current weights into a serving engine.

        ``copy=True`` (default) snapshots the weights, so the engine is
        immune to further training on this model; ``copy=False`` returns
        a live view that always evaluates the current parameters.
        """
        return CompiledSurrogate(self, copy=copy,
                                 max_cache_entries=max_cache_entries)

    def compile_with_cache(self, cache) -> CompiledSurrogate:
        """Live-view engine backed by an externally shared trunk cache.

        Used by session façades (:class:`~repro.api.ThermalService`)
        that serve many scenarios: engines share one
        :class:`~repro.engine.TrunkFeatureCache`, whose keys bind the
        trunk-weight digest, so scenarios sharing a query grid reuse
        features safely.
        """
        return CompiledSurrogate(self, copy=False, cache=cache)

    @property
    def engine(self) -> CompiledSurrogate:
        """Lazily-built live-view engine backing the ``predict*`` facade.

        Shares the model's parameter arrays (all updates are in place),
        and its trunk-feature cache keys on a weight digest, so continued
        training or checkpoint loads are picked up automatically.
        """
        if self._engine is None:
            self._engine = CompiledSurrogate(self, copy=False)
        return self._engine

    # ------------------------------------------------------------------
    # Prediction (SI units)
    # ------------------------------------------------------------------
    def predict(
        self, design: Mapping[str, np.ndarray], points_si: np.ndarray
    ) -> np.ndarray:
        """Temperature (kelvin) at SI points for one design."""
        return self.engine.predict(design, points_si=points_si)

    def predict_many(
        self, designs: Sequence[Mapping[str, np.ndarray]], points_si: np.ndarray
    ) -> np.ndarray:
        """Batched prediction: (n_designs, n_points) kelvin.

        Delegates to the compiled engine: one (cached) trunk evaluation,
        one stacked branch pass, one matmul — the amortised "GPU-like"
        throughput mode of the speedup study.
        """
        return self.engine.predict_batch(designs, points_si=points_si)

    def predict_many_uncached(
        self, designs: Sequence[Mapping[str, np.ndarray]], points_si: np.ndarray
    ) -> np.ndarray:
        """Legacy autodiff-layer prediction path: (n_designs, n_points) kelvin.

        Re-evaluates the full network (branch *and* trunk) through the
        :mod:`repro.autodiff` ops under ``no_grad``.  Kept as the numerical
        reference for engine-correctness tests and as the naive baseline
        the serving benchmark compares against.
        """
        points_hat = self.nd.to_hat(np.atleast_2d(points_si))
        with ad.no_grad():
            branch_rows = []
            for config_input in self.inputs:
                rows = [
                    config_input.encode(
                        np.asarray(design[config_input.name], dtype=np.float64)
                    )
                    for design in designs
                ]
                branch_rows.append(ad.tensor(np.concatenate(rows, axis=0)))
            t_hat = self.net.forward_cartesian(branch_rows, points_hat)
        return self.nd.temp_to_si(t_hat.data)

    def predict_grid(
        self, design: Mapping[str, np.ndarray], grid: StructuredGrid
    ) -> np.ndarray:
        """Full nodal field, shaped like the grid."""
        flat = self.engine.predict(design, grid=grid)
        return grid.to_array(flat)

    # ------------------------------------------------------------------
    # Transient mode
    # ------------------------------------------------------------------
    def _require_transient(self) -> TransientSpec:
        if self.transient is None:
            raise ValueError(
                "this model is steady-state; build it with transient="
                "TransientSpec(...) for rollout APIs"
            )
        return self.transient

    def initial_fields(
        self, raws: Sequence[np.ndarray], points_si: np.ndarray
    ) -> np.ndarray:
        """t=0 temperature (kelvin) of each sampled configuration.

        Solves every function's initial-condition steady problem (its
        inputs stamped at t=0) through the shared solve farm — one
        cached factorization, one RHS assembly + back-substitution per
        function — and trilinearly samples the fields at ``points_si``
        (spatial, ``(n_pts, 3)``).  Returns ``(n_funcs, n_pts)``.
        """
        self._require_transient()
        n_funcs = len(np.asarray(raws[0]))
        problems = []
        for index in range(n_funcs):
            config = self.config
            for config_input, raw in zip(self.inputs, raws):
                config = config_input.apply(config, raw[index])
            problems.append(config.heat_problem(self._ic_grid))
        solutions = get_default_farm().solve_many(problems)
        points = np.atleast_2d(np.asarray(points_si, dtype=np.float64))
        return np.stack([solution.sample(points) for solution in solutions])

    def predict_rollout(
        self,
        design: Mapping[str, np.ndarray],
        times: np.ndarray,
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Temperature rollout (kelvin) at ``times`` (s), ``(n_t, n_pts)``.

        Delegates to the engine's amortized rollout path: one trunk
        evaluation over the whole space-time block (cached across
        repeated rollouts), one branch pass, one matmul.
        """
        self._require_transient()
        return self.engine.predict_rollout(
            [design], times, grid=grid, points_si=points_si
        )[0]

    def reference_rollout(
        self,
        design: Mapping[str, np.ndarray],
        grid: StructuredGrid,
        dt: float,
        n_steps: int,
        theta: float = 1.0,
        save_every: int = 1,
        callback=None,
        farm: Optional[SolveFarm] = None,
    ) -> TransientResult:
        """Theta-scheme labels for this design's transient response.

        Starts from the farm-backed initial steady field, then steps the
        :class:`~repro.fdm.transient.TransientSolver` under the design's
        *time-varying* right-hand side: inputs exposing ``apply_at`` are
        re-stamped per step time and only their O(n) RHS half is
        re-assembled — the operator and its factorizations come from the
        shared farm cache.
        """
        spec = self._require_transient()
        farm = farm if farm is not None else get_default_farm()
        problem_zero = self.concrete_config(design).heat_problem(grid)
        solver = TransientSolver(problem_zero, spec.rho_cp, farm=farm)
        operator = farm.operator_for(problem_zero)

        time_inputs = [
            (config_input, design[config_input.name])
            for config_input in self.inputs
            if getattr(config_input, "time_dependent", False)
        ]
        base_config = self.concrete_config(design)

        def rhs_at(t_seconds: float) -> np.ndarray:
            config = base_config
            t_hat = t_seconds / spec.horizon
            for config_input, raw in time_inputs:
                config = config_input.apply_at(config, raw, t_hat)
            return assemble_rhs(config.heat_problem(grid), operator).rhs

        return solver.run(
            solver.initial_steady(),
            dt,
            n_steps,
            theta=theta,
            save_every=save_every,
            rhs=rhs_at if time_inputs else None,
            callback=callback,
        )

    # ------------------------------------------------------------------
    # Reference path
    # ------------------------------------------------------------------
    def concrete_config(self, design: Mapping[str, np.ndarray]) -> ChipConfig:
        """The ChipConfig with this design stamped on (for the FDM oracle)."""
        return apply_design(self.config, self.inputs, dict(design))

    def reference_solution(
        self,
        design: Mapping[str, np.ndarray],
        grid: StructuredGrid,
        farm: Optional[SolveFarm] = None,
    ) -> ThermalSolution:
        """Solve the same design with the FDM reference solver.

        Goes through the shared-operator solve farm, so repeated
        validations of designs that only move RHS terms (power maps)
        reuse one cached factorization.
        """
        farm = farm if farm is not None else get_default_farm()
        return farm.solve(self.concrete_config(design).heat_problem(grid))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path, meta: Optional[Dict] = None):
        meta = dict(meta or {})
        meta.setdefault("dt_ref", self.nd.dt_ref)
        meta.setdefault("inputs", [inp.name for inp in self.inputs])
        return save_checkpoint(self.net, path, meta=meta)

    def load(self, path) -> Dict:
        return load_checkpoint(self.net, path)
