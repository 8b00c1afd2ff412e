"""ThermalService: one session façade over the whole lifecycle.

A :class:`ThermalService` fronts every operation the stack supports —
reference solving (shared-operator :class:`~repro.fdm.SolveFarm`),
physics-informed training with a digest-keyed checkpoint registry,
batched surrogate serving (:class:`~repro.engine.CompiledSurrogate`
engines sharing one trunk-feature cache) and transient rollouts —
behind typed response objects, keyed everywhere by the *content digest*
of a :class:`~repro.api.scenario.ThermalScenario`.

The digest keying is load-bearing: two scenarios that differ only in an
HTC bound, a power family or a training budget hash differently, so
they can never alias each other's checkpoints or compiled models —
while re-submitting the same JSON (even under a new ``name``) reuses
every cached artifact.

Scenarios and scenario families share one model path.  Both get the
same per-digest session and the same train body (registry hit, corrupt
quarantine, resumable partial slot, save); :meth:`ThermalService.predict`
and :meth:`~ThermalService.predict_member` both resolve one model
handle (engine, the setup that places query points, and the member's
conditioning vector when a family answers) and run one predict body.
The serving daemon resolves its fused groups through the same handle.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..nn.serialize import CheckpointCorrupt, read_checkpoint_meta
from .scenario import ScenarioValidationError, ThermalScenario

logger = logging.getLogger(__name__)

DEFAULT_CACHE_DIR = Path(
    os.environ.get(
        "REPRO_MODEL_CACHE",
        Path(__file__).resolve().parents[3] / ".model_cache",
    )
)

Design = Mapping[str, np.ndarray]


# ----------------------------------------------------------------------
# Typed responses
# ----------------------------------------------------------------------
@dataclass
class SolveResult:
    """FDM reference solve of one or more designs of a scenario."""

    scenario_name: str
    digest: str
    grid_shape: tuple
    designs: List[Dict[str, np.ndarray]]
    fields: np.ndarray             # (B, nx, ny, nz) kelvin
    peaks: np.ndarray              # (B,)
    injected_power: np.ndarray     # (B,) watts
    energy_imbalance: np.ndarray   # (B,) relative
    elapsed: float
    farm_stats: Dict[str, int]


@dataclass
class TrainResult:
    """Outcome of ``train``: freshly fitted or registry-loaded."""

    scenario_name: str
    digest: str
    checkpoint_path: Path
    from_cache: bool
    iterations: int
    final_loss: Optional[float] = None
    wall_time: Optional[float] = None


def _train_result(subject, path: Path, from_cache: bool, iterations: int,
                  meta: Mapping) -> TrainResult:
    """A :class:`TrainResult` carrying a checkpoint's saved loss and time."""
    final_loss = meta.get("final_loss")
    wall_time = meta.get("wall_time")
    return TrainResult(
        scenario_name=subject.name,
        digest=subject.content_digest(),
        checkpoint_path=path,
        from_cache=from_cache,
        iterations=iterations,
        final_loss=None if final_loss is None else float(final_loss),
        wall_time=None if wall_time is None else float(wall_time),
    )


@dataclass
class PredictResult:
    """Batched steady surrogate evaluation."""

    scenario_name: str
    digest: str
    fields: np.ndarray   # (B, n_points) kelvin
    peaks: np.ndarray    # (B,)
    elapsed: float
    cache: Dict[str, int]


@dataclass
class RolloutResult:
    """Batched transient rollout over a shared time grid."""

    scenario_name: str
    digest: str
    times: np.ndarray        # (n_times,) seconds
    fields: np.ndarray       # (B, n_times, n_points) kelvin
    peak_traces: np.ndarray  # (B, n_times)
    elapsed: float
    cache: Dict[str, int]


@dataclass
class SweepChunk:
    """One streamed slice of a sweep (passed to ``on_chunk``)."""

    start: int
    stop: int
    peaks: np.ndarray  # (stop - start,)
    elapsed: float


@dataclass
class SweepValidation:
    """FDM cross-check of a sweep's outlier designs."""

    design_indices: np.ndarray   # into the sweep's design batch
    reference_peaks: np.ndarray
    peak_errors: np.ndarray      # |surrogate - FDM| kelvin
    worst_energy_imbalance: float
    elapsed: float
    farm_stats: Dict[str, int]


@dataclass
class SweepResult:
    """A full design-space sweep through the serving engine."""

    scenario_name: str
    digest: str
    n_designs: int
    chunk_size: int
    grid_shape: tuple
    raws: Dict[str, np.ndarray]  # stacked raw batches per input
    peaks: np.ndarray            # (n_designs,)
    elapsed: float
    cache: Dict[str, int]
    validation: Optional[SweepValidation] = None

    @property
    def throughput(self) -> float:
        """Designs per second over the sweep."""
        return self.n_designs / max(self.elapsed, 1e-12)

    def design(self, index: int) -> Dict[str, np.ndarray]:
        """Reconstruct one named design from the stacked raw batches."""
        return {name: batch[index] for name, batch in self.raws.items()}


@dataclass
class _Session:
    """Per-digest state the service keeps alive between calls.

    ``subject`` is a :class:`ThermalScenario` with its
    ``ExperimentSetup``, or a :class:`~repro.family.ScenarioFamily`
    with its ``FamilySetup``; both setups expose ``.model`` and
    ``.make_trainer()``.
    """

    subject: object
    setup: object
    engine: Optional[object] = None     # CompiledSurrogate
    trained: bool = False
    meta: Dict = field(default_factory=dict)


@dataclass
class _Handle:
    """A resolved model: what one predict or rollout runs on.

    ``setup`` is the ``ExperimentSetup`` whose chip and eval grid place
    the query points.  A family member carries its ``conditioning``
    vector and its ``family_digest``; a scenario answered by its own
    checkpoint carries ``None`` for both.
    """

    engine: object
    setup: object
    conditioning: Optional[np.ndarray] = None
    family_digest: Optional[str] = None

    def condition(self, designs):
        """``designs`` with the conditioning vector injected, if any."""
        if self.conditioning is None:
            return designs
        return [{**dict(design), "scenario_conditioning": self.conditioning}
                for design in designs]


# ----------------------------------------------------------------------
# Checkpoint registry
# ----------------------------------------------------------------------
class CheckpointRegistry:
    """Content-addressed checkpoint store.

    Files are named ``<slug>-<digest16>-v<version>.npz``: the digest is
    the key (so physics/training changes can never collide), the name is
    a sanitized human-readable prefix only, and the package version
    scopes the slot so a release that changes training semantics without
    touching any scenario field retrains instead of silently reusing a
    stale model.

    Loads are digest-verified: a checkpoint that fails sha256 payload
    verification (torn write, bit rot, tampering) is *quarantined* —
    renamed to ``<name>.corrupt`` so it stops matching :meth:`find` but
    stays on disk for postmortems — and the
    :class:`~repro.nn.CheckpointCorrupt` raised carries both paths.
    An in-progress training run additionally gets a *partial* slot
    (``<slug>-<digest16>-v<version>.train.npz``, see
    :meth:`train_state_path`) holding resumable trainer state; partial
    slots never satisfy :meth:`find` and are excluded from
    :meth:`entries`.
    """

    DIGEST_CHARS = 16

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    @staticmethod
    def _slug(name: str) -> str:
        """Filesystem-safe name prefix (scenario names are arbitrary)."""
        return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "scenario"

    def _key(self, scenario: ThermalScenario) -> str:
        from .. import __version__

        digest = scenario.content_digest()[: self.DIGEST_CHARS]
        return f"{digest}-v{__version__}.npz"

    def path_for(self, scenario: ThermalScenario) -> Path:
        """The canonical checkpoint path for this scenario."""
        return self.root / f"{self._slug(scenario.name)}-{self._key(scenario)}"

    def train_state_path(self, scenario: ThermalScenario) -> Path:
        """The *partial* slot: resumable trainer state for this digest.

        Lives next to the final slot but under ``….train.npz``, so
        :meth:`find` (which globs for ``…-<digest>-v<version>.npz``)
        can never mistake a half-trained snapshot for a finished model.
        """
        key = self._key(scenario)
        assert key.endswith(".npz")
        return self.root / (
            f"{self._slug(scenario.name)}-{key[:-len('.npz')]}.train.npz"
        )

    def find(self, scenario: ThermalScenario) -> Optional[Path]:
        """The stored checkpoint for this content digest, if any.

        Prefers the scenario's own name prefix but accepts any file
        carrying the digest — renaming a scenario must not orphan its
        checkpoint (the digest, not the label, is the key).
        """
        preferred = self.path_for(scenario)
        if preferred.exists():
            return preferred
        matches = sorted(self.root.glob(f"*-{self._key(scenario)}"))
        return matches[0] if matches else None

    def has(self, scenario: ThermalScenario) -> bool:
        """Whether a finished checkpoint exists for this digest."""
        return self.find(scenario) is not None

    def save(self, scenario: ThermalScenario, model,
             meta: Optional[Dict] = None,
             parent_digest: Optional[str] = None) -> Path:
        """Atomically write ``model`` (tmp + rename, payload sha256).

        ``parent_digest`` records checkpoint provenance in the lineage
        slot: the content digest of the checkpoint this one was warm
        started from (a family base for fine-tuned members, ``None``
        for roots trained from scratch).  :meth:`lineage` walks it.
        """
        return self._write_slot(self.path_for(scenario), scenario, model,
                                meta, parent_digest)

    def _write_slot(self, path: Path, scenario, model,
                    meta: Optional[Dict], parent_digest: Optional[str]
                    ) -> Path:
        """Shared atomic writer behind the final and fine-tuned slots."""
        self.root.mkdir(parents=True, exist_ok=True)
        meta = dict(meta or {})
        meta.setdefault("scenario_digest", scenario.content_digest())
        # Lineage slot: which checkpoint (if any) this one was
        # fine-tuned/resumed from — walked by lineage().
        meta.setdefault("lineage", {"parent_digest": parent_digest})
        # Write-then-rename: a crash (or a concurrent writer) mid-save
        # must never leave a truncated npz in the digest slot, where the
        # next find() would load it as a valid checkpoint.
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        written = model.save(tmp, meta=meta)
        os.replace(written, path)
        return path

    def quarantine(self, path: Union[str, Path]) -> Path:
        """Move a bad checkpoint aside (``<name>.corrupt``) and return it.

        The rename takes the file out of every future :meth:`find` /
        :meth:`entries` result while keeping the bytes on disk for
        inspection; an existing quarantine of the same name is
        overwritten (the newest corpse wins).
        """
        path = Path(path)
        target = path.with_name(path.name + ".corrupt")
        os.replace(path, target)
        return target

    def load(self, scenario: ThermalScenario, model) -> Dict:
        """Restore the stored checkpoint into ``model``; returns metadata.

        A checkpoint that fails digest verification (or otherwise does
        not deserialize into the model) is quarantined on disk and the
        re-raised :class:`~repro.nn.CheckpointCorrupt` records where it
        went — the caller's cue to retrain into the now-empty slot.
        """
        path = self.find(scenario)
        if path is None:
            raise FileNotFoundError(
                f"no checkpoint for digest "
                f"{scenario.content_digest()[:self.DIGEST_CHARS]} "
                f"in {self.root}"
            )
        try:
            return model.load(path)
        except CheckpointCorrupt as exc:
            quarantined = self.quarantine(path)
            raise CheckpointCorrupt(
                path, exc.reason, quarantined=quarantined
            ) from exc

    def entries(self) -> List[Path]:
        """Finished checkpoints only (partial ``.train.npz`` slots hidden)."""
        if not self.root.exists():
            return []
        return sorted(
            path
            for path in self.root.glob("*.npz")
            if not path.name.endswith(".train.npz")
        )

    # ------------------------------------------------------------------
    # Fine-tuned slots, family sidecars, lineage
    # ------------------------------------------------------------------
    def fine_tune_path(self, scenario: ThermalScenario) -> Path:
        """The *fine-tuned* slot for this digest (``….ft.npz``).

        A separate namespace from the final slot: :meth:`find` globs
        ``…-<digest>-v<version>.npz`` exactly, so a fine-tuned member
        can never shadow (or be shadowed by) a from-scratch checkpoint
        of the same scenario — callers choose which to prefer.
        """
        key = self._key(scenario)
        return self.root / (
            f"{self._slug(scenario.name)}-{key[:-len('.npz')]}.ft.npz"
        )

    def find_fine_tuned(self, scenario: ThermalScenario) -> Optional[Path]:
        """The stored fine-tuned checkpoint for this digest, if any."""
        preferred = self.fine_tune_path(scenario)
        if preferred.exists():
            return preferred
        key = self._key(scenario)
        matches = sorted(
            self.root.glob(f"*-{key[:-len('.npz')]}.ft.npz")
        )
        return matches[0] if matches else None

    def save_fine_tuned(self, scenario: ThermalScenario, model,
                        meta: Optional[Dict] = None,
                        parent_digest: Optional[str] = None) -> Path:
        """Atomically write a fine-tuned member into its ``.ft`` slot."""
        return self._write_slot(self.fine_tune_path(scenario), scenario,
                                model, meta, parent_digest)

    def family_spec_path(self, family) -> Path:
        """The JSON sidecar recording a family checkpoint's spec."""
        key = self._key(family)
        return self.root / (
            f"{self._slug(family.name)}-{key[:-len('.npz')]}.family.json"
        )

    def write_family_spec(self, family) -> Path:
        """Persist the family spec sidecar (atomic; idempotent).

        The sidecar is what makes :meth:`find_family_ancestor` possible
        across processes: a fresh registry can re-derive which families
        its checkpoints belong to without any in-memory state.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.family_spec_path(family)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(family.to_json())
        os.replace(tmp, path)
        return path

    def find_family_ancestor(self, scenario: ThermalScenario):
        """``(family, checkpoint_path)`` of a trained family covering this.

        Scans the family spec sidecars (sorted, so ties break
        deterministically), skipping unparseable specs and families
        whose checkpoint is missing.  Returns ``None`` when no trained
        family covers the scenario.
        """
        if not self.root.exists():
            return None
        from ..family import ScenarioFamily

        for spec_path in sorted(self.root.glob("*.family.json")):
            try:
                family = ScenarioFamily.from_json(spec_path)
            except (ScenarioValidationError, OSError):
                continue
            checkpoint = self.find(family)
            if checkpoint is None:
                continue
            if family.covers(scenario):
                return family, checkpoint
        return None

    def _find_by_digest(self, digest: str) -> Optional[Path]:
        """Any finished checkpoint carrying ``digest`` (any version/slot)."""
        short = digest[: self.DIGEST_CHARS]
        matches = sorted(
            path
            for path in self.root.glob(f"*-{short}-v*.npz")
            if not path.name.endswith(".train.npz")
        )
        return matches[0] if matches else None

    def lineage(self, scenario) -> List[Dict]:
        """The checkpoint provenance chain, child first, root last.

        Starts from the scenario's fine-tuned slot (falling back to the
        final slot) and follows ``lineage.parent_digest`` links through
        the registry.  Each entry is
        ``{"digest", "path", "parent_digest"}``.  An empty list means
        no checkpoint exists; a missing or cyclic parent raises
        :class:`~repro.nn.CheckpointCorrupt` — lineage metadata that
        cannot be walked is corruption, not a soft miss.
        """
        path = self.find_fine_tuned(scenario) or self.find(scenario)
        if path is None:
            return []
        chain: List[Dict] = []
        seen: set = set()
        while path is not None:
            if str(path) in seen:
                raise CheckpointCorrupt(
                    path, "cyclic checkpoint lineage (parent chain loops "
                    "back to an already-visited checkpoint)"
                )
            seen.add(str(path))
            meta = read_checkpoint_meta(path)
            digest = meta.get("scenario_digest")
            if digest is not None:
                if digest in seen:
                    raise CheckpointCorrupt(
                        path, f"cyclic checkpoint lineage at digest "
                        f"{digest[:self.DIGEST_CHARS]}…"
                    )
                seen.add(digest)
            parent = (meta.get("lineage") or {}).get("parent_digest")
            chain.append({
                "digest": digest,
                "path": str(path),
                "parent_digest": parent,
            })
            if parent is None:
                break
            path = self._find_by_digest(parent)
            if path is None:
                raise CheckpointCorrupt(
                    chain[-1]["path"],
                    f"parent checkpoint (digest "
                    f"{parent[:self.DIGEST_CHARS]}…) is missing from the "
                    f"registry",
                )
        return chain


# ----------------------------------------------------------------------
# The façade
# ----------------------------------------------------------------------
class ThermalService:
    """Session façade: solve / train / predict / rollout / sweep.

    Parameters
    ----------
    cache_dir:
        Checkpoint registry root (default: the package-level
        ``.model_cache``, overridable via ``REPRO_MODEL_CACHE``).
    farm:
        Shared-operator FDM solve farm; defaults to the process-wide
        farm, so reference solves reuse factorizations across services.
    trunk_cache_entries:
        Capacity of the session-wide trunk-feature cache every compiled
        engine shares (keys bind grid *and* weight digest, so scenarios
        sharing a query grid coexist safely).
    memory_budget:
        Optional byte budget over the session's caches, split evenly
        between the trunk-feature cache and a *private* solve farm
        (byte-accounted LRU eviction on both — see their
        ``cache_stats()``).  This is what the serving daemon's
        ``--memory-budget`` flag sets; results are unchanged, only
        cache residency (and therefore recompute cost) varies.
    solver:
        Solver tier for every reference FDM solve the session issues
        (``"auto"`` / ``"lu"`` / ``"block_cg"``, see
        :meth:`repro.fdm.SolveFarm.solve_many` and ``docs/solvers.md``).
        ``None`` (default) keeps the farm's exact direct path.  With a
        ``memory_budget``, ``"auto"`` lets grids whose LU factorization
        cannot fit the budget degrade to ``"block_cg"`` instead of
        thrashing the cache.

    A service is a context manager: ``with ThermalService(...) as s:``
    tears down the private farm, engines and caches exactly once
    on exit (:meth:`close` is idempotent).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        farm=None,
        trunk_cache_entries: int = 16,
        memory_budget: Optional[int] = None,
        solver: Optional[str] = None,
    ):
        from ..engine import TrunkFeatureCache

        self.registry = CheckpointRegistry(
            Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        )
        self._farm = farm
        self._owns_farm = False
        self.solver = solver
        self.memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        trunk_bytes = (
            None if self.memory_budget is None else max(1, self.memory_budget // 2)
        )
        self._trunk_cache = TrunkFeatureCache(trunk_cache_entries,
                                              max_bytes=trunk_bytes)
        self._sessions: Dict[str, _Session] = {}   # scenarios and families
        self._finetuned: Dict[str, _Session] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def farm(self):
        """The session's solve farm: private when budgeted, else shared."""
        if self._farm is None:
            if self.memory_budget is not None:
                from ..fdm import SolveFarm

                # A private farm: the memory its factorizations hold
                # belongs to this session, not to every other
                # default-farm user in the process — which is what makes
                # a byte budget enforceable.
                self._farm = SolveFarm(
                    max_bytes=max(1, self.memory_budget // 2)
                )
                self._owns_farm = True
                self._closed = False  # fresh resources, fresh teardown
            else:
                from ..fdm import get_default_farm

                self._farm = get_default_farm()
        return self._farm

    def close(self) -> None:
        """Tear the session down — idempotent, exactly-once.

        Releases the private farm's cached factorizations (a farm
        passed in by the caller is left alone: they own its lifecycle),
        drops every per-scenario engine, and clears the shared
        trunk-feature cache.  Safe to call twice; a
        closed service can still be used, lazily rebuilding what it
        needs (the flag only guards the teardown itself).
        """
        if self._closed:
            return
        self._closed = True
        if self._farm is not None and self._owns_farm:
            self._farm = None
            self._owns_farm = False
        for entry in (*self._sessions.values(), *self._finetuned.values()):
            entry.engine = None
        self._trunk_cache.clear()

    def __enter__(self) -> "ThermalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_stats(self) -> Dict[str, Dict]:
        """Per-cache counters (trunk features + solve farm), one shape.

        The daemon's ``/stats`` endpoint returns this verbatim; the
        ``farm`` half reads the *session's* farm without instantiating
        one (a service that never solved has no farm to report).
        """
        stats = {"trunk": self._trunk_cache.cache_stats()}
        if self._farm is not None and hasattr(self._farm, "cache_stats"):
            stats["farm"] = self._farm.cache_stats()
        return stats

    def session(self, subject) -> _Session:
        """The per-digest session of a scenario or family (compiled once)."""
        return self._session(subject, subject.content_digest())

    def _session(self, subject, digest: str) -> _Session:
        """:meth:`session` for a caller already holding the digest."""
        entry = self._sessions.get(digest)
        if entry is None:
            entry = _Session(subject=subject, setup=subject.compile())
            self._sessions[digest] = entry
        return entry

    def setup(self, scenario: ThermalScenario):
        """The compiled :class:`~repro.core.presets.ExperimentSetup`."""
        return self.session(scenario).setup

    def engine(self, scenario: ThermalScenario):
        """The (trained) compiled serving engine for a scenario."""
        return self._engine_of(self.session(scenario))

    def _engine_of(self, entry: _Session):
        if entry.engine is None:
            # Live view: weights loaded/trained later stay visible, and
            # the digest-keyed trunk cache invalidates transparently.
            entry.engine = entry.setup.model.compile_with_cache(self._trunk_cache)
        return entry.engine

    def sample_designs(
        self, scenario: ThermalScenario, n: int, seed: int = 0
    ) -> Dict[str, np.ndarray]:
        """Stacked raw design batches drawn from the input families."""
        entry = self.session(scenario)
        rng = np.random.default_rng(seed)
        return {
            config_input.name: config_input.sample(rng, n)
            for config_input in entry.setup.model.inputs
        }

    @staticmethod
    def _design_list(raws: Mapping[str, np.ndarray], n: int
                     ) -> List[Dict[str, np.ndarray]]:
        return [{name: batch[index] for name, batch in raws.items()}
                for index in range(n)]

    # ------------------------------------------------------------------
    # Solve (FDM reference)
    # ------------------------------------------------------------------
    def solve(
        self,
        scenario: ThermalScenario,
        designs: Optional[Sequence[Design]] = None,
        n_designs: int = 1,
        grid_shape: Optional[tuple] = None,
        seed: int = 0,
    ) -> SolveResult:
        """Reference-solve designs of a scenario through the solve farm.

        With ``designs=None``, ``n_designs`` random designs are sampled
        from the scenario's input families (seeded).  Transient
        scenarios solve their t=0 (initial-condition) problem.
        """
        if designs is None:
            raws = self.sample_designs(scenario, n_designs, seed=seed)
            designs = self._design_list(raws, n_designs)
        return self._solve(scenario, scenario.content_digest(), designs,
                           grid_shape)

    def _solve(self, scenario: ThermalScenario, digest: str,
               designs: Sequence[Design],
               grid_shape: Optional[tuple] = None) -> SolveResult:
        """:meth:`solve` of given designs for a caller holding the digest."""
        entry = self._session(scenario, digest)
        model = entry.setup.model
        designs = [dict(design) for design in designs]
        grid = self._grid(entry.setup, grid_shape)

        start = time.perf_counter()
        problems = [
            model.concrete_config(design).heat_problem(grid)
            for design in designs
        ]
        solutions = self.farm.solve_many(problems, solver=self.solver)
        elapsed = time.perf_counter() - start

        return SolveResult(
            scenario_name=scenario.name,
            digest=digest,
            grid_shape=tuple(grid.shape),
            designs=designs,
            fields=np.stack([solution.to_array() for solution in solutions]),
            peaks=np.asarray([solution.t_max for solution in solutions]),
            injected_power=np.asarray([
                solution.info["energy"].injected for solution in solutions
            ]),
            energy_imbalance=np.asarray([
                solution.info["energy"].relative_imbalance
                for solution in solutions
            ]),
            elapsed=elapsed,
            farm_stats=self.farm.cache_info(),
        )

    @staticmethod
    def _grid(setup, grid_shape: Optional[tuple]):
        """``setup``'s eval grid, or a ``grid_shape`` grid over its chip."""
        if grid_shape is None:
            return setup.eval_grid
        from ..geometry import StructuredGrid

        return StructuredGrid(setup.model.config.chip, tuple(grid_shape))

    # ------------------------------------------------------------------
    # Train
    # ------------------------------------------------------------------
    def train(
        self,
        scenario: ThermalScenario,
        force_retrain: bool = False,
        verbose: bool = False,
        resume: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> TrainResult:
        """Train a scenario's surrogate, or load it from the registry.

        The registry keys on the scenario's *content digest*: any change
        to physics, architecture or budget lands in a fresh slot, and
        scenarios differing only by name share one.  A cached checkpoint
        that fails digest verification is quarantined and the scenario
        retrained into the slot — corruption self-heals instead of
        propagating garbage weights.

        ``checkpoint_every=N`` autosaves resumable trainer state into
        the registry's partial slot every N iterations;
        ``resume=True`` continues from that slot if present (bitwise
        identical to an uninterrupted run) and is a no-op fresh start
        otherwise.  The partial slot is deleted once the run finishes
        and the final checkpoint is saved.
        """
        return self._train(scenario, scenario.training.iterations,
                           force_retrain, verbose, resume, checkpoint_every)

    def _train(self, subject, iterations: int, force_retrain: bool,
               verbose: bool, resume: bool,
               checkpoint_every: Optional[int],
               extra_meta: Optional[Dict] = None,
               on_checkpoint: Optional[Callable] = None) -> TrainResult:
        """The train body behind :meth:`train` and :meth:`train_family`.

        ``extra_meta`` joins the saved metadata; ``on_checkpoint(subject)``
        runs once the final slot holds the model (on a hit and after a
        save).
        """
        entry = self.session(subject)

        if not force_retrain and self.registry.has(subject):
            try:
                meta = self.registry.load(subject, entry.setup.model)
            except CheckpointCorrupt as exc:
                logger.warning(
                    "cached checkpoint for %s (digest %s) is corrupt: %s; "
                    "retraining into the slot",
                    subject.name,
                    subject.content_digest()[: self.registry.DIGEST_CHARS],
                    exc,
                )
            else:
                if on_checkpoint is not None:
                    on_checkpoint(subject)
                entry.trained = True
                entry.meta = dict(meta or {})
                return _train_result(subject, self.registry.find(subject),
                                     True, iterations, entry.meta)

        trainer = entry.setup.make_trainer()
        if checkpoint_every is not None:
            # A copy: the session's config must not keep autosaving on
            # later calls that pass no checkpoint_every.
            trainer.config = replace(trainer.config,
                                     checkpoint_every=int(checkpoint_every))
        train_state = None
        if resume or trainer.config.checkpoint_every:
            train_state = self.registry.train_state_path(subject)
        try:
            history = trainer.run(
                verbose=verbose, checkpoint_path=train_state, resume=resume
            )
        except CheckpointCorrupt as exc:
            # The partial slot was torn (e.g. by the very crash we are
            # resuming from, pre-atomic-write).  load failures happen
            # before any weight restore, so a fresh start is safe.
            quarantined = (
                self.registry.quarantine(exc.path) if exc.path.exists() else None
            )
            logger.warning(
                "resumable trainer state for %s is corrupt: %s "
                "(quarantined to %s); restarting training from scratch",
                subject.name,
                exc.reason,
                quarantined,
            )
            history = trainer.run(
                verbose=verbose, checkpoint_path=train_state, resume=False
            )
        meta = {
            "final_loss": history.final_loss,
            "wall_time": history.wall_time,
            "iterations": iterations,
            **(extra_meta or {}),
        }
        path = self.registry.save(subject, entry.setup.model, meta=meta)
        if on_checkpoint is not None:
            on_checkpoint(subject)
        if train_state is not None:
            Path(train_state).unlink(missing_ok=True)
        entry.trained = True
        entry.meta = meta
        return _train_result(subject, path, False, iterations, meta)

    def load_checkpoint(self, scenario: ThermalScenario,
                        path: Union[str, Path]) -> None:
        """Load explicit weights for a scenario (bypassing the registry)."""
        entry = self.session(scenario)
        entry.setup.model.load(path)
        entry.trained = True

    def _ensure_trained(self, subject, digest: Optional[str] = None
                        ) -> _Session:
        """The subject's session, trained or registry-loaded on first use."""
        entry = self._session(subject, digest or subject.content_digest())
        if not entry.trained:
            from ..family import ScenarioFamily

            if isinstance(subject, ScenarioFamily):
                self.train_family(subject)
            else:
                self.train(subject)
        return entry

    # ------------------------------------------------------------------
    # Families: multi-scenario training, fine-tuning, lineage
    # ------------------------------------------------------------------
    def family_session(self, family) -> _Session:
        """The per-family-digest session; ``.setup`` is the ``FamilySetup``."""
        return self.session(family)

    def family_engine(self, family):
        """The compiled conditioned serving engine for a family.

        One engine serves *every* covered member: member identity rides
        in the ``scenario_conditioning`` design key (see
        :meth:`predict_member`), so requests for different members fuse
        on the engine's cached-trunk fast path exactly like same-member
        batches.
        """
        return self._engine_of(self.session(family))

    def train_family(
        self,
        family,
        force_retrain: bool = False,
        verbose: bool = False,
        resume: bool = False,
        checkpoint_every: Optional[int] = None,
    ) -> TrainResult:
        """Train one conditioned surrogate across the family's members.

        Same registry contract as :meth:`train` — keyed by the
        *family's* content digest, with the same corrupt-quarantine
        self-healing and resumable partial slot — plus a
        ``<slug>-<digest>-….family.json`` sidecar recording the spec,
        which is what lets :meth:`CheckpointRegistry.find_family_ancestor`
        match covered scenarios to this checkpoint in later processes.
        """
        members = self.session(family).setup.members
        family_meta = {
            "name": family.name,
            "n_members": family.n_members,
            "member_digests": [member.content_digest() for member in members],
        }
        return self._train(family, family.base.training.iterations,
                           force_retrain, verbose, resume, checkpoint_every,
                           extra_meta={"family": family_meta},
                           on_checkpoint=self.registry.write_family_spec)

    def fine_tune(
        self,
        scenario: ThermalScenario,
        from_family,
        iterations: Optional[int] = None,
        force_retrain: bool = False,
        verbose: bool = False,
    ) -> TrainResult:
        """Fine-tune the family surrogate to one covered scenario.

        Warm-starts a *fresh* conditioned model from the family
        checkpoint (training the family first if needed — the family
        serving engine's weights are never mutated) and trains it on
        the target scenario alone.  The result lands in the scenario's
        ``.ft.npz`` registry slot with ``parent_digest`` set to the
        family's content digest, so :meth:`lineage` walks member →
        family.  ``iterations`` overrides the scenario's own training
        budget (the point of fine-tuning is needing far fewer).
        """
        family = from_family
        if not family.covers(scenario):
            raise ValueError(
                f"scenario {scenario.name!r} is outside family "
                f"{family.name!r}'s envelope; fine-tune targets must be "
                f"covered members"
            )
        from ..core.trainer import Trainer

        digest = scenario.content_digest()
        cached = self._finetuned.get(digest)
        if cached is not None and not force_retrain:
            path = self.registry.find_fine_tuned(scenario)
            if path is not None:
                return _train_result(scenario, path, True,
                                     int(cached.meta.get("iterations", 0)),
                                     cached.meta)

        # A fresh compile gives fine-tuning its own net: the family
        # session (and any engine serving it) keeps its weights.
        fresh = family.compile()
        target = fresh.member_setup(scenario)

        ft_path = self.registry.find_fine_tuned(scenario)
        if ft_path is not None and not force_retrain:
            try:
                meta = target.model.load(ft_path)
            except CheckpointCorrupt as exc:
                quarantined = self.registry.quarantine(ft_path)
                logger.warning(
                    "fine-tuned checkpoint for %s is corrupt: %s "
                    "(quarantined to %s); re-fine-tuning into the slot",
                    scenario.name, exc.reason, quarantined,
                )
            else:
                meta = dict(meta or {})
                self._finetuned[digest] = _Session(
                    subject=scenario, setup=target, trained=True, meta=meta)
                return _train_result(scenario, ft_path, True,
                                     int(meta.get("iterations", 0)), meta)

        if not self.registry.has(family):
            self.train_family(family, verbose=verbose)
        self.registry.load(family, target.model)

        config = replace(
            target.trainer_config,
            iterations=(int(iterations) if iterations is not None
                        else target.trainer_config.iterations),
        )
        history = Trainer([(target.model, target.plan)], config).run(
            verbose=verbose
        )
        meta = {
            "final_loss": history.final_loss,
            "wall_time": history.wall_time,
            "iterations": config.iterations,
        }
        path = self.registry.save_fine_tuned(
            scenario, target.model, meta=meta,
            parent_digest=family.content_digest(),
        )
        self._finetuned[digest] = _Session(subject=scenario, setup=target,
                                           trained=True, meta=meta)
        return _train_result(scenario, path, False, config.iterations, meta)

    def predict_member(
        self,
        family,
        scenario: ThermalScenario,
        designs: Sequence[Design],
        grid_shape: Optional[tuple] = None,
        points_si: Optional[np.ndarray] = None,
        t: Optional[float] = None,
        prefer_fine_tuned: bool = True,
    ) -> PredictResult:
        """Serve a covered member scenario through the family surrogate.

        Injects the member's conditioning vector into every design and
        evaluates on the conditioned engine — the fine-tuned member
        checkpoint when one exists (and ``prefer_fine_tuned``), else
        the shared family engine (training the family on first use).
        """
        if not family.covers(scenario):
            raise ValueError(
                f"scenario {scenario.name!r} is outside family "
                f"{family.name!r}'s envelope"
            )
        return self._predict(scenario, designs, grid_shape, points_si, t,
                             family=family,
                             prefer_fine_tuned=prefer_fine_tuned)

    def lineage(self, scenario) -> List[Dict]:
        """Checkpoint provenance chain for a scenario (child → root).

        Delegates to :meth:`CheckpointRegistry.lineage`; surfaced by
        ``repro info --json --config <scenario>``.
        """
        return self.registry.lineage(scenario)

    # ------------------------------------------------------------------
    # Predict / rollout (surrogate serving)
    # ------------------------------------------------------------------
    def predict(
        self,
        scenario: ThermalScenario,
        designs: Sequence[Design],
        grid_shape: Optional[tuple] = None,
        points_si: Optional[np.ndarray] = None,
        t: Optional[float] = None,
    ) -> PredictResult:
        """Batched surrogate evaluation (training on first use if needed).

        Steady scenarios evaluate on the eval grid (or ``grid_shape`` /
        ``points_si``); transient scenarios need an instant ``t`` in
        seconds (use :meth:`rollout` for whole trajectories).
        """
        return self._predict(scenario, designs, grid_shape, points_si, t)

    def _handle(self, scenario: ThermalScenario, family=None,
                prefer_fine_tuned: bool = False, digest: Optional[str] = None,
                family_digest: Optional[str] = None) -> _Handle:
        """Resolve the model that answers ``scenario``.

        Without ``family``: the scenario's own model, trained on first
        use.  With one: the member's fine-tuned model when
        ``prefer_fine_tuned`` and one exists, else the shared family
        engine (trained on first use); either way fed the member's
        conditioning vector.  Coverage is the caller's check.
        ``digest`` / ``family_digest`` are the content digests when the
        caller already holds them (each is computed otherwise).
        """
        if family is None:
            entry = self._ensure_trained(scenario, digest)
            return _Handle(self._engine_of(entry), entry.setup)
        family_digest = family_digest or family.content_digest()
        entry = None
        if prefer_fine_tuned:
            digest = digest or scenario.content_digest()
            if (digest not in self._finetuned
                    and self.registry.find_fine_tuned(scenario) is not None):
                self.fine_tune(scenario, from_family=family)
            entry = self._finetuned.get(digest)
        if entry is not None:
            setup = entry.setup
        else:
            entry = self._ensure_trained(family, family_digest)
            setup = entry.setup.setups[0]
        return _Handle(self._engine_of(entry), setup,
                       family.conditioning_vector(scenario), family_digest)

    def _predict(self, scenario: ThermalScenario, designs, grid_shape,
                 points_si, t, family=None,
                 prefer_fine_tuned: bool = False) -> PredictResult:
        """The predict body behind :meth:`predict` and :meth:`predict_member`."""
        if scenario.transient is not None and t is None:
            raise ValueError(
                "transient scenarios evaluate at an instant: pass t= "
                "(seconds) or use rollout() for full trajectories"
            )
        handle = self._handle(scenario, family, prefer_fine_tuned)
        grid = (None if points_si is not None
                else self._grid(handle.setup, grid_shape))
        designs = handle.condition(designs)
        start = time.perf_counter()
        fields = handle.engine.predict_batch(designs, grid=grid,
                                             points_si=points_si, t=t)
        elapsed = time.perf_counter() - start
        return PredictResult(
            scenario_name=scenario.name,
            digest=scenario.content_digest(),
            fields=fields,
            peaks=fields.max(axis=1),
            elapsed=elapsed,
            cache=handle.engine.cache_info()._asdict(),
        )

    def rollout(
        self,
        scenario: ThermalScenario,
        designs: Sequence[Design],
        times: np.ndarray,
        grid_shape: Optional[tuple] = None,
        points_si: Optional[np.ndarray] = None,
    ) -> RolloutResult:
        """Batched transient rollout over a shared time grid (seconds)."""
        if scenario.transient is None:
            raise ValueError(
                "rollout needs a transient scenario; this one is steady "
                "(no 'transient' section)"
            )
        handle = self._handle(scenario)
        engine = handle.engine
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        grid = (None if points_si is not None
                else self._grid(handle.setup, grid_shape))
        start = time.perf_counter()
        fields = engine.predict_rollout(designs, times, grid=grid,
                                        points_si=points_si)
        elapsed = time.perf_counter() - start
        return RolloutResult(
            scenario_name=scenario.name,
            digest=scenario.content_digest(),
            times=times,
            fields=fields,
            peak_traces=fields.max(axis=2),
            elapsed=elapsed,
            cache=engine.cache_info()._asdict(),
        )

    # ------------------------------------------------------------------
    # Sweep (streaming serving + outlier validation)
    # ------------------------------------------------------------------
    def sweep(
        self,
        scenario: ThermalScenario,
        n_designs: int = 64,
        chunk_size: int = 16,
        seed: int = 0,
        validate: int = 0,
        grid_shape: Optional[tuple] = None,
        on_chunk: Optional[Callable[[SweepChunk], None]] = None,
    ) -> SweepResult:
        """Stream sampled designs through the engine in chunks.

        ``validate=N`` cross-checks the N hottest designs against the
        FDM farm (shared operator, one back-substitution each) and
        reports the surrogate's peak-temperature error on them.
        """
        if scenario.transient is not None:
            raise ValueError(
                "sweep serves steady scenarios; use rollout() for "
                "transient trajectories"
            )
        entry = self._ensure_trained(scenario)
        engine = self._engine_of(entry)
        n_designs = max(1, int(n_designs))
        chunk_size = max(1, int(chunk_size))
        grid = self._grid(entry.setup, grid_shape)
        raws = self.sample_designs(scenario, n_designs, seed=seed)
        engine.warmup(grid)

        start = time.perf_counter()
        peaks = []
        for lo in range(0, n_designs, chunk_size):
            hi = min(n_designs, lo + chunk_size)
            chunk_start = time.perf_counter()
            fields = engine.predict_batch(
                {name: batch[lo:hi] for name, batch in raws.items()},
                grid=grid,
            )
            chunk_peaks = fields.max(axis=1)
            peaks.append(chunk_peaks)
            if on_chunk is not None:
                on_chunk(SweepChunk(
                    start=lo, stop=hi, peaks=chunk_peaks,
                    elapsed=time.perf_counter() - chunk_start,
                ))
        elapsed = time.perf_counter() - start
        peaks = np.concatenate(peaks)

        validation = None
        if validate > 0:
            validation = self._validate_outliers(
                entry, raws, peaks, min(int(validate), n_designs), grid
            )
        return SweepResult(
            scenario_name=scenario.name,
            digest=scenario.content_digest(),
            n_designs=n_designs,
            chunk_size=chunk_size,
            grid_shape=tuple(grid.shape),
            raws=raws,
            peaks=peaks,
            elapsed=elapsed,
            cache=engine.cache_info()._asdict(),
            validation=validation,
        )

    def _validate_outliers(self, entry: _Session, raws, peaks,
                           n_validate: int, grid) -> SweepValidation:
        model = entry.setup.model
        hottest = np.argsort(peaks)[::-1][:n_validate]
        problems = [
            model.concrete_config(
                {name: batch[index] for name, batch in raws.items()}
            ).heat_problem(grid)
            for index in hottest
        ]
        start = time.perf_counter()
        references = self.farm.solve_many(problems, solver=self.solver)
        elapsed = time.perf_counter() - start
        reference_peaks = np.asarray([ref.t_max for ref in references])
        return SweepValidation(
            design_indices=hottest,
            reference_peaks=reference_peaks,
            peak_errors=np.abs(reference_peaks - peaks[hottest]),
            worst_energy_imbalance=max(
                abs(ref.info["energy"].relative_imbalance)
                for ref in references
            ),
            elapsed=elapsed,
            farm_stats=self.farm.cache_info(),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"ThermalService({len(self._sessions)} session(s), "
            f"registry={self.registry.root})"
        )
