"""Compiled serving engine: batched, tape-free DeepOHeat inference.

The amortization story of the paper — train once, evaluate thousands of
candidate designs — is only as good as the cost of one evaluation.  The
legacy ``DeepOHeat.predict`` path rebuilt branch *and* trunk activations
per call even though the trunk only depends on the query points, which
are fixed across an entire design sweep.  :class:`CompiledSurrogate`
removes both redundancies:

* weights are frozen into plain ndarrays (:mod:`repro.engine.frozen`),
  so no autodiff ``Tensor`` objects are constructed at all;
* trunk features (including the Fourier mapping) are computed **once per
  query grid** and cached, keyed on the grid geometry and a digest of
  the trunk weights — a new grid or freshly-trained weights miss the
  cache and recompute, so results are never stale;
* a batch of B designs is evaluated as one stacked branch-MLP pass plus
  a single ``(B, q) @ (q, N)`` matmul.

The hot loop of a 10k-design sweep is therefore B branch forwards and
one matmul, instead of 10k full network evaluations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Union

import hashlib

import numpy as np

from ..geometry import StructuredGrid
from .frozen import FrozenMIONet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports engine)
    from ..core.model import DeepOHeat

DesignBatch = Union[Sequence[Mapping[str, np.ndarray]], Mapping[str, np.ndarray]]

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "entries", "max_entries"])


class TrunkFeatureCache:
    """LRU store of trunk-feature blocks, shareable across engines.

    Keys already bind the point set *and* a digest of the trunk weights,
    so one cache can safely back many :class:`CompiledSurrogate` engines
    (e.g. a :class:`~repro.api.ThermalService` session serving several
    scenarios): engines whose scenarios share a query grid and weights
    hit each other's entries, everything else just coexists under LRU.

    Eviction is bounded two ways: ``max_entries`` (count) and, when
    given, ``max_bytes`` — the resident sum of ``value.nbytes`` across
    entries.  The byte bound is what a serving daemon's
    ``--memory-budget`` flag reaches: feature blocks vary over three
    orders of magnitude between a coarse steady grid and a dense
    space-time rollout block, so counting entries alone cannot cap
    memory.  The most recent entry always survives even if it alone
    exceeds the budget (evicting the block a request needs *right now*
    would just thrash).

    Lookup, insert and eviction run under a lock, so concurrent serving
    threads can share one cache (at worst a race computes a feature
    block twice; it never corrupts the LRU ordering).
    """

    def __init__(self, max_entries: int = 8,
                 max_bytes: Optional[int] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._store: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[np.ndarray]:
        with self._lock:
            cached = self._store.get(key)
            if cached is None:
                self._misses += 1
                return None
            self._hits += 1
            self._store.move_to_end(key)
            return cached

    def _over_budget(self) -> bool:
        if len(self._store) > self.max_entries:
            return True
        return (self.max_bytes is not None and self._bytes > self.max_bytes
                and len(self._store) > 1)

    def put(self, key: tuple, value: np.ndarray) -> None:
        with self._lock:
            old = self._store.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._store[key] = value
            self._bytes += value.nbytes
            while self._over_budget():
                _, evicted = self._store.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             entries=len(self._store),
                             max_entries=self.max_entries)

    def cache_stats(self) -> dict:
        """Counters + occupancy in the shape every repo cache reports."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._store),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0


class CompiledSurrogate:
    """A trained :class:`~repro.core.DeepOHeat`, compiled for serving.

    Parameters
    ----------
    model:
        The trained surrogate to snapshot.  Encoders (:class:`ConfigInput`)
        and the nondimensionalizer are shared; network weights are copied
        (``copy=True``) or aliased (``copy=False``, the live-view mode the
        model facade uses so continued training stays visible).
    copy:
        Snapshot (``True``) vs live-view (``False``) weight semantics;
        see :mod:`repro.engine.frozen`.
    max_cache_entries:
        Trunk-feature cache capacity (LRU eviction).  Each entry holds an
        ``(n_points, q)`` float64 array, so a 21x21x11 grid with q=128
        costs ~5 MB.
    cache:
        An externally-owned :class:`TrunkFeatureCache` to use instead of
        a private one — the sharing hook for multi-scenario sessions
        (cache keys bind the trunk-weight digest, so sharing is safe).
        ``max_cache_entries`` is ignored when given.
    """

    def __init__(
        self,
        model: "DeepOHeat",
        copy: bool = True,
        max_cache_entries: int = 8,
        cache: Optional[TrunkFeatureCache] = None,
    ):
        if max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")
        self.inputs = list(model.inputs)
        self.net = FrozenMIONet(model.net, copy=copy)
        self.nd = model.nd
        self.transient = getattr(model, "transient", None)
        self.copied = bool(copy)
        self._cache = cache if cache is not None else TrunkFeatureCache(
            max_cache_entries
        )
        # Snapshot engines are immutable: hash the trunk weights once.
        self._static_digest: Optional[str] = (
            self.net.trunk.digest() if copy else None
        )

    # ------------------------------------------------------------------
    # Trunk-feature cache
    # ------------------------------------------------------------------
    def _weights_token(self) -> str:
        return self._static_digest or self.net.trunk.digest()

    @staticmethod
    def _grid_key(grid: StructuredGrid) -> tuple:
        cuboid = grid.cuboid
        return (
            "grid",
            tuple(float(v) for v in cuboid.lo),
            tuple(float(v) for v in cuboid.hi),
            tuple(int(n) for n in grid.shape),
        )

    @staticmethod
    def _points_key(points_si: np.ndarray) -> tuple:
        points_si = np.ascontiguousarray(points_si, dtype=np.float64)
        return ("points", points_si.shape, hashlib.sha1(points_si).hexdigest())

    def trunk_features(
        self,
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
        times: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cached trunk features ``(n_points, q)`` for a query point set.

        Exactly one of ``grid`` / ``points_si`` must be given.  The cache
        key combines the point-set identity with a digest of the trunk
        weights, so both a grid change and a weight change (live-view
        engines) invalidate transparently.

        ``times`` (transient engines only) evaluates the trunk over the
        whole space-time block ``points x times`` in one pass: the result
        is ``(len(times) * n_points, q)``, time-major, and lives in the
        cache as a *single* entry keyed on the time stamp vector — so a
        rollout over K steps costs one trunk evaluation amortized across
        every design batch replayed on the same time grid.
        """
        if (grid is None) == (points_si is None):
            raise ValueError("pass exactly one of grid= or points_si=")
        if times is not None and self.transient is None:
            raise ValueError("times= requires a transient model")
        if times is None and self.transient is not None:
            raise ValueError(
                "transient engines need times= (the trunk consumes a time "
                "coordinate); use predict_rollout for time sweeps"
            )
        if grid is not None:
            base_key = self._grid_key(grid)
        else:
            points_si = np.atleast_2d(np.asarray(points_si, dtype=np.float64))
            base_key = self._points_key(points_si)
        if times is not None:
            times = np.atleast_1d(np.asarray(times, dtype=np.float64))
            base_key = base_key + (
                "times",
                times.shape[0],
                hashlib.sha1(np.ascontiguousarray(times)).hexdigest(),
            )
        key = base_key + (self._weights_token(),)

        cached = self._cache.get(key)
        if cached is not None:
            return cached

        points = grid.points() if grid is not None else points_si
        hat = self.nd.to_hat(points)
        if times is not None:
            hat = self._spacetime_hat(hat, times)
        features = self.net.trunk(hat)
        self._cache.put(key, features)
        return features

    def _spacetime_hat(self, hat: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Tile spatial hat points over hat times: ``(K * n, 4)`` time-major."""
        n_points = hat.shape[0]
        n_times = times.shape[0]
        t_hat = self.transient.time_to_hat(times)
        block = np.empty((n_times * n_points, 4))
        block[:, :3] = np.tile(hat, (n_times, 1))
        block[:, 3] = np.repeat(t_hat, n_points)
        return block

    def warmup(
        self, grid: StructuredGrid, times: Optional[np.ndarray] = None
    ) -> "CompiledSurrogate":
        """Precompute trunk features for ``grid`` (e.g. before serving).

        Transient engines warm a specific rollout time grid.
        """
        self.trunk_features(grid=grid, times=times)
        return self

    def cache_info(self) -> CacheInfo:
        return self._cache.info()

    def cache_stats(self) -> dict:
        return self._cache.cache_stats()

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Design encoding
    # ------------------------------------------------------------------
    def encode_designs(self, designs: DesignBatch) -> List[np.ndarray]:
        """Stack a design batch into one encoded array per branch.

        ``designs`` is either a sequence of ``{input_name: raw}`` mappings
        or a single mapping of already-stacked raw batches (leading axis =
        designs).  Returns ``(B, sensor_dim)`` float64 arrays, one per
        branch, in branch order.
        """
        if isinstance(designs, Mapping):
            stacked = {
                name: np.asarray(raw, dtype=np.float64)
                for name, raw in designs.items()
            }
        else:
            designs = list(designs)
            if not designs:
                raise ValueError("empty design batch")
            stacked = {}
            for config_input in self.inputs:
                rows = []
                for design in designs:
                    if config_input.name not in design:
                        raise KeyError(
                            f"design missing input {config_input.name!r}"
                        )
                    rows.append(np.asarray(design[config_input.name],
                                           dtype=np.float64))
                stacked[config_input.name] = np.stack(rows, axis=0)

        encoded = []
        batch_sizes = set()
        for config_input in self.inputs:
            if config_input.name not in stacked:
                raise KeyError(f"design batch missing input {config_input.name!r}")
            rows = config_input.encode(stacked[config_input.name])
            batch_sizes.add(rows.shape[0])
            encoded.append(rows)
        if len(batch_sizes) > 1:
            raise ValueError(
                f"inconsistent batch sizes across inputs: {sorted(batch_sizes)}"
            )
        return encoded

    # ------------------------------------------------------------------
    # Prediction (SI units)
    # ------------------------------------------------------------------
    def predict_batch(
        self,
        designs: DesignBatch,
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
        t: Optional[float] = None,
    ) -> np.ndarray:
        """Temperatures (kelvin) for every design, shape ``(B, n_points)``.

        Transient engines evaluate at one instant ``t`` (seconds);
        steady engines must not pass it.
        """
        if t is not None:
            return self.predict_rollout(
                designs, [float(t)], grid=grid, points_si=points_si,
            )[:, 0, :]
        trunk = self.trunk_features(grid=grid, points_si=points_si)
        features = self.net.branch_features(self.encode_designs(designs))
        return self.nd.temp_to_si(self.net.combine(features, trunk))

    def predict(
        self,
        design: Mapping[str, np.ndarray],
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
        t: Optional[float] = None,
    ) -> np.ndarray:
        """Single-design temperatures (kelvin), shape ``(n_points,)``."""
        return self.predict_batch([design], grid=grid, points_si=points_si, t=t)[0]

    def predict_rollout(
        self,
        designs: DesignBatch,
        times: np.ndarray,
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Temperature rollout over ``times`` (s): ``(B, n_times, n_points)``.

        The serving answer to per-step FDM time stepping: the trunk runs
        once over the space-time block (one cache entry, reused across
        every design batch replayed on the same time grid), branch nets
        run once per design, and the whole rollout is a single
        ``(B, q) @ (q, K * N)`` matmul — cost per additional design is
        one branch forward regardless of horizon length.
        """
        if self.transient is None:
            raise ValueError("predict_rollout requires a transient model")
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        trunk = self.trunk_features(grid=grid, points_si=points_si, times=times)
        features = self.net.branch_features(self.encode_designs(designs))
        flat = self.nd.temp_to_si(self.net.combine(features, trunk))
        n_designs = features.shape[0]
        n_times = times.shape[0]
        return flat.reshape(n_designs, n_times, -1)

    def predict_fused(
        self,
        design_groups: Sequence[DesignBatch],
        grid: Optional[StructuredGrid] = None,
        points_si: Optional[np.ndarray] = None,
        times: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Cross-request batch fusion: many design groups, one merge dgemm.

        The serving daemon's hot path.  ``design_groups`` is a sequence
        of independent design batches (one per queued request) that all
        share this engine's weights and the *same* query point set; they
        are encoded per group, concatenated along the design axis, and
        pushed through one ``branch_features`` pass plus a single
        ``(sum B_i, q) @ (q, N)`` matmul — then split back per group.

        Row-wise determinism of the underlying dgemm makes each group's
        slice bitwise identical to calling :meth:`predict_batch` (or
        :meth:`predict_rollout` when ``times`` is given) on that group
        alone, which is the parity contract ``bench_serving_load.py``
        and the daemon tests pin.

        Returns one array per group: ``(B_i, n_points)`` steady /
        single-instant, ``(B_i, n_times, n_points)`` with ``times``.
        """
        if not design_groups:
            return []
        if times is not None:
            times = np.atleast_1d(np.asarray(times, dtype=np.float64))
            trunk = self.trunk_features(grid=grid, points_si=points_si,
                                        times=times)
        else:
            trunk = self.trunk_features(grid=grid, points_si=points_si)
        encoded_groups = [self.encode_designs(group) for group in design_groups]
        sizes = [arrays[0].shape[0] for arrays in encoded_groups]
        fused = [
            np.concatenate([arrays[branch] for arrays in encoded_groups], axis=0)
            for branch in range(len(self.inputs))
        ]
        features = self.net.branch_features(fused)
        flat = self.nd.temp_to_si(self.net.combine(features, trunk))
        if times is not None:
            flat = flat.reshape(flat.shape[0], times.shape[0], -1)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def predict_grid_batch(
        self, designs: DesignBatch, grid: StructuredGrid
    ) -> np.ndarray:
        """Full nodal fields, shape ``(B, nx, ny, nz)``."""
        flat = self.predict_batch(designs, grid=grid)
        return flat.reshape((flat.shape[0],) + tuple(grid.shape))

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.net.num_parameters

    def __repr__(self) -> str:
        mode = "snapshot" if self.copied else "live-view"
        return (
            f"CompiledSurrogate({mode}, {self.net.n_inputs} branches, "
            f"q={self.net.feature_width}, params={self.num_parameters})"
        )
