"""Shared-operator solve farm: cached factorizations + block multi-RHS solves.

Every repeated-reference workload in this reproduction — the ten Table-I
maps of experiment A, the floorplan annealer's validation solves, the
data-driven baseline's dataset generation, the speedup study's sweeps —
solves the *same operator* under many right-hand sides: only the power
map (a Neumann influx) changes between designs.  Historically each
:func:`~repro.fdm.solver.solve_steady` call re-assembled and re-factorized
that operator from scratch.

The farm amortises the expensive half:

* operators are keyed by :func:`~repro.fdm.assembly.operator_digest`
  (grid + nodal conductivity + BC structure + HTC values) and cached with
  LRU eviction, together with their sparse LU factorization;
* :meth:`SolveFarm.solve_many` groups a batch of problems by operator
  key, assembles each group's right-hand sides (O(n) apiece), stacks
  them into one ``(n, K)`` block, and runs a *single* SuperLU triangular
  solve for the whole group — the per-design cost collapses to one RHS
  assembly plus one back-substitution;
* direct groups that differ only in HTC share one factorization: the
  siblings of a pivot are solved by CG preconditioned with its LU
  (:func:`_htc_pivots`, :func:`_sibling_cg`).

``solver=`` (constructor default, per-call override) is the one solve
knob.  ``None`` (the default) and ``"lu"`` run the exact direct path
above; ``"lu"`` adds an up-front byte-budget refusal
(:class:`~repro.fdm.krylov.MemoryBudgetExceeded`), while under ``None``
a byte budget only drives eviction.  ``"block_cg"`` is CSR-backed
Jacobi-scaled block CG, and ``"auto"`` picks per operator from the byte
budget (:func:`~repro.fdm.krylov.choose_tier`) — grids whose LU fill
cannot fit degrade to ``block_cg`` instead of failing.

Every solution carries the same :class:`~repro.fdm.solver.EnergyReport`
audit as the per-design path.  A call with one operator digest is
bitwise equal to a per-problem solve through the farm, and a cache-hit
solve bitwise equal to a cold one (both pinned by tests).  HTC siblings
agree with :func:`~repro.fdm.solver.solve_steady` to LU accuracy, not
bitwise: see ``docs/solvers.md``, "Operators that differ only in HTC".
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    HeatProblem,
    OperatorPart,
    assemble_operator,
    assemble_rhs,
    compose_system,
    operator_digest,
    structure_digest,
)
from .krylov import (
    TIERS,
    MemoryBudgetExceeded,
    block_pcg,
    choose_tier,
    estimate_csr_bytes,
    estimate_lu_bytes,
)
from .solver import ThermalSolution, energy_report


@dataclass
class FarmStats:
    """Counters of what the farm actually did (for tests and CLIs).

    Besides the scalar counters, ``iterations_by_digest`` accumulates
    the per-block iteration counts of every iterative solve (the
    ``block_cg`` tier and HTC siblings), keyed by the 16-char digest
    prefix — one entry per solved block, in solve order (see
    :meth:`SolveFarm.cache_stats`).
    """

    operator_hits: int = 0
    operator_misses: int = 0
    evictions: int = 0
    factorizations: int = 0
    rhs_assemblies: int = 0
    block_solves: int = 0
    problems_solved: int = 0
    iterations_by_digest: Dict[str, List[int]] = field(default_factory=dict)

    def record_block_iterations(self, key: str, iterations: np.ndarray) -> None:
        """Append one solved block's iteration count under its digest.

        A lock-step block costs as many operator actions as its slowest
        column, so the recorded number is the per-column maximum.
        """
        self.iterations_by_digest.setdefault(key[:16], []).append(
            int(np.max(iterations)) if np.size(iterations) else 0
        )

    def as_dict(self) -> Dict[str, int]:
        """The scalar counters as a plain dict (JSON-able)."""
        return {
            "operator_hits": self.operator_hits,
            "operator_misses": self.operator_misses,
            "evictions": self.evictions,
            "factorizations": self.factorizations,
            "rhs_assemblies": self.rhs_assemblies,
            "block_solves": self.block_solves,
            "problems_solved": self.problems_solved,
        }


def _sparse_nbytes(matrix) -> int:
    """Resident bytes of a scipy sparse matrix's backing arrays."""
    total = 0
    for attr in ("data", "indices", "indptr", "row", "col"):
        array = getattr(matrix, attr, None)
        if array is not None:
            total += array.nbytes
    return total


@dataclass
class _CachedOperator:
    """One LRU slot: a CSR operator plus what was built on it.

    The SuperLU factorization (direct tier) and the Jacobi-scaled CG
    system (``block_cg`` tier) are built lazily, so a problem solved
    under both tiers occupies one slot.
    """

    operator: OperatorPart
    lu: Optional[spla.SuperLU] = None
    assembly_seconds: float = 0.0
    factor_seconds: float = 0.0
    # Jacobi-scaled system for the block_cg tier, built on first use.
    cg_scale: Optional[np.ndarray] = None
    cg_matrix: Optional[sp.csr_matrix] = None

    @property
    def nbytes(self) -> int:
        """Estimated resident bytes of this slot.

        The SuperLU term uses the factorization's reported fill
        (``lu.nnz`` nonzeros in L+U at 8 value bytes + 4 index bytes
        each, plus the two permutation vectors) — an estimate, but the
        fill dominates by orders of magnitude at any real grid, so the
        byte budget tracks what actually matters.
        """
        total = _sparse_nbytes(self.operator.matrix)
        if self.lu is not None:
            n = self.operator.matrix.shape[0]
            total += int(self.lu.nnz) * 12 + 8 * n
        if self.cg_matrix is not None:
            total += _sparse_nbytes(self.cg_matrix)
        if self.cg_scale is not None:
            total += self.cg_scale.nbytes
        return total


#: HTC-sibling solves (see :func:`_sibling_cg`): kelvin-space stop and cap.
SIBLING_TOL = 1e-14
SIBLING_MAX_ITER = 10

#: Per-column relative residual stop of the ``block_cg`` tier (measured
#: parity vs LU at this tolerance is ~1e-10 K).
TIER_TOL = 1e-12


def _sibling_cg(
    matrix: sp.csr_matrix, lu: spla.SuperLU, block_rhs: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Block CG on ``matrix`` preconditioned by an HTC sibling's exact LU.

    ``matrix`` differs from the factorized operator only on its diagonal,
    so ``x0 = lu.solve(b)`` starts close.  A column freezes once the next
    correction is small in kelvin, ``max|lu.solve(r)| <= SIBLING_TOL *
    max|x|``.  Returns ``(solutions, iterations_per_column)``, with None
    solutions when a column still moves after ``SIBLING_MAX_ITER`` steps.
    """
    x = lu.solve(block_rhs)
    r = block_rhs - matrix @ x
    z = lu.solve(r)
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    iterations = np.zeros(block_rhs.shape[1], dtype=np.int64)
    while True:
        active = np.abs(z).max(axis=0) > SIBLING_TOL * np.abs(x).max(axis=0)
        if not active.any():
            return x, iterations
        if iterations.max() >= SIBLING_MAX_ITER:
            return None, iterations
        ap = matrix @ p
        p_ap = np.einsum("ij,ij->j", p, ap)
        alpha = np.where(active, rz / np.where(p_ap > 0, p_ap, 1.0), 0.0)
        x += alpha * p
        r -= alpha * ap
        z = lu.solve(r)
        rz_new = np.einsum("ij,ij->j", r, z)
        p = z + rz_new / np.where(rz > 0, rz, 1.0) * p
        rz = rz_new
        iterations += active


def _check_solver(solver: Optional[str]) -> None:
    if solver is not None and solver != "auto" and solver not in TIERS:
        raise ValueError(
            f"unknown solver {solver!r}; use None, 'auto', 'lu' or "
            "'block_cg'"
        )


def _htc_pivots(
    firsts: Dict[str, HeatProblem], entries: Dict[str, _CachedOperator]
) -> Dict[str, str]:
    """Map each LU-less direct group to the HTC sibling whose LU it borrows.

    ``firsts`` holds one problem per direct group.  Groups with equal
    :func:`~repro.fdm.assembly.structure_digest` differ only in HTC; their
    pivot is one holding a resident LU if any, then the one with the least
    convection conductance (siblings mostly add to its diagonal, which
    keeps the kelvin stop conservative), independent of input order.
    """
    if len(firsts) < 2:
        return {}
    families: Dict[str, List[str]] = {}
    for key, problem in firsts.items():
        families.setdefault(structure_digest(problem), []).append(key)
    pivots: Dict[str, str] = {}
    for members in families.values():
        pivot = min(members, key=lambda k: (
            entries[k].lu is None, entries[k].operator.convection_conductance.sum()
        ))
        for key in members:
            if key != pivot and entries[key].lu is None:
                pivots[key] = pivot
    return pivots


class SolveFarm:
    """Shared-operator steady solver with cached factorizations.

    Parameters
    ----------
    max_operators:
        LRU capacity: how many distinct operators (matrix +
        factorization) to keep alive.  Each cached direct-solve operator
        holds a SuperLU factorization, so memory scales with
        ``max_operators * fill(n)``.
    max_bytes:
        Optional byte budget over the cached slots (operator matrix +
        SuperLU fill + CG system, per :attr:`_CachedOperator.nbytes`).
        Entry counts cannot cap memory when grids differ by orders of
        magnitude, so a serving daemon's ``--memory-budget`` reaches the
        farm through this bound; the most recently used slot always
        survives (evicting the operator a solve needs right now would
        thrash).
    solver:
        Default solver for :meth:`solve_many` (per-call overridable):
        ``None`` (exact LU, the budget only evicts), ``"lu"`` (exact LU,
        refused up front over the budget), ``"block_cg"`` or ``"auto"``
        (see the module docstring and ``docs/solvers.md``).
    """

    def __init__(
        self,
        max_operators: int = 8,
        max_bytes: Optional[int] = None,
        solver: Optional[str] = None,
    ):
        if max_operators < 1:
            raise ValueError("need room for at least one cached operator")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        _check_solver(solver)
        self.max_operators = int(max_operators)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.solver = solver
        self._cache: "OrderedDict[str, _CachedOperator]" = OrderedDict()
        self.stats = FarmStats()
        # The LRU is shared by serving threads (engine compile, transient
        # stepping), so lookup/insert/evict run under one reentrant lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Operator cache
    # ------------------------------------------------------------------
    def _entry_for_key(self, key: str, problem: HeatProblem) -> _CachedOperator:
        """The LRU slot for ``key``, assembling its operator on a miss."""
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                self.stats.operator_misses += 1
                start = time.perf_counter()
                operator = assemble_operator(problem, key=key)
                entry = _CachedOperator(
                    operator=operator,
                    assembly_seconds=time.perf_counter() - start,
                )
                # Insert only after a successful build, so an ill-posed
                # problem never leaves an empty slot behind.
                self._cache[key] = entry
            else:
                self._cache.move_to_end(key)
                self.stats.operator_hits += 1
            self._enforce_budget()
            return entry

    def _cache_nbytes(self) -> int:
        return sum(entry.nbytes for entry in self._cache.values())

    def _enforce_budget(self) -> None:
        """Evict oldest slots past the count or byte bound (lock held or
        reentrant — self._lock is an RLock)."""
        with self._lock:
            while len(self._cache) > self.max_operators or (
                self.max_bytes is not None
                and len(self._cache) > 1
                and self._cache_nbytes() > self.max_bytes
            ):
                self._cache.popitem(last=False)
                self.stats.evictions += 1

    def operator_entry(self, problem: HeatProblem) -> _CachedOperator:
        """The cached slot for ``problem``'s operator (assembling on miss)."""
        return self._entry_for_key(operator_digest(problem), problem)

    def operator_for(self, problem: HeatProblem) -> OperatorPart:
        """The (cached) operator half of ``problem``."""
        return self.operator_entry(problem).operator

    def cached_keys(self) -> List[str]:
        """Operator digests currently held, oldest first."""
        with self._lock:
            return list(self._cache.keys())

    def clear(self) -> None:
        """Drop every cached operator artifact (stats survive)."""
        with self._lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Assembly against the cache
    # ------------------------------------------------------------------
    def assembled(self, problem: HeatProblem) -> AssembledSystem:
        """A full :class:`AssembledSystem`, operator taken from the cache."""
        entry = self.operator_entry(problem)
        self.stats.rhs_assemblies += 1
        return compose_system(entry.operator, assemble_rhs(problem, entry.operator))

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _factorization(self, entry: _CachedOperator) -> spla.SuperLU:
        if entry.lu is None:
            start = time.perf_counter()
            entry.lu = spla.splu(entry.operator.matrix.tocsc())
            entry.factor_seconds = time.perf_counter() - start
            self.stats.factorizations += 1
            # The fill just materialized is the dominant byte cost of the
            # slot — re-check the budget now, not at the next insert.
            self._enforce_budget()
        return entry.lu

    def _cg_system(self, entry: _CachedOperator) -> Tuple[np.ndarray, sp.csr_matrix]:
        if entry.cg_matrix is None:
            # Symmetric Jacobi scaling: the scaled operator has an O(1)
            # spectrum, so plain CG on it converges quickly.
            matrix = entry.operator.matrix
            scale = 1.0 / np.sqrt(matrix.diagonal())
            scaling = sp.diags(scale)
            entry.cg_scale = scale
            entry.cg_matrix = (scaling @ matrix @ scaling).tocsr()
            self._enforce_budget()
        return entry.cg_scale, entry.cg_matrix

    def _resolve_mode(self, solver: Optional[str], n_nodes: int) -> str:
        """Solve mode for one operator group.

        ``solver=None`` is the direct path with no budget check.
        ``"lu"`` is the same direct path but
        *refuses up front* (:class:`~repro.fdm.krylov.MemoryBudgetExceeded`)
        when its estimated CSR + fill footprint cannot fit the farm's
        byte budget; ``"auto"`` degrades to ``"block_cg"`` instead of
        refusing (:func:`~repro.fdm.krylov.choose_tier`).
        """
        if solver is None:
            return "direct"
        if solver == "auto":
            tier = choose_tier(n_nodes, self.max_bytes)
            return "direct" if tier == "lu" else tier
        if solver == "lu":
            if self.max_bytes is not None:
                estimate = estimate_csr_bytes(n_nodes) + estimate_lu_bytes(n_nodes)
                if estimate > self.max_bytes:
                    raise MemoryBudgetExceeded(
                        f"solver='lu' refused: estimated CSR+LU footprint "
                        f"{estimate} B for n={n_nodes} exceeds the farm byte "
                        f"budget {self.max_bytes} B; use solver='auto' (or "
                        "'block_cg') to degrade instead"
                    )
            return "direct"
        return solver

    def solve(
        self, problem: HeatProblem, solver: Optional[str] = None
    ) -> ThermalSolution:
        """Solve one problem through the cache (see :meth:`solve_many`)."""
        return self.solve_many([problem], solver=solver)[0]

    def solve_many(
        self, problems: Sequence[HeatProblem], solver: Optional[str] = None
    ) -> List[ThermalSolution]:
        """Solve a batch of problems, amortising shared operators.

        Problems are grouped by operator digest; each group assembles its
        operator (or takes it from the cache), builds all K right-hand
        sides, and solves them as a single ``(n, K)`` block — one SuperLU
        back-substitution on the direct path, one vectorised block-CG run
        on ``block_cg``.  Solutions come back in input order, each
        with its own energy audit and diagnostics.  ``info["factor_time"]``
        is what this call paid to factorize the group (0 on a cache hit or
        for an HTC sibling, whose ``info["preconditioned_by"]`` names the
        pivot's digest).

        ``solver`` (default: the farm's constructor knob) is ``None`` or
        ``"lu"`` (exact direct; ``"lu"`` also refuses up front over the
        byte budget), ``"block_cg"`` (CSR-backed Jacobi-scaled block CG)
        or ``"auto"`` (per-operator choice from the byte budget).  Tiers
        are chosen per digest group, so one batch may mix them.  The
        iterative tier stops at :data:`TIER_TOL` relative residual.
        """
        solver = self.solver if solver is None else solver
        _check_solver(solver)
        solutions: List[Optional[ThermalSolution]] = [None] * len(problems)
        # Group by operator digest, preserving first-seen order.  The
        # solve mode is resolved per group: an "auto" batch may run small
        # grids direct and large grids on block_cg side by side.
        groups: "OrderedDict[str, List[int]]" = OrderedDict()
        entries: Dict[str, _CachedOperator] = {}
        cached_flags: Dict[str, bool] = {}
        modes: Dict[str, str] = {}
        for index, problem in enumerate(problems):
            key = operator_digest(problem)
            if key not in groups:
                groups[key] = []
                mode = self._resolve_mode(solver, problem.grid.n_nodes)
                modes[key] = mode
                with self._lock:
                    cached_flags[key] = key in self._cache
                entries[key] = self._entry_for_key(key, problem)
            else:
                self.stats.operator_hits += 1
            groups[key].append(index)

        prepared: List[Tuple] = []
        for key, indices in groups.items():
            entry = entries[key]
            mode = modes[key]
            start = time.perf_counter()
            rhs_parts = [
                assemble_rhs(problems[i], entry.operator) for i in indices
            ]
            rhs_seconds = time.perf_counter() - start
            self.stats.rhs_assemblies += len(indices)
            block = np.column_stack([part.rhs for part in rhs_parts])
            prepared.append((key, indices, entry, rhs_parts, rhs_seconds, block, mode))

        had_lu = {key: entries[key].lu is not None for key in groups}
        pivots = _htc_pivots(
            {k: problems[groups[k][0]] for k in groups if modes[k] == "direct"},
            entries,
        )

        for key, indices, entry, rhs_parts, rhs_seconds, block, mode in prepared:
            k_block = len(indices)
            pivot = pivots.get(key)
            start = time.perf_counter()
            if mode == "direct":
                block_solution = None
                if pivot is not None:
                    block_solution, iterations = _sibling_cg(
                        entry.operator.matrix,
                        self._factorization(entries[pivot]),
                        block,
                    )
                    with self._lock:
                        self.stats.record_block_iterations(key, iterations)
                if block_solution is None:  # no pivot, or the cap fired
                    pivot = None
                    lu = self._factorization(entry)
                    block_solution = lu.solve(block)
                    iterations = np.zeros(k_block, dtype=np.int64)
            elif mode == "block_cg":
                scale, scaled_matrix = self._cg_system(entry)
                scaled_solution, iterations = block_pcg(
                    lambda v, m=scaled_matrix: m @ v,
                    scale[:, None] * block,
                    tol=TIER_TOL,
                )
                block_solution = scale[:, None] * scaled_solution
                with self._lock:
                    self.stats.record_block_iterations(key, iterations)
            solve_seconds = time.perf_counter() - start
            self._emit_group(
                solutions,
                mode,
                key,
                indices,
                entry,
                cached_flags[key],
                rhs_parts,
                rhs_seconds,
                block_solution,
                iterations,
                solve_seconds,
                0.0 if had_lu[key] else entry.factor_seconds,
                solver_requested=solver,
                preconditioned_by=pivot,
            )
        return solutions  # type: ignore[return-value]

    def _emit_group(
        self,
        solutions: List[Optional[ThermalSolution]],
        mode: str,
        key: str,
        indices: Sequence[int],
        entry: _CachedOperator,
        was_cached: bool,
        rhs_parts: Sequence,
        rhs_seconds: float,
        block_solution: np.ndarray,
        iterations: np.ndarray,
        solve_seconds: float,
        factor_seconds: float,
        solver_requested: Optional[str] = None,
        preconditioned_by: Optional[str] = None,
    ) -> None:
        """Per-column postprocessing of one solved digest group."""
        operator = entry.operator
        k_block = len(indices)
        self.stats.block_solves += 1
        self.stats.problems_solved += k_block
        # Costs actually paid this call, amortised over the block; a
        # cache-hit operator charges nothing for its assembly.
        operator_seconds = 0.0 if was_cached else entry.assembly_seconds
        nnz = int(operator.matrix.nnz)
        for column, (index, part) in enumerate(zip(indices, rhs_parts)):
            temperature = np.ascontiguousarray(block_solution[:, column])
            system = compose_system(operator, part)
            report = energy_report(system, temperature)
            residual = operator.matrix @ temperature - part.rhs
            info = {
                "method": f"farm-{mode}",
                "operator_key": key[:16],
                "operator_cached": was_cached,
                "block_size": k_block,
                "assembly_time": (operator_seconds + rhs_seconds) / k_block,
                "solve_time": solve_seconds / k_block,
                "total_time": (
                    operator_seconds + rhs_seconds + solve_seconds
                )
                / k_block,
                "factor_time": factor_seconds,
                "iterations": int(iterations[column]),
                "nnz": nnz,
                "n_unknowns": int(part.rhs.size),
                "linear_residual": float(np.linalg.norm(residual)),
                "energy": report,
            }
            if preconditioned_by is not None:
                info["preconditioned_by"] = preconditioned_by[:16]
            if solver_requested is not None:
                info["solver"] = "lu" if mode == "direct" else mode
                if mode != "direct":
                    info["preconditioner"] = "jacobi"
            solutions[index] = ThermalSolution(
                grid=operator.grid, temperature=temperature, info=info
            )

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Snapshot of the counters plus current cache occupancy."""
        info = self.stats.as_dict()
        with self._lock:
            info["cached_operators"] = len(self._cache)
        info["max_operators"] = self.max_operators
        return info

    def cache_stats(self) -> Dict[str, object]:
        """Counters + occupancy in the shape every repo cache reports.

        Same schema as :meth:`repro.engine.TrunkFeatureCache.cache_stats`
        — the serving daemon's ``/stats`` endpoint and byte-budget logic
        consume both without caring which cache they came from — plus an
        ``"iterations"`` map making the iterative solves observable: per
        16-char digest prefix, the number of solved blocks, the summed
        iteration count and the per-block history in solve order.
        """
        with self._lock:
            return {
                "hits": self.stats.operator_hits,
                "misses": self.stats.operator_misses,
                "evictions": self.stats.evictions,
                "entries": len(self._cache),
                "bytes": self._cache_nbytes(),
                "max_entries": self.max_operators,
                "max_bytes": self.max_bytes,
                "iterations": {
                    digest: {
                        "blocks": len(history),
                        "total": int(sum(history)),
                        "per_block": list(history),
                    }
                    for digest, history in self.stats.iterations_by_digest.items()
                },
            }


# ----------------------------------------------------------------------
# Shared default farm: process-wide operator reuse across call sites.
# ----------------------------------------------------------------------
_default_farm: Optional[SolveFarm] = None


def get_default_farm() -> SolveFarm:
    """The process-wide farm the library call sites share."""
    global _default_farm
    if _default_farm is None:
        _default_farm = SolveFarm()
    return _default_farm


def reset_default_farm() -> None:
    """Drop the shared farm (tests; or to release factorization memory)."""
    global _default_farm
    _default_farm = None


def solve_many(
    problems: Sequence[HeatProblem],
    farm: Optional[SolveFarm] = None,
    solver: Optional[str] = None,
) -> List[ThermalSolution]:
    """Batch-solve through ``farm`` (default: the shared process farm)."""
    farm = farm if farm is not None else get_default_farm()
    return farm.solve_many(problems, solver=solver)
