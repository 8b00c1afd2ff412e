"""Block-Krylov solver tier: matrix-free action, PCG, subspace recycling.

This module is the iterative half of the solver stack (ROADMAP item 3,
after PAPERS.md "Accelerating IC Thermal Simulation Data Generation via
Block Krylov and Operator Action").  The direct tier
(:class:`~repro.fdm.SolveFarm`'s cached SuperLU factorizations) hits a
memory wall quickly: the measured fill of the 7-point FV operator under
COLAMD is ``nnz(L+U) ~ 2 * n**1.6`` — about 1.1 GB and 50 s of
factorization at only 60k nodes — so a 129^3-class grid (2.1M nodes) is
simply not factorizable in commodity memory.  Three pieces lift that
wall:

* :class:`StencilCore` / :class:`StencilOperator` — the operator *action*
  ``y = M x`` evaluated directly from the per-face conductance arrays of
  the finite-volume stencil, without materializing the CSR matrix (O(4n)
  floats resident vs ``~12 nnz`` CSR bytes plus LU fill);
* :func:`block_pcg` — preconditioned conjugate gradients vectorised over
  a block of right-hand sides (every iteration is one operator action on
  an ``(n, K)`` multivector), with per-column convergence and real
  per-column iteration counts;
* :class:`RecycleBasis` — an A-orthonormal deflation subspace harvested
  from the solutions of earlier blocks against the *same* operator.
  Later blocks of a digest group (and repeat sweeps) start from the
  Galerkin projection onto the basis and keep their search directions
  A-orthogonal to it, which provably removes the already-resolved
  spectral components: iteration counts strictly drop after the first
  block.

Preconditioning is deliberately boring.  The measured spectrum of the
Jacobi-scaled operator (``D^-1/2 M D^-1/2``) is tight enough that plain
scaled CG converges in tens of iterations across the whole mesh ladder,
while SuperLU's threshold-dropping ILU (``spilu``) is *numerically
unusable* on this operator class — at ``drop_tol=1e-6`` the incomplete
factors mis-solve the system by ~100% (the slab operator's small lateral
couplings are individually droppable but collectively load-bearing),
and symmetric Gauss-Seidel (SSOR) took 72 iterations to Jacobi's 26,
each about three times the cost.  Both iterative tiers therefore use
symmetric Jacobi scaling only, which is also the one preconditioner the
matrix-free path can apply.  See ``docs/solvers.md`` for the
measurements behind this.

Tier policy lives here too (:func:`choose_tier`,
:func:`estimate_lu_bytes`): ``"auto"`` keeps the exact direct tier while
its estimated footprint fits the byte budget and degrades to
``"block_cg"`` / ``"recycled"`` beyond it, which is how
:meth:`SolveFarm.solve_many <repro.fdm.SolveFarm.solve_many>` makes
grids beyond the sparse-LU wall solvable without the caller changing
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..geometry import Face, StructuredGrid
from .assembly import (
    FaceSlot,
    HeatProblem,
    RHSPart,
    _axis_weights,
    _bc_kind,
    _transverse_area,
    operator_digest,
)
from .solver import EnergyReport

__all__ = [
    "TIERS",
    "MemoryBudgetExceeded",
    "StencilCore",
    "StencilOperator",
    "RecycleBasis",
    "assemble_stencil",
    "block_pcg",
    "choose_tier",
    "estimate_csr_bytes",
    "estimate_lu_bytes",
    "stencil_energy_report",
]

#: Solver tiers, cheapest-memory last.  ``"lu"`` is the exact direct
#: path (cached SuperLU), ``"block_cg"`` is CSR-backed preconditioned
#: block CG, ``"recycled"`` is the matrix-free deflated tier.
TIERS = ("lu", "block_cg", "recycled")

# Measured fill model of SuperLU (COLAMD) on the 7-point FV operator:
# nnz(L+U) ~ 1.9..2.0 * n**1.6 across the 9^3..49^3-class calibration
# ladder; the coefficient is padded so the estimate errs toward refusing
# a factorization that would *not* have fit.
LU_FILL_COEFF = 2.6
LU_FILL_EXPONENT = 1.6

#: ``"auto"`` assumes this LU footprint cap when the farm has no
#: explicit byte budget (~the measured 1.1 GB fill at 60k nodes plus
#: headroom): beyond it the direct tier would spend minutes factorizing
#: and risk the OOM killer, so auto degrades to the iterative tiers.
DEFAULT_LU_BYTES = 1_500_000_000


class MemoryBudgetExceeded(RuntimeError):
    """An explicitly requested ``solver="lu"`` cannot fit its budget.

    Raised *before* assembling or factorizing anything, from the fill
    estimate alone — the point is to refuse predictably instead of
    thrashing the LRU (or the OOM killer) partway through a batch.
    ``solver="auto"`` never raises this; it degrades to an iterative
    tier instead.
    """


def estimate_csr_bytes(n_nodes: int) -> int:
    """Estimated resident bytes of the assembled 7-point CSR operator.

    Parameters
    ----------
    n_nodes:
        Node count of the grid.

    Returns
    -------
    int
        ``nnz * (8 + 4) + 4 * (n + 1)`` bytes for the ~7-point pattern
        (both the eliminated and raw operators are kept, hence the
        factor 2).
    """
    nnz = 7 * int(n_nodes)
    return 2 * (nnz * 12 + 4 * (int(n_nodes) + 1))


def estimate_lu_bytes(n_nodes: int) -> int:
    """Estimated resident bytes of a SuperLU factorization at ``n_nodes``.

    Uses the measured fill model ``nnz(L+U) ~ LU_FILL_COEFF * n**1.6``
    (calibrated on the chip-A operator ladder, padded ~30% toward
    over-estimation) at 12 bytes per stored nonzero plus the two
    permutation vectors.

    Parameters
    ----------
    n_nodes:
        Node count of the grid.

    Returns
    -------
    int
        Estimated bytes of L+U fill; an *estimate* for policy decisions,
        not an accounting of a factorization that already exists (the
        cache's ``nbytes`` does that from ``lu.nnz``).
    """
    n = int(n_nodes)
    fill = max(7 * n, int(LU_FILL_COEFF * n**LU_FILL_EXPONENT))
    return fill * 12 + 8 * n


def choose_tier(n_nodes: int, max_bytes: Optional[int]) -> str:
    """Resolve ``solver="auto"`` for one operator.

    Parameters
    ----------
    n_nodes:
        Node count of the operator's grid.
    max_bytes:
        The farm's byte budget, or ``None`` for the implicit
        :data:`DEFAULT_LU_BYTES` cap on the direct tier.

    Returns
    -------
    str
        ``"lu"`` while the estimated CSR + fill footprint fits,
        ``"block_cg"`` while three times the CSR estimate fits (the
        operator pair, its Jacobi-scaled copy and the Krylov block
        vectors, with headroom), and
        ``"recycled"`` (matrix-free, O(n) resident) beyond that.
    """
    budget = DEFAULT_LU_BYTES if max_bytes is None else int(max_bytes)
    if estimate_csr_bytes(n_nodes) + estimate_lu_bytes(n_nodes) <= budget:
        return "lu"
    if 3 * estimate_csr_bytes(n_nodes) <= budget:
        return "block_cg"
    return "recycled"


# ----------------------------------------------------------------------
# Matrix-free operator action
# ----------------------------------------------------------------------
@dataclass
class StencilCore:
    """The kernel of a matrix-free operator action.

    Holds exactly what ``y = M x`` needs — the three per-axis face
    conductance arrays, the raw diagonal and the Dirichlet mask (the
    RHS-protocol extras live on :class:`StencilOperator`).

    The action reproduces the assembled operator exactly in exact
    arithmetic; floating-point summation order differs from CSR row
    dots, so agreement with the matrix path is at rounding level, not
    bitwise.
    """

    shape: Tuple[int, int, int]
    cond: Tuple[np.ndarray, np.ndarray, np.ndarray]
    diag_raw: np.ndarray
    dirichlet_mask: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Node count of the underlying grid."""
        return int(self.diag_raw.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the stencil arrays (O(4n) floats)."""
        return (
            sum(c.nbytes for c in self.cond)
            + self.diag_raw.nbytes
            + self.dirichlet_mask.nbytes
        )

    def apply_raw(self, x: np.ndarray) -> np.ndarray:
        """Apply the pre-elimination operator ``matrix_raw`` to ``x``.

        Parameters
        ----------
        x:
            ``(n,)`` vector or ``(n, k)`` multivector.

        Returns
        -------
        numpy.ndarray
            ``matrix_raw @ x`` with the same shape as ``x``.
        """
        squeeze = x.ndim == 1
        block = x[:, None] if squeeze else x
        grid_block = block.reshape(self.shape + (block.shape[1],))
        out = self.diag_raw.reshape(self.shape + (1,)) * grid_block
        for axis in range(3):
            conductance = self.cond[axis][..., None]
            lo = [slice(None)] * 4
            hi = [slice(None)] * 4
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            lo, hi = tuple(lo), tuple(hi)
            out[lo] -= conductance * grid_block[hi]
            out[hi] -= conductance * grid_block[lo]
        out = out.reshape(block.shape)
        return out[:, 0] if squeeze else out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the Dirichlet-eliminated operator ``matrix`` to ``x``.

        Mirrors ``selector @ matrix_raw @ selector + pinned``: Dirichlet
        columns are zeroed on input, Dirichlet rows are replaced by the
        identity on output.

        Parameters
        ----------
        x:
            ``(n,)`` vector or ``(n, k)`` multivector.

        Returns
        -------
        numpy.ndarray
            ``matrix @ x`` with the same shape as ``x``.
        """
        mask = self.dirichlet_mask
        if not mask.any():
            return self.apply_raw(x)
        squeeze = x.ndim == 1
        block = x[:, None] if squeeze else x
        interior = block.copy()
        interior[mask] = 0.0
        out = self.apply_raw(interior)
        out[mask] = block[mask]
        return out[:, 0] if squeeze else out

    def diagonal(self) -> np.ndarray:
        """The diagonal of the eliminated operator (1.0 on pinned rows)."""
        return np.where(self.dirichlet_mask, 1.0, self.diag_raw)

    def scaled(self) -> Tuple[np.ndarray, "StencilCore"]:
        """The symmetric Jacobi scaling of this stencil.

        Returns
        -------
        (scale, core):
            ``scale = diag**-0.5`` and a new :class:`StencilCore` whose
            action equals ``D^-1/2 M D^-1/2`` — per-face conductances
            absorb ``s_i * s_j``, the diagonal becomes exactly 1, so the
            scaled action needs no extra elementwise passes per
            iteration.
        """
        scale = 1.0 / np.sqrt(self.diagonal())
        grid_scale = scale.reshape(self.shape)
        cond = []
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            cond.append(
                self.cond[axis] * grid_scale[tuple(lo)] * grid_scale[tuple(hi)]
            )
        return scale, StencilCore(
            shape=self.shape,
            cond=tuple(cond),
            diag_raw=np.ones_like(self.diag_raw),
            dirichlet_mask=self.dirichlet_mask,
        )


@dataclass
class StencilOperator:
    """Matrix-free stand-in for :class:`~repro.fdm.assembly.OperatorPart`.

    Duck-types everything :func:`~repro.fdm.assembly.assemble_rhs` and
    the farm's solution bookkeeping need (grid geometry, face slots,
    control volumes, the raw operator *action*) while holding no sparse
    matrix at all: resident memory is O(n) floats however large the
    grid.  Built by :func:`assemble_stencil`.
    """

    key: str
    grid: StructuredGrid
    core: StencilCore
    control_volumes: np.ndarray
    volumes: np.ndarray
    convection_conductance: np.ndarray
    points: np.ndarray
    dz_lo: np.ndarray
    dz_hi: np.ndarray
    face_slots: Dict[Face, FaceSlot] = field(default_factory=dict)

    @property
    def dirichlet_mask(self) -> np.ndarray:
        """Flat boolean mask of Dirichlet-pinned nodes."""
        return self.core.dirichlet_mask

    @property
    def n_nodes(self) -> int:
        """Node count of the grid."""
        return int(self.points.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes of the stencil + geometry arrays."""
        total = self.core.nbytes
        for array in (
            self.control_volumes,
            self.volumes,
            self.convection_conductance,
            self.points,
            self.dz_lo,
            self.dz_hi,
        ):
            total += array.nbytes
        return total

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the Dirichlet-eliminated operator to ``x``."""
        return self.core.apply(x)

    def apply_raw(self, x: np.ndarray) -> np.ndarray:
        """Apply the pre-elimination operator to ``x`` (energy audits)."""
        return self.core.apply_raw(x)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the eliminated operator."""
        return self.core.diagonal()


def assemble_stencil(problem: HeatProblem, key: Optional[str] = None
                     ) -> StencilOperator:
    """Build the matrix-free operator of ``problem`` (no CSR, no LU).

    The conduction/convection/Dirichlet structure is identical to
    :func:`~repro.fdm.assembly.assemble_operator`; only the
    *representation* differs — per-axis face conductance arrays instead
    of an assembled sparse matrix.  Shares the operator digest, so a
    stencil and a matrix for the same problem occupy one farm cache
    slot.

    Parameters
    ----------
    problem:
        The conduction problem; must be well-posed (same check as the
        matrix path).
    key:
        Pre-computed :func:`~repro.fdm.assembly.operator_digest`, to
        skip recomputing it.

    Returns
    -------
    StencilOperator
        O(n)-resident operator supporting ``apply`` / ``apply_raw`` and
        the RHS-assembly protocol.
    """
    if not problem.is_well_posed():
        raise ValueError(
            "singular problem: every face is Neumann/adiabatic, so the "
            "temperature level is undetermined; add a convection or "
            "Dirichlet face"
        )
    grid = problem.grid
    shape = grid.shape
    n = grid.n_nodes
    points = grid.points()
    k_nodes = np.asarray(
        problem.conductivity(points), dtype=np.float64
    ).reshape(shape)
    if np.any(k_nodes <= 0):
        raise ValueError("conductivity must be positive everywhere")

    hz = grid.spacing[2]
    iz_index = np.arange(n) % shape[2]
    dz_lo = np.where(iz_index == 0, 0.0, 0.5 * hz)
    dz_hi = np.where(iz_index == shape[2] - 1, 0.0, 0.5 * hz)

    weights = _axis_weights(grid)
    volumes = (
        weights[0][:, None, None]
        * weights[1][None, :, None]
        * weights[2][None, None, :]
    )

    diag = np.zeros(shape)
    cond = []
    for axis in range(3):
        h = grid.spacing[axis]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        k1 = k_nodes[lo]
        k2 = k_nodes[hi]
        k_face = 2.0 * k1 * k2 / (k1 + k2)
        area = _transverse_area(weights, axis, k_face.shape)
        conductance = k_face * area / h
        cond.append(conductance)
        diag[lo] += conductance
        diag[hi] += conductance

    convection_conductance = np.zeros(n)
    dirichlet_mask = np.zeros(n, dtype=bool)
    face_slots: Dict[Face, FaceSlot] = {}
    for face in Face:
        bc = problem.bc_for(face)
        kind = _bc_kind(bc)
        idx = grid.face_indices(face)
        face_points = points[idx]
        a_axis, b_axis = face.tangent_axes
        ia, ib, ic = grid.unravel(idx)
        per_axis = (ia, ib, ic)
        area = weights[a_axis][per_axis[a_axis]] * weights[b_axis][per_axis[b_axis]]
        slot = FaceSlot(kind=kind, indices=idx, area=area, points=face_points)
        if kind == "convection":
            htc = bc.htc_values(face_points)
            if np.any(htc < 0):
                raise ValueError(f"negative HTC on face {face.name}")
            slot.htc_area = htc * area
            np.add.at(convection_conductance, idx, slot.htc_area)
        elif kind == "dirichlet":
            dirichlet_mask[idx] = True
        face_slots[face] = slot

    diag_raw = diag.ravel() + convection_conductance
    core = StencilCore(
        shape=tuple(shape),
        cond=tuple(cond),
        diag_raw=diag_raw,
        dirichlet_mask=dirichlet_mask,
    )
    return StencilOperator(
        key=key if key is not None else operator_digest(problem),
        grid=grid,
        core=core,
        control_volumes=volumes.ravel(),
        volumes=volumes,
        convection_conductance=convection_conductance,
        points=points,
        dz_lo=dz_lo,
        dz_hi=dz_hi,
        face_slots=face_slots,
    )


def stencil_energy_report(operator: StencilOperator, part: RHSPart,
                          temperature: np.ndarray) -> EnergyReport:
    """Energy audit of a matrix-free solution (same contract as
    :func:`~repro.fdm.solver.energy_report`, CSR replaced by the raw
    stencil action).

    Parameters
    ----------
    operator:
        The stencil operator the solution was computed against.
    part:
        Its assembled right-hand side.
    temperature:
        Flat nodal solution in kelvin.

    Returns
    -------
    EnergyReport
        Injected vs extracted power bookkeeping; conservative to the
        solver tolerance.
    """
    convected = float(
        np.sum(
            operator.convection_conductance * temperature
            - part.ambient_weighted
        )
    )
    residual_raw = operator.apply_raw(temperature) - part.rhs_raw
    dirichlet_out = float(-np.sum(residual_raw[operator.dirichlet_mask]))
    return EnergyReport(
        injected=part.injected_power,
        convected_out=convected,
        dirichlet_out=dirichlet_out,
    )


# ----------------------------------------------------------------------
# Subspace recycling
# ----------------------------------------------------------------------
class RecycleBasis:
    """An A-orthonormal deflation basis shared across a digest group.

    Vectors are solutions of earlier blocks against the same (scaled)
    operator, A-orthonormalized as they are admitted (``W^T A W = I``),
    so both uses of the basis are plain GEMMs:

    * warm start — the Galerkin projection ``x0 = W W^T b`` is the
      A-norm-optimal initial guess within ``span(W)``;
    * deflation — projecting every preconditioned residual through
      ``z - W (AW)^T z`` keeps CG's search directions A-orthogonal to
      the basis, so the components the basis already resolves never
      re-enter the iteration.
    """

    def __init__(self, max_vectors: int = 16):
        if max_vectors < 1:
            raise ValueError("a recycle basis needs room for >= 1 vector")
        self.max_vectors = int(max_vectors)
        self.W: Optional[np.ndarray] = None
        self.AW: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        """Number of vectors currently in the basis."""
        return 0 if self.W is None else self.W.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the basis and its operator images."""
        total = 0
        if self.W is not None:
            total += self.W.nbytes
        if self.AW is not None:
            total += self.AW.nbytes
        return total

    def initial_guess(self, block_rhs: np.ndarray) -> Optional[np.ndarray]:
        """Galerkin warm start ``W W^T B`` for a scaled RHS block.

        Returns ``None`` while the basis is empty.
        """
        if self.W is None:
            return None
        return self.W @ (self.W.T @ block_rhs)

    def project(self, block: np.ndarray) -> np.ndarray:
        """Remove the basis' A-span from a direction block.

        ``Z - W (AW)^T Z`` — with ``W^T A W = I`` this makes the result
        exactly A-orthogonal to every basis vector.
        """
        if self.W is None:
            return block
        return block - self.W @ (self.AW.T @ block)

    def augment(self, solutions: np.ndarray,
                apply_a: Callable[[np.ndarray], np.ndarray]) -> int:
        """Admit solved columns into the basis (A-orthonormalizing).

        Each candidate is A-orthogonalized against the current basis
        (two classical Gram-Schmidt passes), normalized in the A-norm
        and appended; candidates whose A-norm collapses below ``1e-8``
        of their original are discarded as linearly dependent.  Stops
        at ``max_vectors`` — the earliest-admitted vectors span the
        dominant smooth response and are the ones worth keeping.

        Parameters
        ----------
        solutions:
            ``(n, k)`` solved (scaled-space) columns of the last block.
        apply_a:
            The scaled operator action.

        Returns
        -------
        int
            How many columns were admitted (0 if already full).
        """
        added = 0
        for column in range(solutions.shape[1]):
            if self.m >= self.max_vectors:
                break
            vector = np.ascontiguousarray(solutions[:, column], dtype=np.float64)
            a_vector = apply_a(vector)
            norm0 = float(np.sqrt(max(vector @ a_vector, 0.0)))
            if norm0 == 0.0:
                continue
            for _ in range(2):  # twice-is-enough re-orthogonalization
                if self.W is not None:
                    coef = self.AW.T @ vector
                    vector = vector - self.W @ coef
                    a_vector = a_vector - self.AW @ coef
            norm = float(np.sqrt(max(vector @ a_vector, 0.0)))
            if norm <= 1e-8 * norm0:
                continue
            vector /= norm
            a_vector /= norm
            if self.W is None:
                self.W = vector[:, None].copy()
                self.AW = a_vector[:, None].copy()
            else:
                self.W = np.column_stack([self.W, vector])
                self.AW = np.column_stack([self.AW, a_vector])
            added += 1
        return added


# ----------------------------------------------------------------------
# Preconditioned (optionally deflated) block CG
# ----------------------------------------------------------------------
def block_pcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    block_rhs: np.ndarray,
    tol: float,
    basis: Optional[RecycleBasis] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Conjugate gradients on a block of Jacobi-scaled right-hand sides.

    Runs K independent CG recurrences in lock-step: every iteration is
    one operator action on the ``(n, K)`` multivector (the block-Krylov
    amortisation — a stencil/SpMV traversal is reused K ways).  Columns
    converge individually against
    ``tol * ||b_j||`` and are frozen once done.  With ``basis``, the
    iteration is *deflated*: the start point is the basis' Galerkin
    projection and every preconditioned residual is A-orthogonalized
    against the basis, so spectral components resolved by earlier blocks
    cost zero iterations here.

    Parameters
    ----------
    apply_a:
        Action of the (Jacobi-scaled) SPD operator on an ``(n, k)``
        block.
    block_rhs:
        ``(n, k)`` scaled right-hand sides.
    tol:
        Per-column relative residual target.  A column still above it
        after ``10 n`` iterations raises.
    basis:
        Optional :class:`RecycleBasis` for deflation.

    Returns
    -------
    (solutions, iterations):
        ``(n, k)`` scaled solutions and per-column iteration counts.
    """
    n, k = block_rhs.shape
    max_iter = 10 * n
    x = None
    if basis is not None:
        x = basis.initial_guess(block_rhs)
    if x is None:
        x = np.zeros((n, k))
        residual = block_rhs.copy()
    else:
        residual = block_rhs - apply_a(x)
    b_norm = np.sqrt(np.einsum("ij,ij->j", block_rhs, block_rhs))
    target = tol * np.where(b_norm > 0, b_norm, 1.0)
    iterations = np.zeros(k, dtype=np.int64)
    active = np.sqrt(np.einsum("ij,ij->j", residual, residual)) > target

    z = residual if basis is None else basis.project(residual)
    direction = z.copy()
    rz = np.einsum("ij,ij->j", residual, z)
    it = 0
    while active.any() and it < max_iter:
        a_direction = apply_a(direction)
        pap = np.einsum("ij,ij->j", direction, a_direction)
        safe = np.where(pap > 0, pap, 1.0)
        alpha = np.where(active, rz / safe, 0.0)
        x += alpha * direction
        residual -= alpha * a_direction
        it += 1
        r_norm = np.sqrt(np.einsum("ij,ij->j", residual, residual))
        newly_done = active & (r_norm <= target)
        iterations[newly_done] = it
        active = active & ~newly_done
        if not active.any():
            break
        z = residual if basis is None else basis.project(residual)
        rz_new = np.einsum("ij,ij->j", residual, z)
        beta = np.where(active, rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        direction = z + beta * direction
        rz = rz_new
    if active.any():
        raise RuntimeError(
            f"block PCG: {int(active.sum())}/{k} right-hand sides failed "
            f"to converge within {max_iter} iterations"
        )
    return x, iterations
