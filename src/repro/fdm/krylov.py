"""Block-Krylov solver tier: preconditioned block CG and tier policy.

This module is the iterative half of the solver stack (ROADMAP item 3,
after PAPERS.md "Accelerating IC Thermal Simulation Data Generation via
Block Krylov and Operator Action").  The direct tier
(:class:`~repro.fdm.SolveFarm`'s cached SuperLU factorizations) hits a
memory wall quickly: the measured fill of the 7-point FV operator under
COLAMD is ``nnz(L+U) ~ 2 * n**1.6`` — about 1.1 GB and 50 s of
factorization at only 60k nodes — so a 129^3-class grid (2.1M nodes) is
simply not factorizable in commodity memory.  :func:`block_pcg` lifts
that wall: preconditioned conjugate gradients vectorised over a block
of right-hand sides (every iteration is one CSR operator action on an
``(n, K)`` multivector), with per-column convergence and real
per-column iteration counts.

Preconditioning is deliberately boring.  The measured spectrum of the
Jacobi-scaled operator (``D^-1/2 M D^-1/2``) is tight enough that plain
scaled CG converges in tens of iterations across the whole mesh ladder,
while SuperLU's threshold-dropping ILU (``spilu``) is *numerically
unusable* on this operator class — at ``drop_tol=1e-6`` the incomplete
factors mis-solve the system by ~100% (the slab operator's small lateral
couplings are individually droppable but collectively load-bearing),
and symmetric Gauss-Seidel (SSOR) took 72 iterations to Jacobi's 26,
each about three times the cost.  The iterative tier therefore uses
symmetric Jacobi scaling only.  See ``docs/solvers.md`` for the
measurements behind this.

Tier policy lives here too (:func:`choose_tier`,
:func:`estimate_lu_bytes`): ``"auto"`` keeps the exact direct tier while
its estimated footprint fits the byte budget and degrades to
``"block_cg"`` beyond it, which is how
:meth:`SolveFarm.solve_many <repro.fdm.SolveFarm.solve_many>` makes
grids beyond the sparse-LU wall solvable without the caller changing
code.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "TIERS",
    "MemoryBudgetExceeded",
    "block_pcg",
    "choose_tier",
    "estimate_csr_bytes",
    "estimate_lu_bytes",
]

#: Solver tiers.  ``"lu"`` is the exact direct path (cached SuperLU),
#: ``"block_cg"`` is CSR-backed Jacobi-scaled block CG.
TIERS = ("lu", "block_cg")

# Measured fill model of SuperLU (COLAMD) on the 7-point FV operator:
# nnz(L+U) ~ 1.9..2.0 * n**1.6 across the 9^3..49^3-class calibration
# ladder; the coefficient is padded so the estimate errs toward refusing
# a factorization that would *not* have fit.
LU_FILL_COEFF = 2.6
LU_FILL_EXPONENT = 1.6

#: ``"auto"`` assumes this LU footprint cap when the farm has no
#: explicit byte budget (~the measured 1.1 GB fill at 60k nodes plus
#: headroom): beyond it the direct tier would spend minutes factorizing
#: and risk the OOM killer, so auto degrades to the iterative tier.
DEFAULT_LU_BYTES = 1_500_000_000


class MemoryBudgetExceeded(RuntimeError):
    """An explicitly requested ``solver="lu"`` cannot fit its budget.

    Raised *before* assembling or factorizing anything, from the fill
    estimate alone — the point is to refuse predictably instead of
    thrashing the LRU (or the OOM killer) partway through a batch.
    ``solver="auto"`` never raises this; it degrades to ``"block_cg"``
    instead.
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
        ``"lu"`` while the estimated CSR + fill footprint fits, else
        ``"block_cg"``.  The byte budget caps the direct tier only.
    """
    budget = DEFAULT_LU_BYTES if max_bytes is None else int(max_bytes)
    if estimate_csr_bytes(n_nodes) + estimate_lu_bytes(n_nodes) <= budget:
        return "lu"
    return "block_cg"


# ----------------------------------------------------------------------
# Preconditioned block CG
# ----------------------------------------------------------------------
def block_pcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    block_rhs: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Conjugate gradients on a block of Jacobi-scaled right-hand sides.

    Runs K independent CG recurrences in lock-step: every iteration is
    one operator action on the ``(n, K)`` multivector (the block-Krylov
    amortisation — an SpMV traversal is reused K ways).  Columns
    converge individually against ``tol * ||b_j||`` and are frozen once
    done.

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

    Returns
    -------
    (solutions, iterations):
        ``(n, k)`` scaled solutions and per-column iteration counts.
    """
    n, k = block_rhs.shape
    max_iter = 10 * n
    x = np.zeros((n, k))
    residual = block_rhs.copy()
    b_norm = np.sqrt(np.einsum("ij,ij->j", block_rhs, block_rhs))
    target = tol * np.where(b_norm > 0, b_norm, 1.0)
    iterations = np.zeros(k, dtype=np.int64)
    active = np.sqrt(np.einsum("ij,ij->j", residual, residual)) > target

    direction = residual.copy()
    rz = np.einsum("ij,ij->j", residual, residual)
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
        rz_new = np.einsum("ij,ij->j", residual, residual)
        beta = np.where(active, rz_new / np.where(rz != 0, rz, 1.0), 0.0)
        direction = residual + beta * direction
        rz = rz_new
    if active.any():
        raise RuntimeError(
            f"block PCG: {int(active.sum())}/{k} right-hand sides failed "
            f"to converge within {max_iter} iterations"
        )
    return x, iterations
