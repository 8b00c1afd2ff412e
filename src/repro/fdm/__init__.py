"""Finite-volume thermal solver — the Celsius 3D substitute."""

from .assembly import (
    AssembledSystem,
    FaceSlot,
    HeatProblem,
    OperatorPart,
    RHSPart,
    assemble,
    assemble_operator,
    assemble_rhs,
    compose_system,
    operator_digest,
    structure_digest,
)
from .farm import (
    FarmStats,
    SolveFarm,
    get_default_farm,
    reset_default_farm,
    solve_many,
)
from .krylov import (
    MemoryBudgetExceeded,
    block_pcg,
    choose_tier,
    estimate_lu_bytes,
)
from .solver import (
    EnergyReport,
    ThermalSolution,
    energy_report,
    solve_steady,
)
from .transient import TransientResult, TransientSolver
from .verification import (
    ManufacturedCase,
    convergence_order,
    dirichlet_slab_profile,
    layered_series_resistance_t_top,
    manufactured_case,
    slab_flux_convection_profile,
    slab_problem,
)

__all__ = [
    "AssembledSystem",
    "EnergyReport",
    "FaceSlot",
    "FarmStats",
    "HeatProblem",
    "ManufacturedCase",
    "MemoryBudgetExceeded",
    "OperatorPart",
    "RHSPart",
    "SolveFarm",
    "ThermalSolution",
    "TransientResult",
    "TransientSolver",
    "assemble",
    "assemble_operator",
    "assemble_rhs",
    "block_pcg",
    "choose_tier",
    "compose_system",
    "convergence_order",
    "dirichlet_slab_profile",
    "energy_report",
    "estimate_lu_bytes",
    "get_default_farm",
    "layered_series_resistance_t_top",
    "manufactured_case",
    "operator_digest",
    "reset_default_farm",
    "slab_flux_convection_profile",
    "slab_problem",
    "solve_many",
    "solve_steady",
    "structure_digest",
]
