"""Steady-state solvers and solution objects for the FDM substrate."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np
import scipy.sparse.linalg as spla

from ..geometry import StructuredGrid
from .assembly import AssembledSystem, HeatProblem, assemble


@dataclass
class EnergyReport:
    """Discrete power bookkeeping of a solution (all in watts).

    For a conservative scheme ``imbalance`` is at machine precision; the
    test-suite treats anything above 1e-8 of the injected power as a bug.
    """

    injected: float
    convected_out: float
    dirichlet_out: float

    @property
    def extracted(self) -> float:
        """Watts leaving the chip (convective + Dirichlet faces)."""
        return self.convected_out + self.dirichlet_out

    @property
    def imbalance(self) -> float:
        """Injected minus extracted watts (0 for a conservative scheme)."""
        return self.injected - self.extracted

    @property
    def relative_imbalance(self) -> float:
        """``imbalance`` over the larger of the two flows."""
        scale = max(abs(self.injected), abs(self.extracted), 1e-300)
        return self.imbalance / scale


@dataclass
class ThermalSolution:
    """A solved temperature field plus solver diagnostics."""

    grid: StructuredGrid
    temperature: np.ndarray  # flat nodal kelvin
    info: Dict = field(default_factory=dict)
    # Lazily-built trilinear interpolator (see sample()); building one is
    # O(n) so repeated point queries must not pay it again.
    _interpolator: object = field(default=None, repr=False, compare=False)

    def to_array(self) -> np.ndarray:
        """The field reshaped to the grid's ``(nx, ny, nz)`` array."""
        return self.grid.to_array(self.temperature)

    @property
    def t_max(self) -> float:
        """Hottest nodal temperature, kelvin."""
        return float(np.max(self.temperature))

    @property
    def t_min(self) -> float:
        """Coldest nodal temperature, kelvin."""
        return float(np.min(self.temperature))

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of the field at arbitrary SI points.

        The interpolator is built once and cached, so repeated sampling
        of one solution costs O(queries), not O(grid rebuild).  The
        temperature field is treated as frozen after the first call.
        """
        if self._interpolator is None:
            from scipy.interpolate import RegularGridInterpolator

            self._interpolator = RegularGridInterpolator(
                self.grid.axes, self.to_array(), method="linear"
            )
        points = np.atleast_2d(np.asarray(points, dtype=np.float64)).copy()
        for axis in range(3):
            points[:, axis] = np.clip(
                points[:, axis],
                self.grid.cuboid.lo[axis],
                self.grid.cuboid.hi[axis],
            )
        return self._interpolator(points)


def energy_report(system: AssembledSystem, temperature: np.ndarray) -> EnergyReport:
    """Audit power in vs power out from the raw (pre-Dirichlet) operator."""
    convected = float(
        np.sum(system.convection_conductance * temperature - system.ambient_weighted)
    )
    residual_raw = system.matrix_raw @ temperature - system.rhs_raw
    dirichlet_out = float(-np.sum(residual_raw[system.dirichlet_mask]))
    return EnergyReport(
        injected=system.injected_power,
        convected_out=convected,
        dirichlet_out=dirichlet_out,
    )


def solve_steady(problem: HeatProblem) -> ThermalSolution:
    """Solve a steady conduction problem by sparse LU (``spsolve``).

    The accuracy oracle: every farm path and every solver tier is checked
    against it.

    Parameters
    ----------
    problem:
        The assembled-on-demand :class:`HeatProblem`.
    """
    start = time.perf_counter()
    system = assemble(problem)
    assembly_time = time.perf_counter() - start

    start = time.perf_counter()
    temperature = spla.spsolve(system.matrix.tocsc(), system.rhs)
    solve_time = time.perf_counter() - start

    report = energy_report(system, temperature)
    residual = system.matrix @ temperature - system.rhs
    info = {
        "method": "direct",
        "assembly_time": assembly_time,
        "solve_time": solve_time,
        "total_time": assembly_time + solve_time,
        "iterations": 0,
        "nnz": int(system.matrix.nnz),
        "n_unknowns": int(system.rhs.size),
        "linear_residual": float(np.linalg.norm(residual)),
        "energy": report,
    }
    return ThermalSolution(grid=problem.grid, temperature=temperature, info=info)
