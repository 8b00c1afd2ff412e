"""Experiment B driver (paper Sec. V-B): dual HTC inputs.

Regenerates Fig. 5 and the in-text error numbers: temperature fields under
HTC tuples (1000, 333.33) and (500, 500), MAPE/PAPE per case, and the
max/min colour-bar comparison (paper: agreement within 0.1 K).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import FieldErrorReport, compare_fields_text, field_report
from ..analysis.viz import field_slice
from ..core import ExperimentSetup
from ..fdm import SolveFarm, ThermalSolution, get_default_farm

PAPER_HTC_CASES: Tuple[Tuple[float, float], ...] = ((1000.0, 333.33), (500.0, 500.0))
"""The two test tuples shown in the paper's Fig. 5 rows."""

PAPER_ERRORS: Dict[Tuple[float, float], Tuple[float, float]] = {
    (1000.0, 333.33): (0.032, 0.043),
    (500.0, 500.0): (0.011, 0.025),
}
"""Paper-reported (MAPE %, PAPE %) per HTC case."""


@dataclass
class HTCCase:
    """One row of Fig. 5."""

    htc_top: float
    htc_bottom: float
    report: FieldErrorReport
    predicted: np.ndarray  # (nx, ny, nz)
    reference: np.ndarray


@dataclass
class ExperimentBResult:
    cases: List[HTCCase]

    def summary_rows(self) -> List[List]:
        rows = []
        for case in self.cases:
            paper = PAPER_ERRORS.get((case.htc_top, case.htc_bottom))
            rows.append(
                [
                    f"({case.htc_top:g}, {case.htc_bottom:g})",
                    case.report.mape,
                    case.report.pape,
                    f"{paper[0]:.3f}/{paper[1]:.3f}" if paper else "-",
                    case.report.peak_temp_error,
                ]
            )
        return rows

    def figure5_panel(self, index: int) -> str:
        case = self.cases[index]
        return compare_fields_text(
            field_slice(case.predicted, axis=2, index=0),
            field_slice(case.reference, axis=2, index=0),
            title=f"h=({case.htc_top:g},{case.htc_bottom:g}) bottom surface (K)",
        )


def evaluate_htc_case(
    setup: ExperimentSetup,
    htc_top: float,
    htc_bottom: float,
    farm: Optional[SolveFarm] = None,
    reference_solution: Optional[ThermalSolution] = None,
) -> HTCCase:
    design = {"htc_top": htc_top, "htc_bottom": htc_bottom}
    predicted = setup.model.predict_grid(design, setup.eval_grid)
    if reference_solution is None:
        farm = farm if farm is not None else get_default_farm()
        reference_solution = farm.solve(
            setup.model.concrete_config(design).heat_problem(setup.eval_grid)
        )
    reference = reference_solution.to_array()
    return HTCCase(
        htc_top=htc_top,
        htc_bottom=htc_bottom,
        report=field_report(predicted, reference),
        predicted=predicted,
        reference=reference,
    )


def run_experiment_b(
    setup: ExperimentSetup,
    cases: Sequence[Tuple[float, float]] = PAPER_HTC_CASES,
    farm: Optional[SolveFarm] = None,
) -> ExperimentBResult:
    """Evaluate the HTC test cases (Fig. 5).

    HTC changes alter only the operator's convective diagonal, so all
    cases share one structure digest: the farm factorizes one pivot case
    and solves the others by LU-preconditioned CG to LU accuracy (see
    ``docs/solvers.md``).  Re-running the same cases reuses the resident
    factorization.
    """
    farm = farm if farm is not None else get_default_farm()
    problems = [
        setup.model.concrete_config(
            {"htc_top": top, "htc_bottom": bottom}
        ).heat_problem(setup.eval_grid)
        for top, bottom in cases
    ]
    references = farm.solve_many(problems)
    return ExperimentBResult(
        cases=[
            evaluate_htc_case(setup, top, bottom, reference_solution=reference)
            for (top, bottom), reference in zip(cases, references)
        ]
    )


def htc_design_sweep(
    setup: ExperimentSetup, n_per_axis: int = 5
) -> Dict[str, np.ndarray]:
    """Peak temperature over an HTC x HTC grid (surrogate-only sweep).

    This is the design-space exploration the surrogate makes cheap; the
    returned peak map should decrease monotonically with either HTC.
    """
    low = setup.model.inputs[0].low
    high = setup.model.inputs[0].high
    values = np.linspace(low, high, n_per_axis)
    points = setup.eval_grid.points()
    designs = [
        {"htc_top": top, "htc_bottom": bottom}
        for top in values
        for bottom in values
    ]
    fields = setup.model.predict_many(designs, points)
    peaks = fields.max(axis=1).reshape(n_per_axis, n_per_axis)
    return {"htc_values": values, "peak_temperature": peaks}
