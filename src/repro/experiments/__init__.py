"""Experiment drivers regenerating every table and figure of the paper."""

from .ablations import (
    AblationRun,
    run_activation_ablation,
    run_fourier_ablation,
    run_sampling_ablation,
)
from .exp_a import (
    ExperimentAResult,
    PowerMapCase,
    evaluate_power_map,
    figure4_maps,
    figure4_text,
    run_experiment_a,
)
from .exp_b import (
    PAPER_ERRORS,
    PAPER_HTC_CASES,
    ExperimentBResult,
    HTCCase,
    evaluate_htc_case,
    htc_design_sweep,
    run_experiment_b,
)
from .exp_c import (
    ExperimentCResult,
    TransientScenario,
    heldout_scenarios,
    run_all_scenarios,
    run_experiment_c,
    steady_convergence_callback,
)
from .speedup import SpeedupStudy, fdm_scaling_curve, run_speedup_study

__all__ = [
    "AblationRun",
    "ExperimentAResult",
    "ExperimentBResult",
    "ExperimentCResult",
    "HTCCase",
    "PAPER_ERRORS",
    "PAPER_HTC_CASES",
    "PowerMapCase",
    "SpeedupStudy",
    "TransientScenario",
    "evaluate_htc_case",
    "evaluate_power_map",
    "fdm_scaling_curve",
    "figure4_maps",
    "figure4_text",
    "heldout_scenarios",
    "htc_design_sweep",
    "run_all_scenarios",
    "run_experiment_a",
    "run_experiment_b",
    "run_experiment_c",
    "run_sampling_ablation",
    "steady_convergence_callback",
    "run_activation_ablation",
    "run_fourier_ablation",
    "run_speedup_study",
]
