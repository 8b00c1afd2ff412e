"""Scenario builders for the paper's workload families, at three scales.

These produce :class:`~repro.api.scenario.ThermalScenario` *specs*;
``scenario_for(name, scale=..., **kwargs).compile()`` is the one way to
build a preset's :class:`~repro.core.presets.ExperimentSetup`, and
:class:`~repro.api.ThermalService` trains and serves the same specs.

``scale="paper"`` reproduces the reported architecture and budget
exactly; ``scale="ci"`` is the bench default; ``scale="test"`` runs in
seconds for unit tests.  The volumetric and transient families have no
paper-scale variant (the paper never ran them).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .scenario import (
    BoundarySpec,
    CollocationSpec,
    GeometrySpec,
    GRFSpec,
    InputSpec,
    MaterialSpec,
    NetworkSpec,
    ThermalScenario,
    TraceFamilySpec,
    TrainingSpec,
    TransientSectionSpec,
    VolumetricSourceSpec,
)

T_AMB = 298.15

_SIDES = ("xmin", "xmax", "ymin", "ymax")


_SCALES_A: Dict[str, Dict] = {
    # branch widths exclude the sensor-input layer; trunk widths exclude
    # the Fourier layer. q = shared output feature width.  fourier_std is
    # the paper's 2*pi at paper scale; smaller budgets train dramatically
    # better with lower frequency content (see the Fourier ablation bench
    # and EXPERIMENTS.md).
    "paper": dict(
        map_shape=(21, 21), branch=[256] * 9, trunk=[128] * 5, q=128,
        fourier_freqs=64, fourier_std=2.0 * np.pi, train_grid=(21, 21, 11),
        iterations=10_000, n_functions=50, decay_every=500, seed=0,
    ),
    "ci": dict(
        map_shape=(21, 21), branch=[96] * 4, trunk=[64] * 3, q=64,
        fourier_freqs=24, fourier_std=2.0, train_grid=(11, 11, 7),
        iterations=2500, n_functions=10, decay_every=300, seed=0,
    ),
    "test": dict(
        map_shape=(7, 7), branch=[24] * 2, trunk=[24] * 2, q=16,
        fourier_freqs=8, fourier_std=1.0, train_grid=(5, 5, 4),
        iterations=700, n_functions=6, decay_every=150, seed=0,
    ),
}

_SCALES_B: Dict[str, Dict] = {
    # fourier_std: pi at paper scale; lower for small budgets (see the
    # Fourier ablation bench).  focus_band importance-samples the thin
    # volumetric power layer; loss_weights up-weight the convection
    # residuals so the HTC sensitivity signal survives reduced budgets.
    "paper": dict(
        branch=[20] * 5, trunk=[128] * 5, q=50, fourier_freqs=64,
        fourier_std=np.pi, n_interior=7000 // 8, n_per_face=7000 // 48,
        iterations=5000, n_functions=20, decay_every=500, focus_band=None,
        loss_weights=None,
    ),
    "ci": dict(
        branch=[20] * 3, trunk=[48] * 3, q=32, fourier_freqs=16,
        fourier_std=3.0, n_interior=300, n_per_face=40,
        iterations=1500, n_functions=12, decay_every=300,
        focus_band=(0.40, 0.60, 0.3),
        loss_weights={"bc:TOP": 30.0, "bc:BOTTOM": 30.0},
    ),
    "test": dict(
        branch=[12] * 2, trunk=[20] * 2, q=12, fourier_freqs=6,
        fourier_std=1.5, n_interior=60, n_per_face=12,
        iterations=900, n_functions=6, decay_every=200,
        focus_band=(0.40, 0.60, 0.3),
        loss_weights={"bc:TOP": 30.0, "bc:BOTTOM": 30.0},
    ),
}

_SCALES_V: Dict[str, Dict] = {
    "ci": dict(
        map_shape=(7, 7, 5), branch=[96] * 3, trunk=[64] * 3, q=48,
        fourier_freqs=16, fourier_std=2.0, train_grid=(9, 9, 7),
        iterations=1500, n_functions=10, decay_every=300,
    ),
    "test": dict(
        map_shape=(4, 4, 3), branch=[24] * 2, trunk=[20] * 2, q=16,
        fourier_freqs=6, fourier_std=1.0, train_grid=(5, 5, 4),
        iterations=250, n_functions=5, decay_every=150,
    ),
}

_SCALES_T: Dict[str, Dict] = {
    # horizon: a 4 s window shows the full step response of the chip's
    # ~1.6-4 s thermal time constants.  ic_weight up-weights the only
    # *labelled* signal in the transient loss (the farm-solved t=0
    # anchor) so the rollout's starting point stays pinned.
    "ci": dict(
        map_shape=(11, 11), n_time_sensors=12, branch=[96] * 3,
        trunk=[64] * 3, q=48, fourier_freqs=20, fourier_std=2.0,
        n_interior=384, n_per_face=48, n_initial=96, ic_grid=(9, 9, 6),
        iterations=2200, n_functions=8, decay_every=300,
        horizon=4.0, rho_cp=1.6e6, ic_weight=4.0,
    ),
    "test": dict(
        map_shape=(5, 5), n_time_sensors=6, branch=[24] * 2,
        trunk=[24] * 2, q=16, fourier_freqs=8, fourier_std=1.0,
        n_interior=96, n_per_face=16, n_initial=32, ic_grid=(5, 5, 4),
        iterations=400, n_functions=4, decay_every=150,
        horizon=4.0, rho_cp=1.6e6, ic_weight=4.0,
    ),
}


def _params(table: Dict[str, Dict], scale: str) -> Dict:
    if scale not in table:
        raise ValueError(f"unknown scale {scale!r}; choices: {sorted(table)}")
    return table[scale]


def scenario_experiment_a(
    scale: str = "ci",
    htc_bottom: float = 500.0,
    conductivity: float = 0.1,
    dt_ref: float = 10.0,
    seed: int = 0,
) -> ThermalScenario:
    """Sec. V-A: single-input DeepOHeat over 2-D top-surface power maps."""
    params = _params(_SCALES_A, scale)
    return ThermalScenario(
        name="experiment_a",
        scale=scale,
        description=(
            "2D power map on TOP; adiabatic sides; convection bottom "
            f"(h={htc_bottom} W/m^2K); k={conductivity} W/mK; scale={scale}"
        ),
        t_ambient=T_AMB,
        dt_ref=dt_ref,
        seed=seed,
        geometry=GeometrySpec(size_mm=(1.0, 1.0, 0.5)),
        material=MaterialSpec(conductivity=conductivity),
        boundaries={
            "bottom": BoundarySpec(kind="convection", htc=htc_bottom),
            **{face: BoundarySpec(kind="adiabatic") for face in _SIDES},
        },
        inputs=[
            InputSpec(
                family="power_map", name="power_map", face="top",
                map_shape=params["map_shape"], unit_flux=2500.0,
                grf=GRFSpec(length_scale=0.3),
            )
        ],
        network=NetworkSpec(
            branch_hidden=(tuple(params["branch"]),),
            trunk_hidden=tuple(params["trunk"]),
            q=params["q"],
            fourier_frequencies=params["fourier_freqs"],
            fourier_std=float(params["fourier_std"]),
        ),
        collocation=CollocationSpec(kind="mesh", grid=params["train_grid"]),
        training=TrainingSpec(
            iterations=params["iterations"],
            n_functions=params["n_functions"],
            decay_every=params["decay_every"],
            seed=params["seed"],
        ),
        eval_grid=(21, 21, 11),
    )


def scenario_experiment_b(
    scale: str = "ci",
    htc_range: Tuple[float, float] = (333.33, 1000.0),
    conductivity: float = 0.1,
    dt_ref: float = 2.0,
    seed: int = 0,
    aligned: bool = True,
) -> ThermalScenario:
    """Sec. V-B: dual-input DeepOHeat over top/bottom HTCs."""
    params = _params(_SCALES_B, scale)
    low, high = float(htc_range[0]), float(htc_range[1])
    return ThermalScenario(
        name="experiment_b",
        scale=scale,
        description=(
            "dual HTC inputs on TOP/BOTTOM over "
            f"[{low:.2f}, {high:.2f}]^2; 0.625 mW volumetric "
            f"layer; aligned={aligned}; scale={scale}"
        ),
        t_ambient=T_AMB,
        dt_ref=dt_ref,
        seed=seed,
        geometry=GeometrySpec(size_mm=(1.0, 1.0, 0.55)),
        material=MaterialSpec(conductivity=conductivity),
        boundaries={
            "top": BoundarySpec(kind="convection", htc=500.0),
            "bottom": BoundarySpec(kind="convection", htc=500.0),
        },
        volumetric_source=VolumetricSourceSpec(
            total_power=0.000625, thickness_mm=0.05
        ),
        inputs=[
            InputSpec(family="htc", face="top", low=low, high=high),
            InputSpec(family="htc", face="bottom", low=low, high=high),
        ],
        network=NetworkSpec(
            branch_hidden=(tuple(params["branch"]), tuple(params["branch"])),
            trunk_hidden=tuple(params["trunk"]),
            q=params["q"],
            fourier_frequencies=params["fourier_freqs"],
            fourier_std=float(params["fourier_std"]),
        ),
        collocation=CollocationSpec(
            kind="random",
            n_interior=params["n_interior"],
            n_per_face=params["n_per_face"],
            aligned=aligned,
            focus_band=params["focus_band"],
        ),
        training=TrainingSpec(
            iterations=params["iterations"],
            n_functions=params["n_functions"],
            decay_every=params["decay_every"],
            seed=seed,
        ),
        loss_weights=(dict(params["loss_weights"])
                      if params["loss_weights"] else None),
        eval_grid=(21, 21, 12),
    )


def scenario_experiment_volumetric(
    scale: str = "ci",
    conductivity: float = 0.1,
    unit_density: float = 5.0e6,
    dt_ref: float = 10.0,
    seed: int = 0,
) -> ThermalScenario:
    """Future-work extension: a 3-D volumetric power map as operator input."""
    params = _params(_SCALES_V, scale)
    return ThermalScenario(
        name="experiment_volumetric",
        scale=scale,
        description=(
            f"3D volumetric power map input {params['map_shape']} "
            f"(paper future work); convection top+bottom; scale={scale}"
        ),
        t_ambient=T_AMB,
        dt_ref=dt_ref,
        seed=seed,
        geometry=GeometrySpec(size_mm=(1.0, 1.0, 0.5)),
        material=MaterialSpec(conductivity=conductivity),
        boundaries={
            "top": BoundarySpec(kind="convection", htc=500.0),
            "bottom": BoundarySpec(kind="convection", htc=500.0),
        },
        inputs=[
            InputSpec(
                family="volumetric_power_map", name="power_map_3d",
                map_shape=params["map_shape"], unit_density=unit_density,
                grf=GRFSpec(length_scale=0.35, transform="softplus"),
            )
        ],
        network=NetworkSpec(
            branch_hidden=(tuple(params["branch"]),),
            trunk_hidden=tuple(params["trunk"]),
            q=params["q"],
            fourier_frequencies=params["fourier_freqs"],
            fourier_std=float(params["fourier_std"]),
        ),
        collocation=CollocationSpec(kind="mesh", grid=params["train_grid"]),
        training=TrainingSpec(
            iterations=params["iterations"],
            n_functions=params["n_functions"],
            decay_every=params["decay_every"],
            seed=seed,
        ),
        eval_grid=(13, 13, 9),
    )


def scenario_experiment_transient(
    scale: str = "ci",
    htc_bottom: float = 500.0,
    conductivity: float = 0.1,
    dt_ref: float = 10.0,
    seed: int = 0,
) -> ThermalScenario:
    """Transient extension: time-modulated power pulses on the chip top."""
    params = _params(_SCALES_T, scale)
    return ThermalScenario(
        name="experiment_transient",
        scale=scale,
        description=(
            f"time-modulated top power map {params['map_shape']} x "
            f"{params['n_time_sensors']} trace sensors over a "
            f"{params['horizon']:g} s window; convection bottom "
            f"(h={htc_bottom} W/m^2K); scale={scale}"
        ),
        t_ambient=T_AMB,
        dt_ref=dt_ref,
        seed=seed,
        geometry=GeometrySpec(size_mm=(1.0, 1.0, 0.5)),
        material=MaterialSpec(conductivity=conductivity),
        boundaries={
            "bottom": BoundarySpec(kind="convection", htc=htc_bottom),
            **{face: BoundarySpec(kind="adiabatic") for face in _SIDES},
        },
        inputs=[
            InputSpec(
                family="transient_power_map", name="transient_power",
                face="top", map_shape=params["map_shape"],
                n_time_sensors=params["n_time_sensors"], unit_flux=2500.0,
                grf=GRFSpec(length_scale=0.3), traces=TraceFamilySpec(),
            )
        ],
        network=NetworkSpec(
            branch_hidden=(tuple(params["branch"]),),
            trunk_hidden=tuple(params["trunk"]),
            q=params["q"],
            fourier_frequencies=params["fourier_freqs"],
            fourier_std=float(params["fourier_std"]),
        ),
        collocation=CollocationSpec(
            kind="transient",
            n_interior=params["n_interior"],
            n_per_face=params["n_per_face"],
            n_initial=params["n_initial"],
        ),
        training=TrainingSpec(
            iterations=params["iterations"],
            n_functions=params["n_functions"],
            decay_every=params["decay_every"],
            seed=seed,
        ),
        transient=TransientSectionSpec(
            rho_cp=params["rho_cp"],
            horizon=params["horizon"],
            ic_grid=params["ic_grid"],
        ),
        loss_weights={"ic": params["ic_weight"]},
        eval_grid=(13, 13, 9),
    )


_BUILDERS = {
    "a": scenario_experiment_a,
    "b": scenario_experiment_b,
    "volumetric": scenario_experiment_volumetric,
    "c": scenario_experiment_transient,
    "transient": scenario_experiment_transient,
}


def scenario_for(name: str, scale: str = "ci", **kwargs) -> ThermalScenario:
    """The preset scenario for a workload family.

    ``name`` is ``"a"``, ``"b"``, ``"volumetric"`` or ``"transient"``
    (alias ``"c"``); extra keyword arguments forward to the family's
    ``scenario_experiment_*`` builder.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown experiment {name!r}; use 'a', 'b', 'volumetric' "
            f"or 'transient'"
        )
    return builder(scale=scale, **kwargs)


def preset_inventory() -> Dict[str, Dict]:
    """Machine-readable preset catalogue (for ``repro info --json``)."""
    return {
        "a": {"scales": sorted(_SCALES_A),
              "summary": "2D power maps, 1x1x0.5 mm chip (Sec. V-A)"},
        "b": {"scales": sorted(_SCALES_B),
              "summary": "dual HTC inputs, volumetric layer (Sec. V-B)"},
        "volumetric": {"scales": sorted(_SCALES_V),
                       "summary": "3D power maps (Sec. VI future work)"},
        "transient": {"scales": sorted(_SCALES_T),
                      "summary": "time-modulated power pulses (eq. 1)"},
    }
