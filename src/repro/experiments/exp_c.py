"""Experiment C driver: transient rollouts vs theta-scheme references.

The paper trains only the steady limit of its governing equation (1);
this driver validates the transient extension end-to-end.  A trained
transient surrogate (``scenario_for("transient")``) is
rolled out over held-out power-pulse scenarios — a workload step, a DVFS
ramp and a clock-gating square wave, none of which are training samples
— and compared, instant by instant, against the implicit theta-scheme
:class:`~repro.fdm.transient.TransientSolver` stepping the same
time-varying right-hand side through the shared solve farm.

The headline numbers per scenario:

* peak-temperature trace error (relative, in kelvin) and the stricter
  rise-space error (relative to the reference temperature *rise*);
* rollout throughput (design-steps/s through the serving engine) vs the
  per-step FDM stepping rate it replaces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..analysis.report import format_table, kv_block
from ..core import ExperimentSetup
from ..fdm.transient import TransientResult
from ..power.traces import PeriodicTrace, PowerTrace, RampTrace, StepTrace


@dataclass
class TransientScenario:
    """One held-out space-time workload: a spatial map times a trace."""

    name: str
    description: str
    power_map: np.ndarray  # (n1, n2) in power units
    trace: PowerTrace

    def raw(self, config_input) -> np.ndarray:
        """The packed raw instance for ``config_input`` (one row)."""
        return config_input.pack(
            self.power_map[None, ...],
            self.trace.samples(config_input.n_time_sensors)[None, :],
        )[0]


def _hotspot_map(shape, amplitude: float = 1.0) -> np.ndarray:
    """A deterministic held-out map: one off-centre Gaussian hotspot."""
    n1, n2 = shape
    y, x = np.meshgrid(np.linspace(0.0, 1.0, n2), np.linspace(0.0, 1.0, n1))
    bump = np.exp(-(((x - 0.35) ** 2 + (y - 0.6) ** 2) / 0.045))
    return amplitude * (0.15 + bump)


def heldout_scenarios(config_input) -> Dict[str, TransientScenario]:
    """The named evaluation scenarios for one transient power input.

    All three share the hotspot map and differ only in the trace, so
    their differences isolate the *dynamics* the surrogate learned.
    """
    shape = config_input.map_shape
    return {
        "step": TransientScenario(
            name="step",
            description="core wake-up: 0.35x to 1.25x power at t_hat=0.3",
            power_map=_hotspot_map(shape),
            trace=StepTrace(base=0.35, high=1.25, t_step=0.3, width=0.06),
        ),
        "ramp": TransientScenario(
            name="ramp",
            description="DVFS ramp: 0.3x to 1.1x power over t_hat 0.1..0.7",
            power_map=_hotspot_map(shape),
            trace=RampTrace(base=0.3, high=1.1, t_start=0.1, t_end=0.7),
        ),
        "clock": TransientScenario(
            name="clock",
            description="clock gating: 0.4x/1.2x square wave, period 0.5",
            power_map=_hotspot_map(shape),
            trace=PeriodicTrace(low=0.4, high=1.2, period=0.5, duty=0.5),
        ),
    }


def steady_convergence_callback(
    tol: float, dt: float, patience: int = 3
) -> Callable[[int, float, float], bool]:
    """An early-exit hook for :meth:`TransientSolver.run`.

    Stops the stepping once the peak temperature has changed by less
    than ``tol`` kelvin per second for ``patience`` consecutive steps —
    the trace has saturated and the response converged to its steady
    state, so further steps only re-confirm it.
    """
    state = {"last_peak": None, "quiet": 0}

    def callback(step: int, t: float, peak: float) -> bool:
        last = state["last_peak"]
        state["last_peak"] = peak
        if last is None:
            return False
        rate = abs(peak - last) / dt
        state["quiet"] = state["quiet"] + 1 if rate < tol else 0
        return state["quiet"] >= patience

    return callback


@dataclass
class ExperimentCResult:
    """Rollout-vs-reference comparison over one scenario."""

    scenario: TransientScenario
    times: np.ndarray  # (n_t,) seconds, common to both traces
    surrogate_peak: np.ndarray  # (n_t,) kelvin
    reference_peak: np.ndarray  # (n_t,) kelvin
    t_ambient: float
    rollout_seconds: float
    reference_seconds: float
    n_fdm_steps: int
    early_stopped: bool

    # -- error metrics -------------------------------------------------
    @property
    def peak_rel_error(self) -> float:
        """Max relative error of the peak trace (kelvin scale)."""
        return float(
            np.max(
                np.abs(self.surrogate_peak - self.reference_peak)
                / np.abs(self.reference_peak)
            )
        )

    @property
    def rise_rel_error(self) -> float:
        """Max error relative to the largest reference rise — stricter."""
        rise = float(np.max(self.reference_peak - self.t_ambient))
        return float(
            np.max(np.abs(self.surrogate_peak - self.reference_peak))
            / max(rise, 1e-12)
        )

    @property
    def max_abs_error(self) -> float:
        return float(np.max(np.abs(self.surrogate_peak - self.reference_peak)))

    # -- throughput ----------------------------------------------------
    @property
    def rollout_steps_per_second(self) -> float:
        return len(self.times) / max(self.rollout_seconds, 1e-12)

    @property
    def fdm_steps_per_second(self) -> float:
        return self.n_fdm_steps / max(self.reference_seconds, 1e-12)

    @property
    def speedup(self) -> float:
        """Wall-clock per evaluated instant: rollout vs theta stepping.

        The FDM must step through every intermediate dt to reach an
        instant; the surrogate evaluates any instant directly, so the
        honest comparison is whole-trace wall time.
        """
        return max(self.reference_seconds, 1e-12) / max(self.rollout_seconds, 1e-12)

    # -- reporting -----------------------------------------------------
    def trace_rows(self) -> List[List[str]]:
        rows = []
        for t, ref, sur in zip(self.times, self.reference_peak, self.surrogate_peak):
            rows.append(
                [
                    f"{t:.3f}",
                    f"{ref:.3f}",
                    f"{sur:.3f}",
                    f"{abs(sur - ref):.3f}",
                    f"{abs(sur - ref) / abs(ref) * 100:.3f}",
                ]
            )
        return rows

    def table_text(self) -> str:
        return format_table(
            ["t (s)", "theta peak (K)", "rollout peak (K)", "|err| K", "err %"],
            self.trace_rows(),
        )

    def summary_text(self) -> str:
        return kv_block(
            f"transient rollout — scenario {self.scenario.name!r}",
            {
                "scenario": self.scenario.description,
                "instants compared": len(self.times),
                "max |peak err|": f"{self.max_abs_error:.3f} K",
                "peak rel error": f"{self.peak_rel_error * 100:.3f} %",
                "rise-space error": f"{self.rise_rel_error * 100:.1f} %",
                "rollout": f"{self.rollout_seconds * 1e3:.1f} ms "
                f"({self.rollout_steps_per_second:.0f} instants/s)",
                "theta stepping": f"{self.reference_seconds * 1e3:.1f} ms "
                f"({self.fdm_steps_per_second:.0f} steps/s, "
                f"{self.n_fdm_steps} steps"
                + (", early-stopped)" if self.early_stopped else ")"),
                "trace speedup": f"{self.speedup:.1f}x",
            },
        )


def run_experiment_c(
    setup: ExperimentSetup,
    scenario: str = "step",
    n_times: int = 9,
    steps_per_interval: int = 8,
    theta: float = 1.0,
    early_stop_tol: Optional[float] = None,
) -> ExperimentCResult:
    """Roll a trained transient surrogate against the theta scheme.

    ``n_times`` instants spanning the horizon are evaluated by both
    sides; the reference steps ``steps_per_interval`` implicit steps
    between consecutive instants (so its dt error stays well under the
    surrogate tolerance being measured).  ``early_stop_tol`` (K/s)
    enables the convergence-to-steady early exit on the reference —
    the comparison then covers the instants actually stepped.
    """
    model = setup.model
    spec = model.transient
    if spec is None:
        raise ValueError("run_experiment_c needs a transient setup")
    if n_times < 2:
        raise ValueError("need at least 2 instants")
    if steps_per_interval < 1:
        raise ValueError("need at least 1 reference step per interval")
    config_input = model.inputs[0]
    scenarios = heldout_scenarios(config_input)
    if scenario not in scenarios:
        raise KeyError(
            f"unknown scenario {scenario!r}; choices: {sorted(scenarios)}",
        )
    case = scenarios[scenario]
    design = {config_input.name: case.raw(config_input)}

    times = np.linspace(0.0, spec.horizon, int(n_times))
    dt = float(times[1] - times[0]) / int(steps_per_interval)
    n_steps = int(steps_per_interval) * (int(n_times) - 1)

    callback = (
        steady_convergence_callback(early_stop_tol, dt)
        if early_stop_tol is not None
        else None
    )
    start = time.perf_counter()
    reference: TransientResult = model.reference_rollout(
        design,
        setup.eval_grid,
        dt=dt,
        n_steps=n_steps,
        theta=theta,
        save_every=int(steps_per_interval),
        callback=callback,
    )
    reference_seconds = time.perf_counter() - start
    n_fdm_steps = int(round(reference.times[-1] / dt))

    # Compare on the instants the reference actually reached (the
    # early-exit may truncate the tail; the final snapshot may land
    # off-grid, so keep only saved instants matching the rollout grid).
    saved = reference.times
    keep = np.isclose(saved[:, None], times[None, :], atol=dt * 1e-6).any(axis=1)
    ref_times = saved[keep]
    ref_peaks = reference.snapshots[keep].max(axis=1)

    engine = model.engine
    start = time.perf_counter()
    rollout = engine.predict_rollout([design], ref_times, grid=setup.eval_grid)[0]
    rollout_seconds = time.perf_counter() - start
    surrogate_peaks = rollout.max(axis=1)

    return ExperimentCResult(
        scenario=case,
        times=ref_times,
        surrogate_peak=surrogate_peaks,
        reference_peak=ref_peaks,
        t_ambient=model.config.t_ambient,
        rollout_seconds=rollout_seconds,
        reference_seconds=reference_seconds,
        n_fdm_steps=n_fdm_steps,
        early_stopped=bool(len(ref_times) < len(times)),
    )


def run_all_scenarios(
    setup: ExperimentSetup,
    n_times: int = 9,
    steps_per_interval: int = 8,
    theta: float = 1.0,
) -> Dict[str, ExperimentCResult]:
    """All held-out scenarios, sharing the farm-cached operator."""
    return {
        name: run_experiment_c(
            setup,
            scenario=name,
            n_times=n_times,
            steps_per_interval=steps_per_interval,
            theta=theta,
        )
        for name in heldout_scenarios(setup.model.inputs[0])
    }
