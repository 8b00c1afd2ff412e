"""Tests for the transient operator-learning subsystem.

Covers the time-derivative stream (parity against finite differences
and against the per-axis reference path), the farm-anchored
initial-condition loss, the power-trace encoding, the space-time
collocation plan, the extended TransientSolver (time-varying RHS +
callback/early-stop), the engine rollout path and the end-to-end
rollout-vs-theta-scheme error bound at test scale.
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.api import ThermalService, scenario_for
from repro.core import Trainer
from repro.experiments import (
    heldout_scenarios,
    run_experiment_c,
    steady_convergence_callback,
)
from repro.fdm import TransientSolver
from repro.power.traces import (
    ConstantTrace,
    PeriodicTrace,
    RampTrace,
    StepTrace,
    TraceFamily,
    interpolate_trace,
    trace_times,
)


@pytest.fixture(scope="module")
def tiny_setup():
    """An untrained test-scale transient setup (fresh weights)."""
    return scenario_for("transient", scale="test").compile()


@pytest.fixture(scope="module")
def trained_transient(tmp_path_factory):
    scenario = scenario_for("transient", scale="test")
    service = ThermalService(cache_dir=tmp_path_factory.mktemp("cache_transient"))
    service.train(scenario)
    return service.setup(scenario)


def _design(setup, seed=0):
    rng = np.random.default_rng(seed)
    config_input = setup.model.inputs[0]
    return {config_input.name: config_input.sample(rng, 1)[0]}


# ----------------------------------------------------------------------
# Power traces
# ----------------------------------------------------------------------
class TestTraces:
    def test_sample_shapes_and_range(self):
        family = TraceFamily()
        rng = np.random.default_rng(0)
        samples = family.sample_samples(rng, 8, 12)
        assert samples.shape == (8, 12)
        low, high = family.level_range
        assert samples.min() >= low - 1e-12
        assert samples.max() <= high + 1e-12

    def test_interpolation_hits_samples(self):
        trace = StepTrace(base=0.2, high=1.0, t_step=0.4, width=0.1)
        samples = trace.samples(9)
        recovered = interpolate_trace(samples, trace_times(9))
        np.testing.assert_allclose(recovered, samples, atol=1e-14)

    def test_step_and_ramp_levels(self):
        step = StepTrace(base=0.3, high=1.2, t_step=0.5, width=0.05)
        assert step(np.asarray([0.0]))[0] == pytest.approx(0.3)
        assert step(np.asarray([1.0]))[0] == pytest.approx(1.2)
        ramp = RampTrace(base=0.1, high=0.9, t_start=0.2, t_end=0.8)
        assert ramp(np.asarray([0.0]))[0] == pytest.approx(0.1)
        assert ramp(np.asarray([1.0]))[0] == pytest.approx(0.9)

    def test_periodic_is_periodic(self):
        clock = PeriodicTrace(low=0.4, high=1.2, period=0.25)
        t = np.linspace(0.0, 0.7, 40)
        np.testing.assert_allclose(clock(t), clock(t + 0.25), atol=1e-12)

    def test_periodic_duty_controls_high_fraction(self):
        t = np.linspace(0.0, 1.0, 20000, endpoint=False)
        for duty in (0.25, 0.5, 0.75):
            clock = PeriodicTrace(low=0.0, high=1.0, period=0.5, duty=duty)
            fraction_high = float(np.mean(clock(t) > 0.5))
            assert fraction_high == pytest.approx(duty, abs=0.02)

    def test_constant_trace(self):
        assert np.all(ConstantTrace(0.7).samples(5) == 0.7)

    def test_family_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace kinds"):
            TraceFamily(kinds=("step", "sawtooth"))


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
class TestTransientPowerInput:
    def test_pack_split_roundtrip(self, tiny_setup):
        config_input = tiny_setup.model.inputs[0]
        rng = np.random.default_rng(1)
        raw = config_input.sample(rng, 4)
        assert raw.shape == (4, config_input.sensor_dim)
        maps, traces = config_input.split(raw)
        assert maps.shape == (4,) + config_input.map_shape
        assert traces.shape == (4, config_input.n_time_sensors)
        np.testing.assert_array_equal(config_input.pack(maps, traces), raw)

    def test_values_at_is_map_times_trace(self, tiny_setup):
        config_input = tiny_setup.model.inputs[0]
        rng = np.random.default_rng(2)
        raw = config_input.sample(rng, 2)
        chip = config_input.chip
        points = np.asarray(
            [
                [chip.origin[0], chip.origin[1], chip.hi[2], 0.0],
                [chip.origin[0], chip.origin[1], chip.hi[2],
                 0.5 * config_input.horizon],
            ]
        )
        values = config_input.values_at(raw, points)
        assert values.shape == (2, 2)
        # At t the flux equals the t=0 flux times g(t)/g(0).
        modulation = config_input.modulation(raw, np.asarray([0.0, 0.5]))
        expected_ratio = modulation[:, 1] / modulation[:, 0]
        np.testing.assert_allclose(
            values[:, 1] / values[:, 0], expected_ratio, rtol=1e-12
        )

    def test_values_at_rejects_spatial_points(self, tiny_setup):
        config_input = tiny_setup.model.inputs[0]
        rng = np.random.default_rng(3)
        raw = config_input.sample(rng, 1)
        with pytest.raises(ValueError, match="4-column"):
            config_input.values_at(raw, np.zeros((3, 3)))

    def test_apply_stamps_t0_flux(self, tiny_setup):
        model = tiny_setup.model
        config_input = model.inputs[0]
        rng = np.random.default_rng(4)
        raw = config_input.sample(rng, 1)[0]
        applied = config_input.apply(model.config, raw)
        applied_t0 = config_input.apply_at(model.config, raw, 0.0)
        face = config_input.face
        points = np.asarray([[0.3e-3, 0.4e-3, model.config.chip.hi[2]]])
        flux = applied.bcs[face].flux_into_body(points)
        flux_t0 = applied_t0.bcs[face].flux_into_body(points)
        np.testing.assert_allclose(flux, flux_t0, rtol=1e-14)


# ----------------------------------------------------------------------
# Collocation
# ----------------------------------------------------------------------
class TestTransientCollocation:
    def test_batch_regions_and_shapes(self, tiny_setup):
        plan = tiny_setup.plan
        rng = np.random.default_rng(0)
        batch = plan.batch(rng, 3)
        assert "initial" in batch.regions
        for region, hat in batch.hat.items():
            assert hat.shape[-1] == 4
            assert batch.si[region].shape == hat.shape
        assert np.all(batch.hat["initial"][:, 3] == 0.0)
        assert np.all(batch.si["initial"][:, 3] == 0.0)

    def test_face_axis_pinned_and_time_in_seconds(self, tiny_setup):
        plan = tiny_setup.plan
        rng = np.random.default_rng(1)
        batch = plan.batch(rng, 2)
        top = batch.hat["TOP"]
        assert np.all(top[:, 2] == 1.0)
        si_time = batch.si["interior"][:, 3]
        hat_time = batch.hat["interior"][:, 3]
        np.testing.assert_allclose(si_time, hat_time * plan.horizon)

    def test_trainer_rejects_steady_plan_for_transient_model(self, tiny_setup):
        steady = scenario_for("a", scale="test").compile()
        with pytest.raises(ValueError, match="transient mode mismatch"):
            Trainer([(tiny_setup.model, steady.plan)])
        with pytest.raises(ValueError, match="transient mode mismatch"):
            Trainer([(steady.model, tiny_setup.plan)])


# ----------------------------------------------------------------------
# Time-derivative stream
# ----------------------------------------------------------------------
class TestTimeDerivativeStream:
    def test_grad3_matches_finite_differences(self, tiny_setup):
        """The stacked time stream equals an FD of the network in t."""
        model = tiny_setup.model
        rng = np.random.default_rng(5)
        raws = [inp.sample(rng, 2) for inp in model.inputs]
        branch_inputs = model.encode_raws(raws)
        points = rng.uniform(0.1, 0.9, size=(40, 4))

        with ad.no_grad():
            streams = model.net.forward_cartesian_with_derivatives(
                branch_inputs, points, stacked=True
            )
            time_grad = streams.gradient[3].data

            eps = 1e-6
            plus = points.copy()
            plus[:, 3] += eps
            minus = points.copy()
            minus[:, 3] -= eps
            fd = (
                model.net.forward_cartesian(branch_inputs, plus).data
                - model.net.forward_cartesian(branch_inputs, minus).data
            ) / (2.0 * eps)
        np.testing.assert_allclose(time_grad, fd, rtol=1e-6, atol=1e-8)

    def test_stacked_loss_matches_per_axis_reference(self, tiny_setup):
        """Fused selective path == legacy per-axis streams, all parts."""
        model = tiny_setup.model
        rng = np.random.default_rng(6)
        raws = [inp.sample(rng, 3) for inp in model.inputs]
        batch = tiny_setup.plan.batch(rng, 3)
        total_fused, parts_fused = model.compute_loss(raws, batch, stacked=True)
        total_ref, parts_ref = model.compute_loss(raws, batch, stacked=False)
        assert total_fused.item() == pytest.approx(total_ref.item(), rel=1e-12)
        assert set(parts_fused) == set(parts_ref)
        for name in parts_ref:
            assert parts_fused[name] == pytest.approx(
                parts_ref[name], rel=1e-10, abs=1e-14
            ), name

    def test_loss_has_ic_and_pde_components(self, tiny_setup):
        model = tiny_setup.model
        rng = np.random.default_rng(7)
        raws = [inp.sample(rng, 2) for inp in model.inputs]
        batch = tiny_setup.plan.batch(rng, 2)
        _, parts = model.compute_loss(raws, batch)
        assert "ic" in parts and "pde" in parts
        assert parts["ic"] >= 0.0


# ----------------------------------------------------------------------
# Initial-condition anchoring
# ----------------------------------------------------------------------
class TestInitialConditionLoss:
    def test_ic_component_matches_direct_evaluation(self, tiny_setup):
        """components['ic'] == weighted MSE of That(x,0) vs the farm IC."""
        model = tiny_setup.model
        rng = np.random.default_rng(8)
        raws = [inp.sample(rng, 2) for inp in model.inputs]
        batch = tiny_setup.plan.batch(rng, 2)
        _, parts = model.compute_loss(raws, batch)

        points = batch.si["initial"][:, :3]
        t0 = model.initial_fields(raws, points)
        target_hat = (t0 - model.nd.t_ref) / model.nd.dt_ref
        branch_inputs = model.encode_raws(raws)
        with ad.no_grad():
            predicted = model.net.forward_cartesian(
                branch_inputs, batch.hat["initial"]
            ).data
        expected = float(np.mean((predicted - target_hat) ** 2))
        weight = model.builder.weights.get("ic", 1.0)
        assert parts["ic"] == pytest.approx(weight * expected, rel=1e-10)

    def test_initial_fields_match_farm_steady_solution(self, tiny_setup):
        """The IC provider equals a direct steady solve of the t=0 stamp."""
        from repro.fdm import get_default_farm

        model = tiny_setup.model
        config_input = model.inputs[0]
        rng = np.random.default_rng(9)
        raws = [config_input.sample(rng, 1)]
        grid = model._ic_grid
        fields = model.initial_fields(raws, grid.points())
        config = config_input.apply(model.config, raws[0][0])
        direct = get_default_farm().solve(config.heat_problem(grid))
        np.testing.assert_allclose(fields[0], direct.temperature, atol=1e-8)


# ----------------------------------------------------------------------
# TransientSolver extensions
# ----------------------------------------------------------------------
class TestTransientSolverExtensions:
    def _solver(self, tiny_setup, design):
        model = tiny_setup.model
        problem = model.concrete_config(design).heat_problem(tiny_setup.eval_grid)
        return TransientSolver(problem, model.transient.rho_cp)

    def test_constant_callable_rhs_matches_constant_path(self, tiny_setup):
        solver = self._solver(tiny_setup, _design(tiny_setup))
        base = solver.system.rhs

        legacy = solver.run(300.0, dt=0.1, n_steps=5)
        via_callable = solver.run(300.0, dt=0.1, n_steps=5, rhs=lambda t: base)
        # theta = 1.0: the weighting collapses to the plain constant path.
        np.testing.assert_allclose(
            legacy.snapshots, via_callable.snapshots, atol=1e-12
        )

    def test_callback_receives_progress(self, tiny_setup):
        solver = self._solver(tiny_setup, _design(tiny_setup))
        seen = []
        solver.run(
            300.0, dt=0.1, n_steps=4,
            callback=lambda step, t, peak: seen.append((step, t, peak)),
        )
        assert [entry[0] for entry in seen] == [1, 2, 3, 4]
        assert all(isinstance(entry[2], float) for entry in seen)

    def test_callback_early_stop_truncates_and_saves(self, tiny_setup):
        solver = self._solver(tiny_setup, _design(tiny_setup))
        full = solver.run(300.0, dt=0.1, n_steps=10, save_every=5)
        stopped = solver.run(
            300.0, dt=0.1, n_steps=10, save_every=5,
            callback=lambda step, t, peak: step >= 3,
        )
        # Stopped at step 3 (not a save step): the state is still saved.
        assert stopped.times[-1] == pytest.approx(0.3)
        assert stopped.snapshots.shape[0] == 2
        np.testing.assert_array_equal(stopped.snapshots[0], full.snapshots[0])

    def test_steady_convergence_callback_stops_settled_run(self, tiny_setup):
        design = _design(tiny_setup)
        solver = self._solver(tiny_setup, design)
        steady = solver.initial_steady()
        callback = steady_convergence_callback(tol=1e-6, dt=0.1)
        # Starting *at* steady state, the peak never moves: early exit.
        result = solver.run(steady, dt=0.1, n_steps=50, callback=callback)
        assert result.times[-1] < 50 * 0.1 - 1e-9


# ----------------------------------------------------------------------
# Engine rollout
# ----------------------------------------------------------------------
class TestRolloutServing:
    def test_rollout_matches_per_instant_predict(self, tiny_setup):
        model = tiny_setup.model
        design = _design(tiny_setup)
        times = np.linspace(0.0, model.transient.horizon, 4)
        rollout = model.predict_rollout(design, times, grid=tiny_setup.eval_grid)
        engine = model.engine
        for index, t in enumerate(times):
            single = engine.predict(design, grid=tiny_setup.eval_grid, t=t)
            np.testing.assert_allclose(rollout[index], single, atol=1e-10)

    def test_rollout_block_is_one_cache_entry(self, tiny_setup):
        model = tiny_setup.model
        engine = model.compile()
        design = _design(tiny_setup)
        times = np.linspace(0.0, model.transient.horizon, 6)
        engine.predict_rollout([design], times, grid=tiny_setup.eval_grid)
        first = engine.cache_info()
        assert (first.misses, first.entries) == (1, 1)
        engine.predict_rollout([design], times, grid=tiny_setup.eval_grid)
        second = engine.cache_info()
        assert second.hits == first.hits + 1
        assert second.entries == 1

    def test_steady_engine_rejects_times(self):
        steady = scenario_for("a", scale="test").compile()
        engine = steady.model.compile()
        with pytest.raises(ValueError, match="transient"):
            engine.predict_rollout(
                [{"power_map": np.zeros(steady.model.inputs[0].map_shape)}],
                [0.0, 1.0],
                grid=steady.eval_grid,
            )

    def test_transient_engine_requires_times(self, tiny_setup):
        engine = tiny_setup.model.compile()
        with pytest.raises(ValueError, match="times"):
            engine.predict(_design(tiny_setup), grid=tiny_setup.eval_grid)


# ----------------------------------------------------------------------
# End-to-end: rollout vs theta scheme
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_training_improves_loss(self, trained_transient):
        # The disk-cached checkpoint stores its final loss; retrain a few
        # iterations to confirm the loop runs and the ic part is live.
        setup = scenario_for("transient", scale="test").compile()
        cfg = setup.trainer_config
        cfg.iterations = 30
        cfg.log_every = 29
        history = setup.make_trainer().run()
        assert history.improvement_factor() > 1.0
        assert "ic" in history.components

    def test_rollout_error_bound_vs_theta_scheme(self, trained_transient):
        result = run_experiment_c(
            trained_transient, scenario="step", n_times=5,
            steps_per_interval=6,
        )
        # Acceptance-style bound at test scale: the rollout peak trace
        # stays within 5% (kelvin-relative) of the implicit reference.
        assert result.peak_rel_error < 0.05
        assert result.times.shape == result.surrogate_peak.shape
        assert "rollout" in result.summary_text()
        assert "theta peak (K)" in result.table_text()

    def test_early_stop_reaches_fewer_instants(self, trained_transient):
        settled = run_experiment_c(
            trained_transient, scenario="step", n_times=5,
            steps_per_interval=6, early_stop_tol=1e9,
        )
        # An absurdly loose tolerance stops the reference immediately.
        assert settled.early_stopped
        assert len(settled.times) < 5

    def test_scenarios_are_heldout_and_named(self, tiny_setup):
        scenarios = heldout_scenarios(tiny_setup.model.inputs[0])
        assert set(scenarios) == {"step", "ramp", "clock"}
        for scenario in scenarios.values():
            raw = scenario.raw(tiny_setup.model.inputs[0])
            assert raw.shape == (tiny_setup.model.inputs[0].sensor_dim,)
