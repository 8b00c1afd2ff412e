"""Tests for the session façade (:mod:`repro.api.service`)."""

from pathlib import Path

import numpy as np
import pytest

from repro.api import ThermalScenario, ThermalService, scenario_for
from repro.fdm import SolveFarm

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def _tiny(family="a", **kwargs):
    scenario = scenario_for(family, scale="test", **kwargs)
    scenario.training.iterations = 5
    return scenario


@pytest.fixture()
def service(tmp_path):
    return ThermalService(cache_dir=tmp_path)


class TestCheckpointRegistry:
    def test_train_then_registry_hit(self, service):
        scenario = _tiny()
        first = service.train(scenario)
        assert not first.from_cache
        assert first.checkpoint_path.exists()
        second = service.train(scenario)
        assert second.from_cache
        assert second.checkpoint_path == first.checkpoint_path
        assert len(service.registry.entries()) == 1

    def test_force_retrain_bypasses_cache(self, service):
        scenario = _tiny()
        service.train(scenario)
        again = service.train(scenario, force_retrain=True)
        assert not again.from_cache

    def test_digest_collision_guard_htc(self, service):
        """Scenarios differing only in an HTC never share a checkpoint."""
        left, right = _tiny(), _tiny(htc_bottom=900.0)
        assert left.content_digest() != right.content_digest()
        assert (service.registry.path_for(left)
                != service.registry.path_for(right))
        service.train(left)
        # The other scenario must MISS and train its own slot.
        result = service.train(right)
        assert not result.from_cache
        assert len(service.registry.entries()) == 2

    def test_digest_collision_guard_power_family(self, service):
        """Same name, different trace family -> different slots."""
        left = scenario_for("transient", scale="test")
        left.training.iterations = 3
        right = scenario_for("transient", scale="test")
        right.training.iterations = 3
        right.inputs[0].traces.kinds = ("periodic",)
        assert (service.registry.path_for(left)
                != service.registry.path_for(right))

    def test_rename_keeps_checkpoint(self, service):
        """The digest is the key: a renamed scenario reuses its slot."""
        scenario = _tiny()
        service.train(scenario)
        renamed = _tiny()
        renamed.name = "same_physics_new_name"
        fresh = ThermalService(cache_dir=service.registry.root)
        result = fresh.train(renamed)
        assert result.from_cache

    def test_hostile_scenario_name_stays_inside_registry(self, service):
        scenario = _tiny()
        scenario.name = "../escape/attempt one"
        path = service.registry.path_for(scenario)
        assert path.parent == service.registry.root
        result = service.train(scenario)
        assert result.checkpoint_path.exists()
        assert result.checkpoint_path.parent == service.registry.root

    def test_registry_key_includes_package_version(self, service):
        from repro import __version__

        path = service.registry.path_for(_tiny())
        assert f"-v{__version__}.npz" in path.name

    def test_load_checkpoint_explicit(self, service, tmp_path):
        scenario = _tiny()
        setup = service.setup(scenario)
        path = tmp_path / "explicit.npz"
        setup.model.save(path)
        fresh = ThermalService(cache_dir=tmp_path / "other")
        fresh.load_checkpoint(scenario, path)
        # predict must not retrain (no registry entry appears).
        designs = [{"power_map": m} for m in
                   fresh.sample_designs(scenario, 2)["power_map"]]
        fresh.predict(scenario, designs)
        assert fresh.registry.entries() == []


class TestSolve:
    def test_solve_sampled_designs(self, service):
        result = service.solve(_tiny(), n_designs=3, grid_shape=(5, 5, 4))
        assert result.fields.shape == (3, 5, 5, 4)
        assert result.peaks.shape == (3,)
        assert np.all(np.abs(result.energy_imbalance) < 1e-8)
        assert np.all(result.peaks >= 298.15)

    def test_solve_matches_model_reference(self, service):
        scenario = _tiny()
        setup = service.setup(scenario)
        design = {"power_map":
                  setup.model.inputs[0].sample(np.random.default_rng(3), 1)[0]}
        result = service.solve(scenario, designs=[design],
                               grid_shape=(5, 5, 4))
        from repro.geometry import StructuredGrid

        grid = StructuredGrid(setup.model.config.chip, (5, 5, 4))
        reference = setup.model.reference_solution(design, grid)
        assert np.allclose(result.fields[0], reference.to_array(),
                           atol=0, rtol=0)

    def test_solver_tiers_through_the_service(self, tmp_path):
        scenario = ThermalScenario.from_json(SCENARIO_DIR / "experiment_b_test.json")
        peaks = {}
        for solver in (None, "lu", "block_cg", "auto"):
            # A private farm per tier, so no tier reuses another's state.
            tiered = ThermalService(
                cache_dir=tmp_path, farm=SolveFarm(), solver=solver
            )
            result = tiered.solve(scenario, n_designs=2, seed=3)
            assert np.all(np.abs(result.energy_imbalance) < 1e-8)
            peaks[solver] = result.peaks
        assert np.array_equal(peaks["lu"], peaks[None])
        assert np.array_equal(peaks["auto"], peaks[None])
        assert np.abs(peaks["block_cg"] - peaks[None]).max() <= 1e-8

    def test_transient_solve_is_initial_condition(self, service):
        result = service.solve(scenario_for("transient", scale="test"),
                               n_designs=1, grid_shape=(5, 5, 4))
        assert result.fields.shape == (1, 5, 5, 4)


class TestServing:
    def test_predict_matches_uncached_path(self, service):
        scenario = _tiny()
        setup = service.setup(scenario)
        designs = [{"power_map": m} for m in
                   setup.model.inputs[0].sample(np.random.default_rng(0), 3)]
        result = service.predict(scenario, designs)
        reference = setup.model.predict_many_uncached(
            designs, setup.eval_grid.points()
        )
        assert np.allclose(result.fields, reference, atol=1e-9)
        assert result.peaks.shape == (3,)

    def test_predict_steady_rejects_t(self, service):
        scenario = _tiny()
        with pytest.raises(ValueError):
            service.predict(scenario, [], t=1.0)

    def test_predict_transient_requires_t(self, service):
        scenario = scenario_for("transient", scale="test")
        scenario.training.iterations = 3
        with pytest.raises(ValueError, match="rollout"):
            service.predict(scenario, [])

    def test_rollout_requires_transient(self, service):
        with pytest.raises(ValueError, match="transient"):
            service.rollout(_tiny(), [], times=[0.0])

    def test_rollout_shapes(self, service):
        scenario = scenario_for("transient", scale="test")
        scenario.training.iterations = 3
        designs = service.sample_designs(scenario, 2, seed=1)
        designs = [{k: v[i] for k, v in designs.items()} for i in range(2)]
        result = service.rollout(scenario, designs, times=[0.0, 2.0, 4.0],
                                 grid_shape=(5, 5, 4))
        assert result.fields.shape == (2, 3, 100)
        assert result.peak_traces.shape == (2, 3)

    def test_engines_share_trunk_cache(self, service):
        left, right = _tiny(), _tiny(htc_bottom=700.0)
        service.train(left)
        service.train(right)
        assert service.engine(left) is not service.engine(right)
        # Distinct weights -> distinct cache entries in the shared store.
        designs_left = [{"power_map": m} for m in
                        service.sample_designs(left, 1)["power_map"]]
        service.predict(left, designs_left)
        service.predict(right, designs_left)
        info = service.engine(left).cache_info()
        assert info.entries >= 2


class TestSweep:
    def test_sweep_streams_and_validates(self, service):
        scenario = _tiny()
        chunks = []
        result = service.sweep(scenario, n_designs=7, chunk_size=3,
                               validate=2, on_chunk=chunks.append)
        assert result.peaks.shape == (7,)
        assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 7)]
        assert result.validation is not None
        assert result.validation.peak_errors.shape == (2,)
        assert result.validation.worst_energy_imbalance < 1e-8
        assert result.throughput > 0

    def test_sweep_validation_checks_hottest(self, service):
        result = service.sweep(_tiny(), n_designs=6, chunk_size=2, validate=3)
        hottest = np.argsort(result.peaks)[::-1][:3]
        assert set(result.validation.design_indices) == set(hottest)

    def test_sweep_rejects_transient(self, service):
        scenario = scenario_for("transient", scale="test")
        with pytest.raises(ValueError, match="rollout"):
            service.sweep(scenario, n_designs=2)

    def test_design_reconstruction(self, service):
        result = service.sweep(_tiny(), n_designs=4, chunk_size=2)
        design = result.design(2)
        assert "power_map" in design
        assert np.array_equal(design["power_map"],
                              result.raws["power_map"][2])


def _tiny_family(iterations=4):
    from repro.family import ScenarioFamily

    base = scenario_for("b", scale="test")
    base.training.iterations = iterations
    return ScenarioFamily.from_dict({
        "family_schema_version": 1,
        "name": "service_family",
        "base": base.to_dict(),
        "axes": [{"kind": "htc_range", "input": "htc_top", "low": 333.33,
                  "high": 1000.0, "member_width": 150.0}],
        "n_members": 2,
        "sample_seed": 7,
        "conditioning_hidden": [8],
    })


class TestTrainCheckpointEvery:
    @pytest.mark.parametrize("kind", ["scenario", "family"])
    def test_checkpoint_every_stays_with_its_call(self, service, monkeypatch,
                                                  kind):
        """``checkpoint_every=`` autosaves that run only, not later ones."""
        from repro.core import trainer as core_trainer
        from repro.family import trainer as family_trainer

        saves = []
        real_save = core_trainer.save_trainer_state

        def spy(*args, **kwargs):
            saves.append(args)
            return real_save(*args, **kwargs)

        monkeypatch.setattr(core_trainer, "save_trainer_state", spy)
        monkeypatch.setattr(family_trainer, "save_trainer_state", spy)
        if kind == "scenario":
            subject, train = _tiny(), service.train
            config = service.setup(subject).trainer_config
        else:
            subject, train = _tiny_family(), service.train_family
            config = service.family_session(subject).setup.trainer_config
        before = config.checkpoint_every
        assert not before

        train(subject, checkpoint_every=2)
        assert saves  # this run autosaved
        assert config.checkpoint_every == before

        saves.clear()
        result = train(subject, force_retrain=True)
        assert not result.from_cache
        assert saves == []


class TestAtomicRegistrySave:
    def test_save_leaves_no_temp_files(self, tmp_path):
        from repro.api import CheckpointRegistry, scenario_experiment_a

        scenario = scenario_experiment_a(scale="test")
        setup = scenario.compile()
        registry = CheckpointRegistry(tmp_path)
        path = registry.save(scenario, setup.model, meta={"final_loss": 1.0})
        assert path.exists()
        leftovers = [
            p for p in tmp_path.iterdir() if ".tmp" in p.name
        ]
        assert leftovers == []
        # The slot round-trips: find() returns it and load() accepts it.
        assert registry.find(scenario) == path
        meta = setup.model.load(path)
        assert float(meta["final_loss"]) == 1.0
