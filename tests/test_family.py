"""Tests for :mod:`repro.family`: spec, conditioning, trainer, lineage.

Covers the foundation-style contract end to end at test scale: the
versioned family spec (digest stability, deterministic member
enumeration, coverage checks), the scenario-conditioning branch, the
round-robin family :class:`~repro.core.trainer.Trainer` (including
bitwise checkpoint resume), the registry lineage chain (``parent_digest`` round-trip,
fallback ordering, cyclic/missing-parent rejection) and the service
``train_family`` / ``fine_tune`` / ``predict_member`` surface plus the
CLI wiring.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ScenarioValidationError, ThermalScenario, ThermalService
from repro.family import (
    FAMILY_SCHEMA_VERSION,
    FamilyEncodedInput,
    FamilySetup,
    ScenarioFamily,
    load_spec,
)
from repro.nn.serialize import CheckpointCorrupt

_BASE = {
    "schema_version": 1,
    "name": "fam_test_base",
    "scale": "test",
    "t_ambient": 298.15,
    "dt_ref": 2.0,
    "seed": 0,
    "geometry": {"size_mm": [1.0, 1.0, 0.55]},
    "material": {"kind": "uniform", "conductivity": 0.15},
    "boundaries": {
        "top": {"kind": "convection", "htc": 500.0},
        "bottom": {"kind": "convection", "htc": 500.0},
    },
    "volumetric_source": {
        "kind": "uniform_layer",
        "total_power": 0.000625,
        "thickness_mm": 0.05,
    },
    "inputs": [
        {"family": "htc", "face": "top", "low": 200.0, "high": 1500.0},
        {"family": "htc", "face": "bottom", "low": 200.0, "high": 1500.0},
    ],
    "network": {
        "branch_hidden": [[8], [8]],
        "trunk_hidden": [10],
        "q": 6,
        "fourier_frequencies": 3,
        "fourier_std": 1.0,
        "activation": "swish",
    },
    "collocation": {"kind": "random", "n_interior": 24, "n_per_face": 6},
    "training": {
        "iterations": 6,
        "n_functions": 4,
        "learning_rate": 1e-3,
        "decay_rate": 0.9,
        "decay_every": 200,
        "seed": 0,
    },
    "eval_grid": [7, 7, 5],
}


def _family_dict(**overrides):
    data = {
        "family_schema_version": FAMILY_SCHEMA_VERSION,
        "name": "fam_test",
        "description": "unit-test family",
        "base": json.loads(json.dumps(_BASE)),
        "axes": [
            {"kind": "htc_range", "input": "htc_top",
             "low": 200.0, "high": 1500.0, "member_width": 300.0},
            {"kind": "htc_range", "input": "htc_bottom",
             "low": 200.0, "high": 1500.0, "member_width": 300.0},
        ],
        "n_members": 2,
        "sample_seed": 7,
        "conditioning_hidden": [8],
    }
    data.update(overrides)
    return data


def _family(**overrides) -> ScenarioFamily:
    return ScenarioFamily.from_dict(_family_dict(**overrides))


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
class TestSpec:
    def test_json_round_trip(self, tmp_path):
        family = _family()
        path = tmp_path / "fam.json"
        path.write_text(family.to_json())
        loaded = ScenarioFamily.from_json(path)
        assert loaded.to_dict() == family.to_dict()
        assert loaded.content_digest() == family.content_digest()

    def test_digest_ignores_labels_but_not_physics(self):
        family = _family()
        relabeled = _family(name="other_name",
                            description="different words")
        relabeled.base.name = "renamed_base"
        assert relabeled.content_digest() == family.content_digest()
        widened = _family()
        widened.axes[0].member_width = 500.0
        assert widened.content_digest() != family.content_digest()

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ScenarioValidationError):
            ScenarioFamily.from_dict(_family_dict(family_schema_version=99))

    def test_unknown_axis_kind_rejected(self):
        bad = _family_dict(axes=[{"kind": "voltage", "low": 0, "high": 1}])
        with pytest.raises(ScenarioValidationError):
            ScenarioFamily.from_dict(bad)

    def test_members_are_deterministic_and_inside_envelope(self):
        family = _family(n_members=3)
        members = family.members()
        assert len(members) == 3
        again = _family(n_members=3).members()
        for left, right in zip(members, again):
            assert left.content_digest() == right.content_digest()
        for member in members:
            for spec in member.inputs:
                assert spec.low >= 200.0 - 1e-9
                assert spec.high <= 1500.0 + 1e-9
                assert spec.high - spec.low == pytest.approx(300.0)

    def test_holdout_disjoint_from_members(self):
        family = _family()
        member_digests = {m.content_digest() for m in family.members()}
        assert family.holdout(0).content_digest() not in member_digests

    def test_covers_members_holdouts_and_retrained_variants(self):
        family = _family()
        assert family.covers(family.member(0))
        assert family.covers(family.holdout(1))
        retrained = family.holdout(0)
        retrained.training.iterations = 999
        retrained.name = "renamed"
        assert family.covers(retrained)

    def test_covers_rejects_out_of_envelope(self):
        family = _family()
        outside = family.holdout(0)
        outside.inputs[0].low = 50.0
        assert not family.covers(outside)
        alien = ThermalScenario.from_dict(json.loads(json.dumps(_BASE)))
        alien.material.conductivity = 5.0
        assert not family.covers(alien)

    def test_unreadable_file_is_a_validation_error(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as info:
            ScenarioFamily.from_json(tmp_path / "missing.json")
        (error,) = info.value.errors
        assert error.startswith(f"cannot read family file {tmp_path / 'missing.json'}:")

    def test_invalid_json_message(self):
        with pytest.raises(ScenarioValidationError) as info:
            ScenarioFamily.from_json("{not json")
        assert info.value.errors == [
            "family: not valid JSON (Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1))"
        ]

    def test_load_spec_tells_family_from_scenario(self, tmp_path):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(_family().to_json())
        scen_path = tmp_path / "scen.json"
        scen_path.write_text(json.dumps(_BASE))
        assert load_spec(fam_path).to_dict() == _family().to_dict()
        assert isinstance(load_spec(scen_path), ThermalScenario)
        with pytest.raises(ScenarioValidationError, match="cannot read scenario"):
            load_spec(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Conditioning
# ----------------------------------------------------------------------
class TestConditioning:
    def test_vector_layout(self):
        family = _family()
        assert family.conditioning_dim == 5  # 2 htc_range axes * 2 + bias
        vec = family.conditioning_vector(family.member(0))
        assert vec.shape == (5,)
        assert vec[-1] == 1.0
        assert np.all(vec >= -1e-9) and np.all(vec <= 1.0 + 1e-9)
        other = family.conditioning_vector(family.member(1))
        assert not np.array_equal(vec, other)

    def test_member_setup_wraps_inputs_and_appends_conditioning(self):
        from repro.core.encoding import ScenarioConditioningInput

        family = _family()
        compiled = family.compile()
        setup = compiled.member_setup(family.holdout(0))
        inputs = setup.model.inputs
        assert len(inputs) == 3  # 2 wrapped htc inputs + conditioning
        assert all(isinstance(i, FamilyEncodedInput) for i in inputs[:-1])
        conditioning = inputs[-1]
        assert isinstance(conditioning, ScenarioConditioningInput)
        # Inert in the physics loss: no residual, no boundary face.
        assert conditioning.residual_kind == "none"
        assert conditioning.face is None

    def test_encoded_input_samples_member_encodes_envelope(self):
        family = _family()
        compiled = family.compile()
        setup = compiled.member_setup(family.member(0))
        wrapped = setup.model.inputs[0]
        member_raw = wrapped.sample(np.random.default_rng(3), 4)
        # Sampling follows the member's (narrow) range...
        lo = float(setup.scenario.inputs[0].low)
        hi = float(setup.scenario.inputs[0].high)
        assert np.all(member_raw >= lo) and np.all(member_raw <= hi)
        # ...while encoding normalizes against the family envelope, so
        # one trunk serves every member.
        envelope_input = compiled.envelope_inputs[0]
        assert np.array_equal(wrapped.encode(member_raw),
                              envelope_input.encode(member_raw))


# ----------------------------------------------------------------------
# Trainer
# ----------------------------------------------------------------------
class TestFamilyTraining:
    def test_empty_setup_rejected(self):
        family = _family()
        compiled = family.compile()
        empty = FamilySetup(family=family, net=compiled.net,
                            envelope_inputs=compiled.envelope_inputs,
                            members=[])
        with pytest.raises(ValueError, match="at least one"):
            empty.make_trainer()

    def test_run_round_robins_members(self):
        compiled = _family().compile()
        seen = []
        trainer = compiled.make_trainer()
        trainer.config.iterations = 4
        trainer.config.log_every = 1

        def record(iteration, total, parts):
            seen.append(iteration)
            assert np.isfinite(total)

        history = trainer.run(callback=record)
        assert seen == [0, 1, 2, 3]
        assert np.all(np.isfinite(history.total_loss))

    @pytest.mark.parametrize("kind", ["scenario", "family"])
    def test_advance_matches_single_run(self, kind):
        def compile_subject():
            if kind == "family":
                return _family().compile()
            return ThermalScenario.from_dict(json.loads(json.dumps(_BASE))).compile()

        one_shot = compile_subject()
        trainer = one_shot.make_trainer()
        trainer.config.iterations = 6
        full = trainer.run()
        reference = [p.data.copy() for p in one_shot.model.net.parameters()]

        chunked = compile_subject()
        trainer = chunked.make_trainer()
        trainer.config.iterations = 6
        trainer.advance(2)
        history = trainer.advance(4)
        for left, right in zip(reference, chunked.model.net.parameters()):
            assert np.array_equal(left, right.data)
        assert history.iterations == full.iterations
        assert history.total_loss == full.total_loss

    def test_checkpoint_resume_is_bitwise(self, tmp_path):
        snapshot = tmp_path / "fam_state.npz"
        one_shot = _family().compile()
        trainer = one_shot.make_trainer()
        trainer.config.iterations = 6
        trainer.run()
        reference = [p.data.copy() for p in one_shot.net.parameters()]

        # "Interrupted" run: snapshots every 2 iterations, dies at 4.
        partial = _family().compile()
        trainer = partial.make_trainer()
        trainer.config.iterations = 4
        trainer.config.checkpoint_every = 2
        trainer.run(checkpoint_path=snapshot)
        assert snapshot.exists()

        resumed = _family().compile()
        trainer = resumed.make_trainer()
        trainer.config.iterations = 6
        trainer.config.checkpoint_every = 2
        trainer.run(checkpoint_path=snapshot, resume=True)
        for left, right in zip(reference, resumed.net.parameters()):
            assert np.array_equal(left, right.data)

    def test_wrong_family_snapshot_rejected(self, tmp_path):
        snapshot = tmp_path / "fam_state.npz"
        small = _family().compile()
        trainer = small.make_trainer()
        trainer.config.iterations = 4
        trainer.config.checkpoint_every = 2
        trainer.run(checkpoint_path=snapshot)

        bigger = _family_dict()
        bigger["base"]["network"]["trunk_hidden"] = [10, 10]
        other = ScenarioFamily.from_dict(bigger).compile()
        trainer = other.make_trainer()
        trainer.config.iterations = 6
        trainer.config.checkpoint_every = 2
        with pytest.raises(CheckpointCorrupt):
            trainer.run(checkpoint_path=snapshot, resume=True)


# ----------------------------------------------------------------------
# Service + registry lineage
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path):
    with ThermalService(cache_dir=tmp_path / "cache") as svc:
        yield svc


class TestServiceFamily:
    def test_train_family_then_registry_hit(self, service):
        family = _family()
        first = service.train_family(family)
        assert not first.from_cache
        assert first.checkpoint_path.exists()
        assert service.registry.family_spec_path(family).exists()
        second = service.train_family(family)
        assert second.from_cache

    def test_family_spec_survives_process_restart(self, service):
        family = _family()
        service.train_family(family)
        fresh = ThermalService(cache_dir=service.registry.root)
        try:
            hit = fresh.registry.find_family_ancestor(family.holdout(0))
            assert hit is not None
            ancestor, checkpoint = hit
            assert ancestor.content_digest() == family.content_digest()
            assert checkpoint.exists()
        finally:
            fresh.close()

    def test_predict_member_on_holdout(self, service):
        family = _family()
        service.train_family(family)
        holdout = family.holdout(0)
        raws = service.sample_designs(holdout, 2, seed=3)
        designs = [{k: v[i] for k, v in raws.items()} for i in range(2)]
        result = service.predict_member(family, holdout, designs)
        assert result.peaks.shape == (2,)
        assert np.all(np.isfinite(result.fields))

    def test_predict_member_rejects_uncovered(self, service):
        family = _family()
        service.train_family(family)
        outside = family.holdout(0)
        outside.inputs[0].low = 10.0
        with pytest.raises(ValueError):
            service.predict_member(family, outside, [])

    def test_fine_tune_records_lineage(self, service):
        family = _family()
        holdout = family.holdout(0)
        result = service.fine_tune(holdout, from_family=family, iterations=3)
        assert not result.from_cache
        assert result.checkpoint_path.name.endswith(".ft.npz")
        chain = service.lineage(holdout)
        assert [entry["parent_digest"] for entry in chain] == [
            family.content_digest(), None]
        assert chain[0]["digest"] == holdout.content_digest()
        # The fine-tuned slot never shadows the plain registry slot.
        assert service.registry.find(holdout) is None

    def test_fine_tune_cache_hit_across_restart(self, service):
        family = _family()
        holdout = family.holdout(0)
        service.fine_tune(holdout, from_family=family, iterations=3)
        fresh = ThermalService(cache_dir=service.registry.root)
        try:
            again = fresh.fine_tune(holdout, from_family=family, iterations=3)
            assert again.from_cache
            assert len(fresh.lineage(holdout)) == 2
        finally:
            fresh.close()

    def test_fine_tune_rejects_uncovered_scenario(self, service):
        family = _family()
        outside = family.holdout(0)
        outside.inputs[1].high = 9000.0
        with pytest.raises(ValueError):
            service.fine_tune(outside, from_family=family)

    def test_exact_checkpoint_beats_family_ancestor(self, service):
        from repro.serve import ThermalServer

        family = _family()
        service.train_family(family)
        member = family.member(0)
        member.training.iterations = 3
        server = ThermalServer(service=service)
        # No exact checkpoint: routes to the covering family.
        assert server._route_for(member) == family.content_digest()
        service.train(member)
        fresh_server = ThermalServer(service=service)
        assert fresh_server._route_for(member) is None

    def test_lineage_rejects_missing_parent(self, service):
        scenario = ThermalScenario.from_dict(json.loads(json.dumps(_BASE)))
        scenario.training.iterations = 2
        setup = service.setup(scenario)
        service.registry.save(scenario, setup.model,
                              parent_digest="f00d" * 16)
        with pytest.raises(CheckpointCorrupt, match="missing"):
            service.lineage(scenario)

    def test_lineage_rejects_cycle(self, service):
        scenario = ThermalScenario.from_dict(json.loads(json.dumps(_BASE)))
        scenario.training.iterations = 2
        setup = service.setup(scenario)
        service.registry.save(scenario, setup.model,
                              parent_digest=scenario.content_digest())
        with pytest.raises(CheckpointCorrupt, match="cycl"):
            service.lineage(scenario)

    def test_plain_checkpoints_have_no_lineage_parent(self, service):
        scenario = ThermalScenario.from_dict(json.loads(json.dumps(_BASE)))
        scenario.training.iterations = 2
        service.train(scenario)
        chain = service.lineage(scenario)
        assert len(chain) == 1
        assert chain[0]["parent_digest"] is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFamilyCli:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR",
                            tmp_path / "cache")
        return tmp_path

    def _write_family(self, tmp_path) -> Path:
        path = tmp_path / "family.json"
        path.write_text(_family().to_json())
        return path

    def test_validate_config_routes_family_json(self, cache, capsys):
        from repro.cli import main

        path = self._write_family(cache)
        assert main(["validate-config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "family: fam_test" in out

    def test_family_train_and_finetune_commands(self, cache, capsys):
        from repro.cli import main

        fam_path = self._write_family(cache)
        assert main(["family", "train", "--config", str(fam_path),
                     "--quiet"]) == 0
        assert "trained" in capsys.readouterr().out

        family = _family()
        holdout_path = cache / "holdout.json"
        holdout_path.write_text(family.holdout(0).to_json())
        assert main(["finetune", "--config", str(holdout_path),
                     "--family", str(fam_path), "--iterations", "2",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fine-tuned" in out
        assert "lineage:" in out

    def test_info_json_reports_lineage(self, cache, capsys):
        from repro.cli import main

        fam_path = self._write_family(cache)
        family = _family()
        holdout_path = cache / "holdout.json"
        holdout_path.write_text(family.holdout(0).to_json())
        assert main(["family", "train", "--config", str(fam_path),
                     "--quiet"]) == 0
        assert main(["finetune", "--config", str(holdout_path),
                     "--family", str(fam_path), "--iterations", "2",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["info", "--json", "--config", str(holdout_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "family" in payload["commands"]
        report = payload["config"]
        assert report["kind"] == "scenario"
        assert report["checkpoint"].endswith(".ft.npz")
        parents = [e["parent_digest"] for e in report["lineage"]]
        assert parents == [family.content_digest(), None]
