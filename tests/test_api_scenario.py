"""Tests for the declarative scenario spec (:mod:`repro.api.scenario`)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    SCHEMA_VERSION,
    ScenarioValidationError,
    ThermalScenario,
    scenario_experiment_b,
    scenario_for,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"

FAMILIES = ["a", "b", "volumetric", "transient"]


def _assert_same_setup(left, right):
    """Two compiled setups must be bitwise-equivalent."""
    for (na, pa), (nb, pb) in zip(
        left.model.net.named_parameters(), right.model.net.named_parameters()
    ):
        assert na == nb
        assert np.array_equal(pa.data, pb.data), na
    assert np.array_equal(
        left.model.net.trunk.fourier.frequencies.data,
        right.model.net.trunk.fourier.frequencies.data,
    )
    assert left.name == right.name
    assert left.scale == right.scale
    assert left.description == right.description
    assert left.trainer_config == right.trainer_config
    assert left.eval_grid.shape == right.eval_grid.shape
    assert type(left.plan) is type(right.plan)
    assert (left.model.transient is None) == (right.model.transient is None)
    if left.model.transient is not None:
        assert left.model.transient == right.model.transient


class TestRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_json_round_trip_is_lossless(self, family):
        scenario = scenario_for(family, scale="test")
        restored = ThermalScenario.from_json(scenario.to_json())
        assert restored.to_dict() == scenario.to_dict()
        assert restored.content_digest() == scenario.content_digest()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_compiles_identically(self, family):
        scenario = scenario_for(family, scale="test")
        restored = ThermalScenario.from_json(scenario.to_json())
        _assert_same_setup(scenario.compile(), restored.compile())

    def test_file_round_trip(self, tmp_path):
        scenario = scenario_for("a", scale="test")
        path = tmp_path / "scenario.json"
        scenario.to_json(path)
        restored = ThermalScenario.from_json(path)
        assert restored.content_digest() == scenario.content_digest()


class TestLegacyParity:
    """``scenario_for`` and the shipped JSONs build the builders' scenarios."""

    def test_factory_kwargs_flow_through(self):
        kwargs = dict(htc_range=(250.0, 1250.0), seed=5, aligned=False)
        direct = scenario_experiment_b(scale="test", **kwargs)
        routed = scenario_for("b", scale="test", **kwargs)
        assert routed.content_digest() == direct.content_digest()
        _assert_same_setup(direct.compile(), routed.compile())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_shipped_scenario_files_match_builders(self, family):
        name = scenario_for(family, scale="test").name
        shipped = ThermalScenario.from_json(SCENARIO_DIR / f"{name}_test.json")
        assert shipped.content_digest() == \
            scenario_for(family, scale="test").content_digest()


class TestSchemaRejection:
    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioValidationError, match="schema_version"):
            ThermalScenario.from_dict({"schema_version": SCHEMA_VERSION + 1,
                                       "name": "x"})

    def test_missing_schema_version(self):
        with pytest.raises(ScenarioValidationError, match="schema_version"):
            ThermalScenario.from_dict({"name": "x"})

    def test_unknown_top_level_field(self):
        data = scenario_for("a", scale="test").to_dict()
        data["turbo_mode"] = True
        with pytest.raises(ScenarioValidationError, match="turbo_mode"):
            ThermalScenario.from_dict(data)

    def test_unknown_nested_field(self):
        data = scenario_for("a", scale="test").to_dict()
        data["geometry"]["flux_capacitor"] = 1.21
        with pytest.raises(ScenarioValidationError, match="flux_capacitor"):
            ThermalScenario.from_dict(data)

    def test_missing_name(self):
        data = scenario_for("a", scale="test").to_dict()
        del data["name"]
        with pytest.raises(ScenarioValidationError, match="name"):
            ThermalScenario.from_dict(data)

    def test_errors_are_collected_not_first_only(self):
        data = scenario_for("a", scale="test").to_dict()
        del data["name"]
        data["network"]["q"] = 0
        data["training"]["iterations"] = 0
        with pytest.raises(ScenarioValidationError) as excinfo:
            ThermalScenario.from_dict(data)
        assert len(excinfo.value.errors) >= 3

    def test_non_integer_widths_are_collected_not_raised(self):
        data = scenario_for("a", scale="test").to_dict()
        data["network"]["trunk_hidden"] = ["wide", 8]
        data["network"]["branch_hidden"] = [["x", 4]]
        with pytest.raises(ScenarioValidationError) as excinfo:
            ThermalScenario.from_dict(data)
        text = " ".join(excinfo.value.errors)
        assert "trunk_hidden" in text and "branch_hidden[0]" in text

    def test_unknown_activation_rejected(self):
        data = scenario_for("a", scale="test").to_dict()
        data["network"]["activation"] = "rleu"
        with pytest.raises(ScenarioValidationError, match="rleu"):
            ThermalScenario.from_dict(data)

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioValidationError, match="invalid JSON"):
            ThermalScenario.from_json("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioValidationError, match="cannot read"):
            ThermalScenario.from_json(tmp_path / "nope.json")

    def test_non_finite_json_literals_rejected(self):
        # Python's json reads NaN / Infinity; the spec must not.
        text = scenario_for("a", scale="test").to_json()
        text = text.replace('"t_ambient": 298.15', '"t_ambient": NaN')
        text = text.replace('"dt_ref": 10.0', '"dt_ref": Infinity')
        with pytest.raises(ScenarioValidationError) as info:
            ThermalScenario.from_json(text)
        assert info.value.errors == [
            "t_ambient: expected a finite number, got nan",
            "dt_ref: expected a finite number, got inf",
        ]


class TestValidationRules:
    def test_transient_input_requires_section(self):
        scenario = scenario_for("transient", scale="test")
        scenario.transient = None
        errors = " ".join(scenario.validate())
        assert "transient" in errors

    def test_transient_section_requires_input(self):
        scenario = scenario_for("a", scale="test")
        from repro.api import TransientSectionSpec

        scenario.transient = TransientSectionSpec()
        errors = " ".join(scenario.validate())
        assert "transient_power_map" in errors

    def test_branch_count_must_match_inputs(self):
        scenario = scenario_for("b", scale="test")
        scenario.network.branch_hidden = ((12, 12),)  # two inputs, one stack
        assert any("branch_hidden" in e for e in scenario.validate())

    def test_ill_posed_all_adiabatic(self):
        scenario = scenario_for("a", scale="test")
        scenario.boundaries = {}
        assert any("ill-posed" in e for e in scenario.validate())

    def test_unknown_input_family(self):
        data = scenario_for("a", scale="test").to_dict()
        data["inputs"][0]["family"] = "antigravity"
        with pytest.raises(ScenarioValidationError, match="antigravity"):
            ThermalScenario.from_dict(data)

    def test_misspelt_loss_weight_is_rejected_not_ignored(self):
        scenario = scenario_for("b", scale="test")
        scenario.loss_weights = {"bc:top": 30.0}
        with pytest.raises(ScenarioValidationError, match="'bc:top'"):
            scenario.compile()

    def test_ic_weight_needs_a_transient_section(self):
        assert scenario_for("transient", scale="test").loss_weights == {"ic": 4.0}
        assert scenario_for("transient", scale="test").validate() == []
        scenario = scenario_for("a", scale="test")
        scenario.loss_weights = {"ic": 4.0, "pde": 1.0}
        assert scenario.validate() == [
            "loss_weights: unknown component 'ic' (known: pde, bc:XMIN, "
            "bc:XMAX, bc:YMIN, bc:YMAX, bc:BOTTOM, bc:TOP)"
        ]

    def test_compile_raises_on_invalid(self):
        scenario = scenario_for("a", scale="test")
        scenario.network.q = 0
        with pytest.raises(ScenarioValidationError):
            scenario.compile()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scenario_for("a", scale="huge")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            scenario_for("z")


class TestContentDigest:
    def test_labels_do_not_change_digest(self):
        scenario = scenario_for("a", scale="test")
        digest = scenario.content_digest()
        scenario.name = "renamed"
        scenario.description = "something else"
        scenario.scale = "whatever"
        assert scenario.content_digest() == digest

    def test_physics_changes_change_digest(self):
        base = scenario_for("a", scale="test").content_digest()
        assert scenario_for("a", scale="test",
                            htc_bottom=501.0).content_digest() != base
        assert scenario_for("a", scale="test",
                            conductivity=0.2).content_digest() != base

    def test_training_budget_changes_digest(self):
        scenario = scenario_for("a", scale="test")
        base = scenario.content_digest()
        scenario.training.iterations += 1
        assert scenario.content_digest() != base

    def test_trace_family_changes_digest(self):
        left = scenario_for("transient", scale="test")
        right = scenario_for("transient", scale="test")
        right.inputs[0].traces.kinds = ("periodic",)
        assert left.content_digest() != right.content_digest()

    def test_digest_is_stable_across_serialization(self):
        scenario = scenario_for("b", scale="test")
        dumped = json.loads(scenario.to_json())
        restored = ThermalScenario.from_dict(dumped)
        assert restored.content_digest() == scenario.content_digest()


class TestNovelScenarios:
    """Shipped no-code scenarios parse, validate and compile."""

    @pytest.mark.parametrize("filename", [
        "chiplet_htc_wide.json",
        "clock_burst_transient.json",
    ])
    def test_novel_scenario_compiles(self, filename):
        scenario = ThermalScenario.from_json(SCENARIO_DIR / filename)
        setup = scenario.compile()
        assert setup.model.net.num_parameters() > 0

    def test_every_shipped_scenario_is_valid(self):
        from repro.family import load_spec

        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 6
        for path in files:
            assert load_spec(path).validate() == []
