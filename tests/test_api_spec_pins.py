"""Identity and error-message pins for the scenario and family specs.

The content digest keys the checkpoint registry and ``to_json`` is the
text ``repro`` writes next to every checkpoint, so both are pinned here
byte for byte: a change to either orphans every trained model.  The
golden corpus pins the ``ScenarioValidationError.errors`` of broken
specs, one or more defects per section: every message byte for byte,
and their order within each section.  The order *between* sections
follows the parser's walk and is not part of the contract.
"""

import copy
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.api import (
    ScenarioValidationError,
    ThermalScenario,
    preset_inventory,
    scenario_for,
)
from repro.family import ScenarioFamily

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def _pin(spec):
    """``(content_digest, sha256 of to_json)`` of a scenario or family."""
    text = spec.to_json().encode()
    return spec.content_digest(), hashlib.sha256(text).hexdigest()


def _load(filename):
    text = (SCENARIO_DIR / filename).read_text()
    if "family_schema_version" in text:
        return ScenarioFamily.from_json(text)
    return ThermalScenario.from_json(text)


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
SHIPPED = {
    "chiplet_htc_wide.json": (
        "9b7708d8ed98b21e9746f515e4b1da3e97ece6fdbbf546f8316e678fc43f56b7",
        "1de2ef229a8aaecaa8107aa4d1fdd7f8e7afa268993976a4d434bbed6ff64b55",
    ),
    "clock_burst_transient.json": (
        "806c6e28bcc91ef04202b061c900da4cb90902a85d7960c860b30fac70bc4721",
        "e530478deda8bec6680ddf612452b5eebb5512c0d949dd77228d0ee36f0204e6",
    ),
    "experiment_a_test.json": (
        "c984740ce42ec5d6092a4797b08e6e81996ab53a693b7672a2ce34390d0fbb6f",
        "a4103472d05eeaa3d638631108796f92fff56b367222ebb11344d63b685e2ecd",
    ),
    "experiment_b_test.json": (
        "b8e0279aa8ce030ab096d84d1b5257d55aac9b0e9ad059adbb2e64c697f5f433",
        "5cc00ac3717187fc514d4c70549d35189e4d66f17cf0220c561e8b00fe751d1e",
    ),
    "experiment_transient_test.json": (
        "a09f96c3f9b527a7137a6b88c532bb158c572d7ffbbd9b3bad4507ff29c99924",
        "581b81bf0f8a3e614c0280037b79a5bfe5268dca3ba7cbd8694aef2e8ea2547d",
    ),
    "experiment_volumetric_test.json": (
        "cef1082a8803bee27caad97c0456655c2d471cf59033aa8ff526ca3a71bc4ec8",
        "c76e1d632f3730c522ca519c67868874ebb236affef2a78ecf4535800a22458d",
    ),
    "family_htc_sweep.json": (
        "4cb9ced2f2fa9648ea50907864e0fab8865c86b7380b65323a4969f1afef6bde",
        "c76b8f9cbba06c2ec05bd14aa3053771e26f30e3ac5226dff3a9471daa62c4d6",
    ),
}

PRESETS = {
    ("a", "ci"): (
        "8e8706ba92c0b58d4a85d9416956214b286b159e08337c4577b1dea7c6ed0c04",
        "9fd72edec18b19fe31a21e6e1d2f870bc387720b4d04a6c140072195521c6664",
    ),
    ("a", "paper"): (
        "4932496833b8362491704941095e0673270cde4973766ac3095dbf9dfb511b39",
        "1a0885a7726db868823c5fbe47b15539a89e4617328d8c82eb94335e140cade4",
    ),
    ("a", "test"): (
        "c984740ce42ec5d6092a4797b08e6e81996ab53a693b7672a2ce34390d0fbb6f",
        "a4103472d05eeaa3d638631108796f92fff56b367222ebb11344d63b685e2ecd",
    ),
    ("b", "ci"): (
        "f0aa54c4aacd724a4c54c27959c0dbc4a0936373cc6f34bc68b6a01c7ffb6e17",
        "7dba2c6c80bfee31ccb0a147432765773240f398511426171e78d443504432a4",
    ),
    ("b", "paper"): (
        "82afa38ce6d0840a6a0126a0addee3d0ecd4cf3c498b5ac98c518a599385c83c",
        "f604aded1de619b7ae66450dd8ce478976a697c11d62187a3ce3b15ab43d6424",
    ),
    ("b", "test"): (
        "b8e0279aa8ce030ab096d84d1b5257d55aac9b0e9ad059adbb2e64c697f5f433",
        "5cc00ac3717187fc514d4c70549d35189e4d66f17cf0220c561e8b00fe751d1e",
    ),
    ("volumetric", "ci"): (
        "ccced7de7e43044a2a7846e353d3dcf4e74c36536f5a82de2fafebf01a5813dc",
        "7415935c817849393c412229d8ce8b7b92e829f1d486493406425f6c9939212f",
    ),
    ("volumetric", "test"): (
        "cef1082a8803bee27caad97c0456655c2d471cf59033aa8ff526ca3a71bc4ec8",
        "c76e1d632f3730c522ca519c67868874ebb236affef2a78ecf4535800a22458d",
    ),
    ("transient", "ci"): (
        "61b923a18f90dacd6abd7ff2d60ff3353bfb1a0e898aaaa27786c37d1c749ee0",
        "436b405780218c1e16e5d49a2ad25124493856b95346b77ef475d2ff6b40c415",
    ),
    ("transient", "test"): (
        "a09f96c3f9b527a7137a6b88c532bb158c572d7ffbbd9b3bad4507ff29c99924",
        "581b81bf0f8a3e614c0280037b79a5bfe5268dca3ba7cbd8694aef2e8ea2547d",
    ),
}

FAMILY_HTC_SWEEP = {
    "family": (
        "4cb9ced2f2fa9648ea50907864e0fab8865c86b7380b65323a4969f1afef6bde",
        "c76b8f9cbba06c2ec05bd14aa3053771e26f30e3ac5226dff3a9471daa62c4d6",
    ),
    "member0": (
        "fec0476628b36376bf822e04616b59242958f2777aea49931b869beb03a1f0f8",
        "9dbc3b4a95bfe1b5c81eaaecaa31cb6127e3a82a9e1bb7b9589389989f3e6c80",
    ),
    "member1": (
        "b1aceddc735b89ba08da1fa8a51ec482b933dc2b20156c8a60ca1dfa974b2e11",
        "fd92dac0af7ec07fced7a1dc82f806b7ca1f98cef50c99e958e25caf3d1950a5",
    ),
    "member2": (
        "7a3f66cd357d42012a1f1a962d4c2a1cd041047cc9f79534262902b520ae6b6f",
        "24a41f1a761677428ac6aa745318b737d8c20b828c218582625e8dc834cc3514",
    ),
    "member3": (
        "81bfb4da0d1d40843e4e5379f227fa8ab5727a9ef07755bbe7edb8c177adb1ad",
        "b6e6cdcf466ac91f90b159af59d49234f5bc38af2fc9b455c5b19d6b880b2c5c",
    ),
    "holdout0": (
        "8c673a7e900a421fc9dc8ef3264d68673507c723bde47595377a3632c91cb139",
        "97b4e9ea7d79a7874e115ef2af9735166a652e2c21750d7c18533e78c0c145f8",
    ),
    "envelope": (
        "9b7708d8ed98b21e9746f515e4b1da3e97ece6fdbbf546f8316e678fc43f56b7",
        "5b26ffb8d656707a5fd1620d21e846008a2fb69adde482e95771845c9155484d",
    ),
}


def _family_part(family, which):
    if which == "family":
        return family
    if which == "envelope":
        return family.envelope()
    if which == "holdout0":
        return family.holdout(0)
    return family.member(int(which[len("member") :]))


class TestIdentityPins:
    def test_every_shipped_file_is_pinned(self):
        assert sorted(SHIPPED) == sorted(p.name for p in SCENARIO_DIR.glob("*.json"))

    @pytest.mark.parametrize("filename", sorted(SHIPPED))
    def test_shipped_spec(self, filename):
        assert _pin(_load(filename)) == SHIPPED[filename]

    def test_every_preset_is_pinned(self):
        listed = {
            (name, scale)
            for name, entry in preset_inventory().items()
            for scale in entry["scales"]
        }
        assert listed == set(PRESETS)

    @pytest.mark.parametrize("name,scale", sorted(PRESETS))
    def test_preset(self, name, scale):
        assert _pin(scenario_for(name, scale)) == PRESETS[(name, scale)]

    @pytest.mark.parametrize("which", sorted(FAMILY_HTC_SWEEP))
    def test_family_htc_sweep(self, which):
        family = _load("family_htc_sweep.json")
        assert _pin(_family_part(family, which)) == FAMILY_HTC_SWEEP[which]


# ----------------------------------------------------------------------
# Golden corpus of broken specs
# ----------------------------------------------------------------------
DROP = object()
NAN = float("nan")
INF = float("inf")

A = "experiment_a_test.json"
B = "experiment_b_test.json"
T = "experiment_transient_test.json"
V = "experiment_volumetric_test.json"
F = "family_htc_sweep.json"

HTC_MAP = {
    "family": "htc_map",
    "name": "htc_map_bottom",
    "face": "bottom",
    "map_shape": [4, 4],
    "low": 200.0,
    "high": 900.0,
    "grf": {"length_scale": 0.3, "variance": 1.0, "transform": "none"},
}
DIRICHLET = {"family": "dirichlet", "face": "bottom", "low": 300.0, "high": 320.0}
CONDUCTIVITY_AXIS = {"kind": "conductivity", "low": 0.1, "high": 0.2}

# (id, base file or literal document, [(path, value), ...]); a DROP
# value deletes the key.  Family paths start at the family document.
CORPUS = [
    # -- top level ------------------------------------------------------
    ("top.not_object", ["a"], []),
    ("top.unknown_key", A, [(("colour",), "red")]),
    ("top.wrong_version", A, [(("schema_version",), 2)]),
    ("top.missing_version", A, [(("schema_version",), DROP)]),
    ("top.name_missing", A, [(("name",), DROP)]),
    ("top.name_wrong_type", A, [(("name",), 5)]),
    ("top.name_empty", A, [(("name",), "")]),
    ("top.t_ambient_type", A, [(("t_ambient",), "hot")]),
    ("top.dt_ref_bool", A, [(("dt_ref",), True)]),
    ("top.dt_ref_negative", A, [(("dt_ref",), -1.0)]),
    ("top.seed_float", A, [(("seed",), 1.5)]),
    ("top.eval_grid_length", A, [(("eval_grid",), [13, 13])]),
    ("top.eval_grid_type", A, [(("eval_grid",), "fine")]),
    ("top.eval_grid_small", A, [(("eval_grid",), [1, 13, 9])]),
    ("top.inputs_not_list", A, [(("inputs",), {"family": "power_map"})]),
    ("top.inputs_empty", A, [(("inputs",), [])]),
    (
        "top.several",
        A,
        [
            (("colour",), "red"),
            (("name",), DROP),
            (("network", "q"), "x"),
            (("training", "iterations"), 0),
            (("eval_grid",), [13]),
        ],
    ),
    # -- geometry -------------------------------------------------------
    ("geometry.not_object", A, [(("geometry",), 3)]),
    ("geometry.unknown_key", A, [(("geometry", "rotation"), 0)]),
    ("geometry.size_length", A, [(("geometry", "size_mm"), [1.0, 1.0])]),
    ("geometry.size_type", A, [(("geometry", "size_mm"), ["a", 1.0, 1.0])]),
    ("geometry.size_negative", A, [(("geometry", "size_mm"), [1.0, -1.0, 0.5])]),
    ("geometry.origin_bool", A, [(("geometry", "origin_mm"), [True, 0, 0])]),
    # -- material -------------------------------------------------------
    ("material.not_object", A, [(("material",), "copper")]),
    ("material.unknown_key", A, [(("material", "density"), 1.0)]),
    ("material.conductivity_type", A, [(("material", "conductivity"), "x")]),
    ("material.conductivity_negative", A, [(("material", "conductivity"), -1)]),
    ("material.unknown_kind", A, [(("material", "kind"), "layered")]),
    ("material.kind_null", A, [(("material", "kind"), None)]),
    # -- boundaries -----------------------------------------------------
    ("boundaries.not_object", A, [(("boundaries",), [])]),
    ("boundaries.unknown_face", A, [(("boundaries", "left"), {"kind": "adiabatic"})]),
    ("boundaries.face_not_object", A, [(("boundaries", "bottom"), "cold")]),
    ("boundaries.unknown_key", A, [(("boundaries", "bottom", "emissivity"), 0.9)]),
    ("boundaries.unknown_kind", A, [(("boundaries", "bottom", "kind"), "radiative")]),
    ("boundaries.htc_type", A, [(("boundaries", "bottom", "htc"), "high")]),
    ("boundaries.convection_no_htc", A, [(("boundaries", "bottom", "htc"), DROP)]),
    (
        "boundaries.dirichlet_no_temperature",
        A,
        [(("boundaries", "bottom"), {"kind": "dirichlet"})],
    ),
    ("boundaries.ill_posed", A, [(("boundaries", "bottom"), {"kind": "adiabatic"})]),
    # -- volumetric_source ---------------------------------------------
    ("source.not_object", B, [(("volumetric_source",), [])]),
    ("source.unknown_key", B, [(("volumetric_source", "shape"), "slab")]),
    ("source.power_type", B, [(("volumetric_source", "total_power"), "x")]),
    ("source.thickness_zero", B, [(("volumetric_source", "thickness_mm"), 0)]),
    ("source.unknown_kind", B, [(("volumetric_source", "kind"), "point")]),
    # -- inputs: tags and the power_map family --------------------------
    ("input.not_object", A, [(("inputs", 0), "power")]),
    ("input.unknown_family", A, [(("inputs", 0, "family"), "laser")]),
    ("input.missing_family", A, [(("inputs", 0, "family"), DROP)]),
    ("input.family_type", A, [(("inputs", 0, "family"), 3)]),
    ("input.unknown_key", A, [(("inputs", 0, "low"), 1.0)]),
    ("input.map_shape_length", A, [(("inputs", 0, "map_shape"), [7, 7, 7])]),
    ("input.map_shape_type", A, [(("inputs", 0, "map_shape"), [7.5, 7])]),
    ("input.map_shape_missing", A, [(("inputs", 0, "map_shape"), DROP)]),
    ("input.map_shape_small", A, [(("inputs", 0, "map_shape"), [1, 7])]),
    ("input.face_side", A, [(("inputs", 0, "face"), "xmin")]),
    ("input.face_unknown", A, [(("inputs", 0, "face"), "sideways")]),
    ("input.unit_flux_type", A, [(("inputs", 0, "unit_flux"), "x")]),
    ("input.name_empty", A, [(("inputs", 0, "name"), "")]),
    # -- inputs: htc, htc_map, dirichlet --------------------------------
    ("htc.low_type", B, [(("inputs", 0, "low"), "x")]),
    ("htc.low_above_high", B, [(("inputs", 0, "low"), 2000.0)]),
    ("htc.unknown_key", B, [(("inputs", 0, "grf"), {})]),
    ("htc.duplicate_names", B, [(("inputs", 1, "face"), "top")]),
    ("htc_map.map_shape_length", B, [(("inputs", 1), dict(HTC_MAP, map_shape=[4]))]),
    ("htc_map.side_face", B, [(("inputs", 1), dict(HTC_MAP, face="ymax"))]),
    ("htc_map.unknown_key", B, [(("inputs", 1), dict(HTC_MAP, unit_flux=1.0))]),
    ("dirichlet.low_above_high", B, [(("inputs", 1), dict(DIRICHLET, low=400.0))]),
    ("dirichlet.unknown_key", B, [(("inputs", 1), dict(DIRICHLET, map_shape=[2, 2]))]),
    # -- inputs: volumetric_power_map -----------------------------------
    ("volumetric.map_shape_2d", V, [(("inputs", 0, "map_shape"), [4, 4])]),
    ("volumetric.map_shape_4d", V, [(("inputs", 0, "map_shape"), [4, 4, 3, 1])]),
    ("volumetric.unit_density_type", V, [(("inputs", 0, "unit_density"), "x")]),
    ("volumetric.face_key", V, [(("inputs", 0, "face"), "top")]),
    # -- inputs: transient_power_map, grf, traces -----------------------
    ("transient_input.sensors_float", T, [(("inputs", 0, "n_time_sensors"), 1.5)]),
    ("transient_input.sensors_one", T, [(("inputs", 0, "n_time_sensors"), 1)]),
    ("grf.not_object", T, [(("inputs", 0, "grf"), None)]),
    ("grf.unknown_key", T, [(("inputs", 0, "grf", "nu"), 2.5)]),
    ("grf.length_scale_type", T, [(("inputs", 0, "grf", "length_scale"), "x")]),
    ("grf.length_scale_zero", T, [(("inputs", 0, "grf", "length_scale"), 0)]),
    ("grf.unknown_transform", T, [(("inputs", 0, "grf", "transform"), "log")]),
    ("traces.not_object", T, [(("inputs", 0, "traces"), [])]),
    ("traces.unknown_key", T, [(("inputs", 0, "traces", "duty"), 0.5)]),
    ("traces.kinds_empty", T, [(("inputs", 0, "traces", "kinds"), [])]),
    ("traces.kinds_unknown", T, [(("inputs", 0, "traces", "kinds"), ["zigzag"])]),
    ("traces.weights_length", T, [(("inputs", 0, "traces", "weights"), [1, 2])]),
    ("traces.weights_type", T, [(("inputs", 0, "traces", "weights"), ["a", 1, 1])]),
    ("traces.level_order", T, [(("inputs", 0, "traces", "level_range"), [1.4, 0.2])]),
    ("traces.level_length", T, [(("inputs", 0, "traces", "level_range"), [1.0])]),
    (
        "traces.several",
        T,
        [
            (("inputs", 0, "traces", "kinds"), "step"),
            (("inputs", 0, "traces", "weights"), [1.0, 2.0]),
            (("inputs", 0, "traces", "level_range"), "wide"),
            (("inputs", 0, "grf", "variance"), "x"),
        ],
    ),
    # -- network --------------------------------------------------------
    ("network.not_object", A, [(("network",), [24])]),
    ("network.unknown_key", A, [(("network", "dropout"), 0.1)]),
    ("network.branch_not_list", A, [(("network", "branch_hidden"), "x")]),
    ("network.branch_empty", A, [(("network", "branch_hidden"), [])]),
    ("network.branch_width_type", A, [(("network", "branch_hidden"), [[12, "a"]])]),
    ("network.branch_count", A, [(("network", "branch_hidden"), [[12], [12]])]),
    ("network.branch_width_zero", A, [(("network", "branch_hidden"), [[0, 12]])]),
    ("network.trunk_empty", A, [(("network", "trunk_hidden"), [])]),
    ("network.trunk_type", A, [(("network", "trunk_hidden"), "wide")]),
    ("network.q_float", A, [(("network", "q"), 1.5)]),
    ("network.q_zero", A, [(("network", "q"), 0)]),
    ("network.frequencies_type", A, [(("network", "fourier_frequencies"), "x")]),
    ("network.fourier_std_zero", A, [(("network", "fourier_std"), 0)]),
    ("network.unknown_activation", A, [(("network", "activation"), "gelu2")]),
    # -- collocation ----------------------------------------------------
    ("collocation.not_object", A, [(("collocation",), "mesh")]),
    ("collocation.unknown_kind", A, [(("collocation", "kind"), "sobol")]),
    ("collocation.missing_kind", A, [(("collocation", "kind"), DROP)]),
    ("collocation.mesh_unknown_key", A, [(("collocation", "n_interior"), 10)]),
    ("collocation.grid_length", A, [(("collocation", "grid"), [5, 5])]),
    ("collocation.grid_small", A, [(("collocation", "grid"), [1, 5, 4])]),
    ("collocation.aligned_type", B, [(("collocation", "aligned"), "yes")]),
    ("collocation.focus_length", B, [(("collocation", "focus_band"), [0.4, 0.6])]),
    ("collocation.focus_order", B, [(("collocation", "focus_band"), [0.6, 0.4, 0.3])]),
    ("collocation.interior_zero", B, [(("collocation", "n_interior"), 0)]),
    ("collocation.interior_type", B, [(("collocation", "n_interior"), "x")]),
    (
        "collocation.transient_without_section",
        A,
        [(("collocation",), {"kind": "transient"})],
    ),
    ("collocation.initial_zero", T, [(("collocation", "n_initial"), 0)]),
    ("collocation.initial_type", T, [(("collocation", "n_initial"), "x")]),
    ("collocation.random_on_transient", T, [(("collocation",), {"kind": "random"})]),
    # -- training -------------------------------------------------------
    ("training.not_object", A, [(("training",), 5)]),
    ("training.unknown_key", A, [(("training", "epochs"), 5)]),
    ("training.iterations_float", A, [(("training", "iterations"), 1.5)]),
    ("training.iterations_zero", A, [(("training", "iterations"), 0)]),
    ("training.functions_zero", A, [(("training", "n_functions"), 0)]),
    ("training.learning_rate_type", A, [(("training", "learning_rate"), "x")]),
    ("training.learning_rate_zero", A, [(("training", "learning_rate"), 0)]),
    ("training.decay_rate_type", A, [(("training", "decay_rate"), [0.9])]),
    ("training.decay_every_zero", A, [(("training", "decay_every"), 0)]),
    ("training.seed_type", A, [(("training", "seed"), "x")]),
    # -- transient section ----------------------------------------------
    ("transient.not_object", T, [(("transient",), "long")]),
    ("transient.unknown_key", T, [(("transient", "dt"), 0.1)]),
    ("transient.rho_cp_type", T, [(("transient", "rho_cp"), "x")]),
    ("transient.horizon_zero", T, [(("transient", "horizon"), 0)]),
    ("transient.ic_grid_length", T, [(("transient", "ic_grid"), [5, 5])]),
    ("transient.ic_grid_small", T, [(("transient", "ic_grid"), [1, 5, 4])]),
    ("transient.missing", T, [(("transient",), None)]),
    ("transient.without_input", A, [(("transient",), {"horizon": 2.0})]),
    # -- loss_weights ---------------------------------------------------
    ("loss_weights.not_object", A, [(("loss_weights",), [1.0])]),
    ("loss_weights.value_type", A, [(("loss_weights",), {"pde": "x"})]),
    ("loss_weights.value_bool", A, [(("loss_weights",), {"pde": True})]),
    ("loss_weights.unknown_key", B, [(("loss_weights", "bc:top"), 30.0)]),
    ("loss_weights.ic_without_transient", A, [(("loss_weights",), {"ic": 4.0})]),
    ("loss_weights.negative", B, [(("loss_weights", "bc:TOP"), -1.0)]),
    ("loss_weights.nan", B, [(("loss_weights", "pde"), NAN)]),
    # -- non-finite numbers ---------------------------------------------
    ("nonfinite.t_ambient", A, [(("t_ambient",), NAN)]),
    ("nonfinite.dt_ref", A, [(("dt_ref",), INF)]),
    ("nonfinite.huge_integer", A, [(("t_ambient",), 10**400)]),
    ("nonfinite.conductivity", A, [(("material", "conductivity"), NAN)]),
    ("nonfinite.size_mm", A, [(("geometry", "size_mm"), [NAN, 1, 0.5])]),
    ("nonfinite.htc", B, [(("boundaries", "top", "htc"), INF)]),
    ("nonfinite.input_low", B, [(("inputs", 0, "low"), -INF)]),
    ("nonfinite.focus_band", B, [(("collocation", "focus_band"), [0.4, 0.6, NAN])]),
    ("nonfinite.learning_rate", A, [(("training", "learning_rate"), NAN)]),
    ("nonfinite.trace_weights", T, [(("inputs", 0, "traces", "weights"), [1, NAN, 1])]),
    ("nonfinite.horizon", T, [(("transient", "horizon"), INF)]),
    ("axis.nonfinite_high", F, [(("axes", 0, "high"), INF)]),
    (
        "family.nonfinite_several",
        F,
        [
            (("base", "t_ambient"), NAN),
            (("base", "geometry", "origin_mm"), [0, INF, 0]),
            (("axes", 1, "member_width"), NAN),
        ],
    ),
    # -- several sections at once ----------------------------------------
    (
        "several.sections",
        A,
        [
            (("geometry", "rotation"), 0),
            (("boundaries", "left"), {"kind": "adiabatic"}),
            (("material", "conductivity"), "x"),
            (("inputs", 0, "unit_flux"), "x"),
        ],
    ),
    (
        "several.sections_and_rules",
        B,
        [
            (("t_ambient",), "hot"),
            (("geometry", "size_mm"), [1.0, 0.0, 0.5]),
            (("boundaries", "top", "kind"), "radiative"),
            (("material", "kind"), "layered"),
            (("volumetric_source", "total_power"), "x"),
            (("inputs", 1, "family"), "laser"),
            (("collocation", "aligned"), 1),
            (("training", "seed"), 0.5),
            (("loss_weights",), "heavy"),
        ],
    ),
    # -- family: top level ------------------------------------------------
    ("family.not_object", [1], []),
    ("family.wrong_version", F, [(("family_schema_version",), 2)]),
    ("family.unknown_key", F, [(("members",), 4)]),
    ("family.name_missing", F, [(("name",), DROP)]),
    ("family.name_type", F, [(("name",), ["f"])]),
    ("family.base_missing", F, [(("base",), DROP)]),
    ("family.base_not_object", F, [(("base",), "chip")]),
    ("family.base_invalid", F, [(("base", "network", "q"), "x")]),
    ("family.base_version", F, [(("base", "schema_version"), 9)]),
    ("family.axes_not_list", F, [(("axes",), {"kind": "conductivity"})]),
    ("family.axes_empty", F, [(("axes",), [])]),
    ("family.n_members_type", F, [(("n_members",), "x")]),
    ("family.n_members_zero", F, [(("n_members",), 0)]),
    ("family.sample_seed_float", F, [(("sample_seed",), 1.5)]),
    ("family.hidden_empty", F, [(("conditioning_hidden",), [])]),
    ("family.hidden_zero", F, [(("conditioning_hidden",), [16, 0])]),
    ("family.hidden_type", F, [(("conditioning_hidden",), "wide")]),
    # -- family: axes ---------------------------------------------------
    ("axis.not_object", F, [(("axes", 0), "htc")]),
    ("axis.unknown_kind", F, [(("axes", 0, "kind"), "power")]),
    ("axis.unknown_key", F, [(("axes", 1), dict(CONDUCTIVITY_AXIS, input="x"))]),
    ("axis.input_type", F, [(("axes", 0, "input"), 5)]),
    ("axis.input_missing", F, [(("axes", 0, "input"), DROP)]),
    ("axis.input_unknown", F, [(("axes", 0, "input"), "htc_left")]),
    ("axis.low_type", F, [(("axes", 0, "low"), "x")]),
    ("axis.low_above_high", F, [(("axes", 0, "low"), 1600.0)]),
    ("axis.width_zero", F, [(("axes", 0, "member_width"), 0)]),
    ("axis.width_too_wide", F, [(("axes", 0, "member_width"), 1300.0)]),
    ("axis.trace_levels_on_htc", F, [(("axes", 0, "kind"), "trace_levels")]),
    (
        "axis.conductivity_negative",
        F,
        [(("axes", 1), dict(CONDUCTIVITY_AXIS, low=-0.1))],
    ),
    (
        "axis.two_conductivity",
        F,
        [(("axes",), [CONDUCTIVITY_AXIS, dict(CONDUCTIVITY_AXIS)])],
    ),
    ("axis.same_input_twice", F, [(("axes", 1, "input"), "htc_top")]),
    (
        "family.several",
        F,
        [
            (("sample_size",), 1),
            (("name",), ""),
            (("base", "material", "conductivity"), "x"),
            (("base", "inputs", 0, "low"), 5000.0),
            (("axes", 0, "low"), "x"),
            (("axes", 1, "kind"), "spin"),
            (("n_members",), -1),
            (("conditioning_hidden",), [16.5]),
        ],
    ),
]

GOLDEN = {
    "top.not_object": ["scenario: expected a JSON object, got list"],
    "top.unknown_key": [
        "scenario: unknown field 'colour' (known: name, description, scale, schema_version, t_ambient, dt_ref, seed, geometry, material, boundaries, volumetric_source, inputs, network, collocation, training, transient, loss_weights, eval_grid)",
    ],
    "top.wrong_version": [
        "schema_version: this build reads version 1, got 2 — regenerate the scenario or upgrade repro",
    ],
    "top.missing_version": [
        "schema_version: this build reads version 1, got None — regenerate the scenario or upgrade repro",
    ],
    "top.name_missing": ["name: required (a non-empty string)"],
    "top.name_wrong_type": ["name: required (a non-empty string)"],
    "top.name_empty": ["name: required (a non-empty string)"],
    "top.t_ambient_type": ["t_ambient: expected a number, got 'hot'"],
    "top.dt_ref_bool": ["dt_ref: expected a number, got True"],
    "top.dt_ref_negative": ["dt_ref: must be positive, got -1.0"],
    "top.seed_float": ["seed: expected an integer, got 1.5"],
    "top.eval_grid_length": ["eval_grid: expected 3 integers, got [13, 13]"],
    "top.eval_grid_type": ["eval_grid: expected 3 integers, got 'fine'"],
    "top.eval_grid_small": ["eval_grid: need >= 2 nodes per axis, got [1, 13, 9]"],
    "top.inputs_not_list": [
        "inputs: expected a list of input objects",
        "inputs: need at least one operator input",
        "network.branch_hidden: 1 branch stacks for 0 input(s) — one width list per input",
    ],
    "top.inputs_empty": [
        "inputs: need at least one operator input",
        "network.branch_hidden: 1 branch stacks for 0 input(s) — one width list per input",
    ],
    "top.several": [
        "scenario: unknown field 'colour' (known: name, description, scale, schema_version, t_ambient, dt_ref, seed, geometry, material, boundaries, volumetric_source, inputs, network, collocation, training, transient, loss_weights, eval_grid)",
        "name: required (a non-empty string)",
        "network.q: expected an integer, got 'x'",
        "eval_grid: expected 3 integers, got [13]",
        "training.iterations: must be >= 1, got 0",
    ],
    "geometry.not_object": ["geometry: expected an object, got int"],
    "geometry.unknown_key": [
        "geometry: unknown field 'rotation' (known: size_mm, origin_mm)",
    ],
    "geometry.size_length": ["geometry.size_mm: expected 3 numbers, got [1.0, 1.0]"],
    "geometry.size_type": ["geometry.size_mm: expected 3 numbers, got ['a', 1.0, 1.0]"],
    "geometry.size_negative": [
        "geometry.size_mm: all extents must be positive, got [1.0, -1.0, 0.5]",
    ],
    "geometry.origin_bool": [
        "geometry.origin_mm: expected 3 numbers, got [True, 0, 0]",
    ],
    "material.not_object": ["material: expected an object, got str"],
    "material.unknown_key": [
        "material: unknown field 'density' (known: kind, conductivity)",
    ],
    "material.conductivity_type": ["material.conductivity: expected a number, got 'x'"],
    "material.conductivity_negative": [
        "material.conductivity: must be positive, got -1.0",
    ],
    "material.unknown_kind": [
        "material.kind: unknown material kind 'layered' (known: uniform)",
    ],
    "material.kind_null": [
        "material.kind: unknown material kind None (known: uniform)",
    ],
    "boundaries.not_object": [
        "boundaries: expected an object keyed by face name",
        "boundaries: ill-posed — every face is adiabatic and no input drives a convection/dirichlet face; heat has no way out, so the steady problem has no unique solution",
    ],
    "boundaries.unknown_face": [
        "boundaries: unknown face 'left' (known: xmin, xmax, ymin, ymax, bottom, top)",
    ],
    "boundaries.face_not_object": [
        "boundaries.bottom: expected an object, got str",
        "boundaries: ill-posed — every face is adiabatic and no input drives a convection/dirichlet face; heat has no way out, so the steady problem has no unique solution",
    ],
    "boundaries.unknown_key": [
        "boundaries.bottom: unknown field 'emissivity' (known: kind, htc, temperature)",
    ],
    "boundaries.unknown_kind": [
        "boundaries.bottom.kind: unknown boundary kind 'radiative' (known: adiabatic, convection, dirichlet)",
        "boundaries: ill-posed — every face is adiabatic and no input drives a convection/dirichlet face; heat has no way out, so the steady problem has no unique solution",
    ],
    "boundaries.htc_type": [
        "boundaries.bottom.htc: expected a number, got 'high'",
        "boundaries.bottom: convection needs a positive 'htc', got None",
    ],
    "boundaries.convection_no_htc": [
        "boundaries.bottom: convection needs a positive 'htc', got None",
    ],
    "boundaries.dirichlet_no_temperature": [
        "boundaries.bottom: dirichlet needs a 'temperature' in kelvin",
    ],
    "boundaries.ill_posed": [
        "boundaries: ill-posed — every face is adiabatic and no input drives a convection/dirichlet face; heat has no way out, so the steady problem has no unique solution",
    ],
    "source.not_object": ["volumetric_source: expected an object, got list"],
    "source.unknown_key": [
        "volumetric_source: unknown field 'shape' (known: kind, total_power, thickness_mm, z_center_mm)",
    ],
    "source.power_type": ["volumetric_source.total_power: expected a number, got 'x'"],
    "source.thickness_zero": [
        "volumetric_source.thickness_mm: must be positive, got 0.0",
    ],
    "source.unknown_kind": [
        "volumetric_source.kind: unknown source kind 'point' (known: uniform_layer)",
    ],
    "input.not_object": [
        "inputs[0]: expected an object, got str",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.unknown_family": [
        "inputs[0].family: unknown input family 'laser' (known: power_map, htc, htc_map, dirichlet, volumetric_power_map, transient_power_map)",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.missing_family": [
        "inputs[0].family: unknown input family None (known: power_map, htc, htc_map, dirichlet, volumetric_power_map, transient_power_map)",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.family_type": [
        "inputs[0].family: unknown input family 3 (known: power_map, htc, htc_map, dirichlet, volumetric_power_map, transient_power_map)",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.unknown_key": [
        "inputs[0]: unknown field 'low' (known: family, name, face, map_shape, unit_flux, grf)",
    ],
    "input.map_shape_length": [
        "inputs[0].map_shape: expected 2 integers, got [7, 7, 7]",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.map_shape_type": [
        "inputs[0].map_shape: expected 2 integers, got [7.5, 7]",
        "inputs[0].map_shape: required for power_map",
    ],
    "input.map_shape_missing": ["inputs[0].map_shape: required for power_map"],
    "input.map_shape_small": [
        "inputs[0].map_shape: need >= 2 sensors per axis, got [1, 7]",
    ],
    "input.face_side": [
        "inputs[0].face: power_map inputs live on 'top' or 'bottom', got 'xmin'",
    ],
    "input.face_unknown": [
        "inputs[0].face: unknown face 'sideways' (known: xmin, xmax, ymin, ymax, bottom, top)",
    ],
    "input.unit_flux_type": ["inputs[0].unit_flux: expected a number, got 'x'"],
    "input.name_empty": ["inputs[0].name: must be a non-empty string or null"],
    "htc.low_type": ["inputs[0].low: expected a number, got 'x'"],
    "htc.low_above_high": ["inputs[0]: need low < high, got [2000.0, 1000.0]"],
    "htc.unknown_key": [
        "inputs[0]: unknown field 'grf' (known: family, name, face, low, high)",
    ],
    "htc.duplicate_names": [
        "inputs: duplicate input names ['htc_top'] — give each input a unique 'name'",
    ],
    "htc_map.map_shape_length": [
        "inputs[1].map_shape: expected 2 integers, got [4]",
        "inputs[1].map_shape: required for htc_map",
    ],
    "htc_map.side_face": [
        "inputs[1].face: htc_map inputs live on 'top' or 'bottom', got 'ymax'",
    ],
    "htc_map.unknown_key": [
        "inputs[1]: unknown field 'unit_flux' (known: family, name, face, map_shape, low, high, grf)",
    ],
    "dirichlet.low_above_high": ["inputs[1]: need low < high, got [400.0, 320.0]"],
    "dirichlet.unknown_key": [
        "inputs[1]: unknown field 'map_shape' (known: family, name, face, low, high)",
    ],
    "volumetric.map_shape_2d": [
        "inputs[0].map_shape: expected 3 integers, got [4, 4]",
        "inputs[0].map_shape: required for volumetric_power_map",
    ],
    "volumetric.map_shape_4d": [
        "inputs[0].map_shape: expected 3 integers, got [4, 4, 3, 1]",
        "inputs[0].map_shape: required for volumetric_power_map",
    ],
    "volumetric.unit_density_type": [
        "inputs[0].unit_density: expected a number, got 'x'",
    ],
    "volumetric.face_key": [
        "inputs[0]: unknown field 'face' (known: family, name, map_shape, unit_density, grf)",
    ],
    "transient_input.sensors_float": [
        "inputs[0].n_time_sensors: expected an integer, got 1.5",
    ],
    "transient_input.sensors_one": ["inputs[0].n_time_sensors: need at least 2, got 1"],
    "grf.not_object": ["inputs[0].grf: expected an object, got NoneType"],
    "grf.unknown_key": [
        "inputs[0].grf: unknown field 'nu' (known: length_scale, variance, transform)",
    ],
    "grf.length_scale_type": ["inputs[0].grf.length_scale: expected a number, got 'x'"],
    "grf.length_scale_zero": ["inputs[0].grf.length_scale: must be positive, got 0.0"],
    "grf.unknown_transform": ["inputs[0].grf.transform: unknown transform 'log'"],
    "traces.not_object": ["inputs[0].traces: expected an object, got list"],
    "traces.unknown_key": [
        "inputs[0].traces: unknown field 'duty' (known: kinds, weights, level_range)",
    ],
    "traces.kinds_empty": [
        "inputs[0].traces.kinds: expected a non-empty list of strings, got []",
    ],
    "traces.kinds_unknown": [
        "inputs[0].traces.kinds: unknown trace kinds ['zigzag'] (known: step, ramp, periodic, constant)",
    ],
    "traces.weights_length": [
        "inputs[0].traces.weights: expected 3 numbers, got [1, 2]",
    ],
    "traces.weights_type": [
        "inputs[0].traces.weights: expected 3 numbers, got ['a', 1, 1]",
    ],
    "traces.level_order": [
        "inputs[0].traces.level_range: need low < high, got [1.4, 0.2]",
    ],
    "traces.level_length": [
        "inputs[0].traces.level_range: expected 2 numbers, got [1.0]",
    ],
    "traces.several": [
        "inputs[0].grf.variance: expected a number, got 'x'",
        "inputs[0].traces.kinds: expected a non-empty list of strings, got 'step'",
        "inputs[0].traces.weights: expected 3 numbers, got [1.0, 2.0]",
        "inputs[0].traces.level_range: expected 2 numbers, got 'wide'",
    ],
    "network.not_object": ["network: expected an object, got list"],
    "network.unknown_key": [
        "network: unknown field 'dropout' (known: branch_hidden, trunk_hidden, q, fourier_frequencies, fourier_std, activation)",
    ],
    "network.branch_not_list": [
        "network.branch_hidden: expected a list of width lists (one per input), got 'x'",
    ],
    "network.branch_empty": [
        "network.branch_hidden: expected a list of width lists (one per input), got []",
    ],
    "network.branch_width_type": [
        "network.branch_hidden[0]: expected a non-empty list of integer widths, got [12, 'a']",
    ],
    "network.branch_count": [
        "network.branch_hidden: 2 branch stacks for 1 input(s) — one width list per input",
    ],
    "network.branch_width_zero": [
        "network.branch_hidden[0]: widths must be >= 1, got [0, 12]",
    ],
    "network.trunk_empty": [
        "network.trunk_hidden: expected a non-empty list of integer widths, got []",
    ],
    "network.trunk_type": [
        "network.trunk_hidden: expected a non-empty list of integer widths, got 'wide'",
    ],
    "network.q_float": ["network.q: expected an integer, got 1.5"],
    "network.q_zero": ["network.q: must be >= 1, got 0"],
    "network.frequencies_type": [
        "network.fourier_frequencies: expected an integer, got 'x'",
    ],
    "network.fourier_std_zero": ["network.fourier_std: must be positive, got 0.0"],
    "network.unknown_activation": [
        "network.activation: unknown activation 'gelu2' (known: gelu, identity, linear, relu, sin, sine, swish, tanh)",
    ],
    "collocation.not_object": ["collocation: expected an object, got str"],
    "collocation.unknown_kind": [
        "collocation.kind: unknown collocation kind 'sobol' (known: mesh, random, transient)",
    ],
    "collocation.missing_kind": [
        "collocation.kind: unknown collocation kind None (known: mesh, random, transient)",
    ],
    "collocation.mesh_unknown_key": [
        "collocation: unknown field 'n_interior' (known: kind, grid)",
    ],
    "collocation.grid_length": ["collocation.grid: expected 3 integers, got [5, 5]"],
    "collocation.grid_small": [
        "collocation.grid: need >= 2 nodes per axis, got [1, 5, 4]",
    ],
    "collocation.aligned_type": ["collocation.aligned: expected true/false, got 'yes'"],
    "collocation.focus_length": [
        "collocation.focus_band: expected 3 numbers, got [0.4, 0.6]",
    ],
    "collocation.focus_order": [
        "collocation.focus_band: need [z0, z1, fraction] with 0 <= z0 < z1 <= 1 and 0 < fraction < 1, got [0.6, 0.4, 0.3]",
    ],
    "collocation.interior_zero": [
        "collocation: n_interior and n_per_face must be >= 1",
    ],
    "collocation.interior_type": [
        "collocation.n_interior: expected an integer, got 'x'",
    ],
    "collocation.transient_without_section": [
        "collocation.kind: 'transient' collocation needs a transient section",
    ],
    "collocation.initial_zero": ["collocation.n_initial: must be >= 1, got 0"],
    "collocation.initial_type": ["collocation.n_initial: expected an integer, got 'x'"],
    "collocation.random_on_transient": [
        "collocation.kind: transient scenarios need 'transient' collocation, got 'random'",
    ],
    "training.not_object": ["training: expected an object, got int"],
    "training.unknown_key": [
        "training: unknown field 'epochs' (known: iterations, n_functions, learning_rate, decay_rate, decay_every, seed)",
    ],
    "training.iterations_float": ["training.iterations: expected an integer, got 1.5"],
    "training.iterations_zero": ["training.iterations: must be >= 1, got 0"],
    "training.functions_zero": ["training.n_functions: must be >= 1, got 0"],
    "training.learning_rate_type": [
        "training.learning_rate: expected a number, got 'x'",
    ],
    "training.learning_rate_zero": [
        "training.learning_rate: must be positive, got 0.0",
    ],
    "training.decay_rate_type": ["training.decay_rate: expected a number, got [0.9]"],
    "training.decay_every_zero": ["training.decay_every: must be >= 1, got 0"],
    "training.seed_type": ["training.seed: expected an integer, got 'x'"],
    "transient.not_object": ["transient: expected an object, got str"],
    "transient.unknown_key": [
        "transient: unknown field 'dt' (known: rho_cp, horizon, ic_grid)",
    ],
    "transient.rho_cp_type": ["transient.rho_cp: expected a number, got 'x'"],
    "transient.horizon_zero": ["transient.horizon: must be positive, got 0.0"],
    "transient.ic_grid_length": ["transient.ic_grid: expected 3 integers, got [5, 5]"],
    "transient.ic_grid_small": [
        "transient.ic_grid: need >= 2 nodes per axis, got [1, 5, 4]",
    ],
    "transient.missing": [
        "loss_weights: unknown component 'ic' (known: pde, bc:XMIN, bc:XMAX, bc:YMIN, bc:YMAX, bc:BOTTOM, bc:TOP)",
        "transient: a 'transient_power_map' input needs a transient section (rho_cp, horizon, ic_grid)",
        "collocation.kind: 'transient' collocation needs a transient section",
    ],
    "transient.without_input": [
        "transient: section present but no 'transient_power_map' input consumes it",
        "collocation.kind: transient scenarios need 'transient' collocation, got 'mesh'",
    ],
    "loss_weights.not_object": [
        "loss_weights: expected an object of component -> numeric weight",
    ],
    "loss_weights.value_type": [
        "loss_weights: expected an object of component -> numeric weight",
    ],
    "loss_weights.value_bool": [
        "loss_weights: expected an object of component -> numeric weight",
    ],
    "loss_weights.unknown_key": [
        "loss_weights: unknown component 'bc:top' (known: pde, bc:XMIN, bc:XMAX, bc:YMIN, bc:YMAX, bc:BOTTOM, bc:TOP)",
    ],
    "loss_weights.ic_without_transient": [
        "loss_weights: unknown component 'ic' (known: pde, bc:XMIN, bc:XMAX, bc:YMIN, bc:YMAX, bc:BOTTOM, bc:TOP)",
    ],
    "loss_weights.negative": [
        "loss_weights['bc:TOP']: must be finite and >= 0, got -1.0",
    ],
    "loss_weights.nan": ["loss_weights['pde']: must be finite and >= 0, got nan"],
    "nonfinite.t_ambient": ["t_ambient: expected a finite number, got nan"],
    "nonfinite.dt_ref": ["dt_ref: expected a finite number, got inf"],
    "nonfinite.huge_integer": ["t_ambient: expected a finite number, got inf"],
    "nonfinite.conductivity": [
        "material.conductivity: expected a finite number, got nan",
    ],
    "nonfinite.size_mm": ["geometry.size_mm[0]: expected a finite number, got nan"],
    "nonfinite.htc": [
        "boundaries.top.htc: expected a finite number, got inf",
        "boundaries.top: convection needs a positive 'htc', got None",
    ],
    "nonfinite.input_low": ["inputs[0].low: expected a finite number, got -inf"],
    "nonfinite.focus_band": [
        "collocation.focus_band[2]: expected a finite number, got nan",
    ],
    "nonfinite.learning_rate": [
        "training.learning_rate: expected a finite number, got nan",
    ],
    "nonfinite.trace_weights": [
        "inputs[0].traces.weights[1]: expected a finite number, got nan",
    ],
    "nonfinite.horizon": ["transient.horizon: expected a finite number, got inf"],
    "axis.nonfinite_high": [
        "family.axes[0].high: expected a finite number, got inf",
        "family.axes[0]: need low < high, got [200.0, 1.0]",
        "family.axes[0].member_width: must be narrower than the envelope span -199, got 300",
    ],
    "family.nonfinite_several": [
        "family.base: t_ambient: expected a finite number, got nan",
        "family.base: geometry.origin_mm[1]: expected a finite number, got inf",
        "family.axes[1].member_width: expected a finite number, got nan",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: no base input named 'htc_bottom' (known: )",
    ],
    "several.sections": [
        "geometry: unknown field 'rotation' (known: size_mm, origin_mm)",
        "boundaries: unknown face 'left' (known: xmin, xmax, ymin, ymax, bottom, top)",
        "material.conductivity: expected a number, got 'x'",
        "inputs[0].unit_flux: expected a number, got 'x'",
    ],
    "several.sections_and_rules": [
        "t_ambient: expected a number, got 'hot'",
        "volumetric_source.total_power: expected a number, got 'x'",
        "inputs[1].family: unknown input family 'laser' (known: power_map, htc, htc_map, dirichlet, volumetric_power_map, transient_power_map)",
        "collocation.aligned: expected true/false, got 1",
        "training.seed: expected an integer, got 0.5",
        "loss_weights: expected an object of component -> numeric weight",
        "geometry.size_mm: all extents must be positive, got [1.0, 0.0, 0.5]",
        "material.kind: unknown material kind 'layered' (known: uniform)",
        "boundaries.top.kind: unknown boundary kind 'radiative' (known: adiabatic, convection, dirichlet)",
        "inputs[1].map_shape: required for power_map",
    ],
    "family.not_object": ["family: expected a JSON object, got list"],
    "family.wrong_version": [
        "family_schema_version: this build reads version 1, got 2 — regenerate the family or upgrade repro",
    ],
    "family.unknown_key": [
        "family: unknown field 'members' (known: family_schema_version, name, description, base, axes, n_members, sample_seed, conditioning_hidden)",
    ],
    "family.name_missing": ["family.name: required (a non-empty string)"],
    "family.name_type": ["family.name: required (a non-empty string)"],
    "family.base_missing": [
        "family.base: scenario: expected a JSON object, got NoneType",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: no base input named 'htc_bottom' (known: )",
    ],
    "family.base_not_object": [
        "family.base: scenario: expected a JSON object, got str",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: no base input named 'htc_bottom' (known: )",
    ],
    "family.base_invalid": [
        "family.base: network.q: expected an integer, got 'x'",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: no base input named 'htc_bottom' (known: )",
    ],
    "family.base_version": [
        "family.base: schema_version: this build reads version 1, got 9 — regenerate the scenario or upgrade repro",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: no base input named 'htc_bottom' (known: )",
    ],
    "family.axes_not_list": [
        "family.axes: expected a list of axis objects",
        "family.axes: at least one sampled axis is required (otherwise use the scenario directly)",
    ],
    "family.axes_empty": [
        "family.axes: at least one sampled axis is required (otherwise use the scenario directly)",
    ],
    "family.n_members_type": ["family.n_members: expected an integer, got 'x'"],
    "family.n_members_zero": ["family.n_members: must be >= 1, got 0"],
    "family.sample_seed_float": ["family.sample_seed: expected an integer, got 1.5"],
    "family.hidden_empty": [
        "family.conditioning_hidden: expected a non-empty list of positive integer widths, got []",
    ],
    "family.hidden_zero": [
        "family.conditioning_hidden: expected a non-empty list of positive integer widths, got [16, 0]",
    ],
    "family.hidden_type": [
        "family.conditioning_hidden: expected a non-empty list of positive integer widths, got 'wide'",
    ],
    "axis.not_object": [
        "family.axes[0]: expected an object, got str",
        "family.axes[0].input: required (one of htc_top, htc_bottom)",
    ],
    "axis.unknown_kind": [
        "family.axes[0].kind: unknown axis kind 'power' (known: htc_range, conductivity, trace_levels)",
        "family.axes[0].input: required (one of htc_top, htc_bottom)",
    ],
    "axis.unknown_key": [
        "family.axes[1]: unknown field 'input' (known: kind, low, high)",
    ],
    "axis.input_type": [
        "family.axes[0].input: expected an input name string, got 5",
        "family.axes[0].input: required (one of htc_top, htc_bottom)",
    ],
    "axis.input_missing": [
        "family.axes[0].input: required (one of htc_top, htc_bottom)",
    ],
    "axis.input_unknown": [
        "family.axes[0].input: no base input named 'htc_left' (known: htc_top, htc_bottom)",
    ],
    "axis.low_type": ["family.axes[0].low: expected a number, got 'x'"],
    "axis.low_above_high": [
        "family.axes[0]: need low < high, got [1600.0, 1500.0]",
        "family.axes[0].member_width: must be narrower than the envelope span -100, got 300",
    ],
    "axis.width_zero": ["family.axes[0].member_width: must be positive, got 0.0"],
    "axis.width_too_wide": [
        "family.axes[0].member_width: must be narrower than the envelope span 1300, got 1300",
    ],
    "axis.trace_levels_on_htc": [
        "family.axes[0]: unknown field 'member_width' (known: kind, input, low, high)",
        "family.axes[0].input: 'htc_top' is a 'htc' input; trace_levels needs 'transient_power_map'",
    ],
    "axis.conductivity_negative": [
        "family.axes[1].low: conductivity must be positive, got -0.1",
    ],
    "axis.two_conductivity": ["family.axes: at most one conductivity axis"],
    "axis.same_input_twice": [
        "family.axes: each input may be targeted by at most one axis",
    ],
    "family.several": [
        "family: unknown field 'sample_size' (known: family_schema_version, name, description, base, axes, n_members, sample_seed, conditioning_hidden)",
        "family.name: required (a non-empty string)",
        "family.base: material.conductivity: expected a number, got 'x'",
        "family.base: inputs[0]: need low < high, got [5000.0, 1500.0]",
        "family.axes[0].low: expected a number, got 'x'",
        "family.axes[1].kind: unknown axis kind 'spin' (known: htc_range, conductivity, trace_levels)",
        "family.conditioning_hidden: expected a non-empty list of positive integer widths, got [16.5]",
        "family.n_members: must be >= 1, got -1",
        "family.axes[0].input: no base input named 'htc_top' (known: )",
        "family.axes[1].input: required (one of none — base has no inputs)",
    ],
}


def _document(base, edits):
    if isinstance(base, str):
        data = json.loads((SCENARIO_DIR / base).read_text())
    else:
        data = copy.deepcopy(base)
    for path, value in edits:
        parent = data
        for key in path[:-1]:
            parent = parent.setdefault(key, {}) if isinstance(key, str) else parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return data


def _errors(name, data):
    family = name.startswith(("family.", "axis."))
    loader = ScenarioFamily if family else ThermalScenario
    with pytest.raises(ScenarioValidationError) as info:
        loader.from_dict(data)
    return info.value.errors


def _by_section(errors):
    """Errors grouped by the top-level section their path starts with."""
    groups = {}
    for error in errors:
        head = error.split(":", 1)[0].removeprefix("family.")
        groups.setdefault(re.split(r"[.\[]", head, maxsplit=1)[0], []).append(error)
    return groups


class TestGoldenCorpus:
    def test_every_case_is_pinned(self):
        assert [case[0] for case in CORPUS] == list(GOLDEN)

    @pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
    def test_errors_are_pinned(self, case):
        name, base, edits = case
        errors = _errors(name, _document(base, edits))
        assert _by_section(errors) == _by_section(GOLDEN[name])
