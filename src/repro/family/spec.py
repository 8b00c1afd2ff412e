"""``ScenarioFamily``: a versioned spec for a *distribution* of scenarios.

Where a :class:`~repro.api.ThermalScenario` pins one workload, a
``ScenarioFamily`` declares a **base** scenario plus a set of sampled
**axes** — HTC sub-ranges, material conductivity, power-trace levels —
and deterministically enumerates member scenarios from a seed.  One
conditioned model (see :mod:`repro.family.conditioning`) trains across
the members and fine-tunes to unseen ones in a fraction of from-scratch
cost (the Therm-FM recipe over the DeepOHeat stack).

Axis kinds
----------
``htc_range``
    Targets an ``htc`` input by name.  The family spans the outer
    ``[low, high]`` envelope; each member gets a width-``member_width``
    sub-range centred at a seeded uniform draw.
``conductivity``
    Samples ``material.conductivity`` uniformly from ``[low, high]``.
``trace_levels``
    Targets a ``transient_power_map`` input; scales its trace
    ``level_range`` by a uniform factor from ``[low, high]``.

Identity mirrors the scenario spec: ``content_digest()`` hashes the
canonical JSON of every content field (labels excluded), so a family is
a first-class key in the checkpoint registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from ..api._codec import (
    DEFAULT,
    Document,
    ScenarioValidationError,
    Spec,
    _dedupe,
    _integer,
    _name,
    _number,
    _widths,
    canonical_digest,
    read_json,
    section_list_field,
    spec_field,
)
from ..api.scenario import ThermalScenario

FAMILY_SCHEMA_VERSION = 1


def _input_names(scenario: ThermalScenario) -> List[str]:
    """Resolved (explicit-or-default) input names, in input order."""
    return [
        spec.name or ThermalScenario._default_input_name(spec)
        for spec in scenario.inputs
    ]


def _axis_input(value, path, errors, spec):
    if value is not None and not isinstance(value, str):
        errors.append(f"{path}: expected an input name string, got {value!r}")
        return DEFAULT
    return value


@dataclass
class FamilyAxis(Spec):
    """One sampled dimension of a scenario family (see module docstring)."""

    kind: str = "htc_range"
    input: Optional[str] = spec_field(None, coerce=_axis_input)
    low: float = spec_field(0.0, coerce=_number)
    high: float = spec_field(1.0, coerce=_number)
    member_width: float = spec_field(0.0, coerce=_number)

    _TAG = "kind"
    _TAG_NOUN = "axis kind"
    _TAG_DEFAULT = "htc_range"
    _FIELDS = {
        "htc_range": ("input", "low", "high", "member_width"),
        "conductivity": ("low", "high"),
        "trace_levels": ("input", "low", "high"),
    }
    # Conditioning-vector entries contributed per axis kind.
    _WIDTH = {"htc_range": 2, "conductivity": 1, "trace_levels": 1}

    def validate(self, path: str, base: ThermalScenario,
                 errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.low >= self.high:
            errors.append(f"{path}: need low < high, "
                          f"got [{self.low}, {self.high}]")
        if self.kind == "conductivity":
            if self.low <= 0:
                errors.append(f"{path}.low: conductivity must be positive, "
                              f"got {self.low}")
            return
        if self.kind == "trace_levels" and self.low <= 0:
            errors.append(f"{path}.low: trace-level scale must be positive, "
                          f"got {self.low}")
        names = _input_names(base)
        if self.input is None:
            errors.append(f"{path}.input: required (one of "
                          f"{', '.join(names) or 'none — base has no inputs'})")
            return
        if self.input not in names:
            errors.append(f"{path}.input: no base input named "
                          f"{self.input!r} (known: {', '.join(names)})")
            return
        spec = base.inputs[names.index(self.input)]
        want = "htc" if self.kind == "htc_range" else "transient_power_map"
        if spec.family != want:
            errors.append(f"{path}.input: {self.input!r} is a "
                          f"{spec.family!r} input; {self.kind} needs {want!r}")
        if self.kind == "htc_range":
            if self.member_width <= 0:
                errors.append(f"{path}.member_width: must be positive, "
                              f"got {self.member_width}")
            elif self.member_width >= self.high - self.low:
                errors.append(
                    f"{path}.member_width: must be narrower than the "
                    f"envelope span {self.high - self.low:g}, "
                    f"got {self.member_width:g}"
                )

    @property
    def width(self) -> int:
        """Entries this axis contributes to the conditioning vector."""
        return self._WIDTH[self.kind]


def _base(value, path, errors, spec):
    """The whole base scenario; its errors are prefixed with ``path``."""
    try:
        return ThermalScenario.from_dict(value)
    except ScenarioValidationError as exc:
        errors.extend(f"{path}: {err}" for err in exc.errors)
        return DEFAULT


def _conditioning_widths(value, path, errors, spec):
    return _widths(value, path, errors, positive=True)


@dataclass
class ScenarioFamily(Document):
    """A base scenario plus sampled axes (see module docstring)."""

    family_schema_version: int = FAMILY_SCHEMA_VERSION
    name: str = spec_field("family", coerce=_name, required=True)
    description: str = ""
    base: ThermalScenario = spec_field(default_factory=ThermalScenario,
                                       coerce=_base, required=True)
    axes: List[FamilyAxis] = section_list_field(FamilyAxis, "axis")
    n_members: int = spec_field(4, coerce=_integer)
    sample_seed: int = spec_field(0, coerce=_integer)
    conditioning_hidden: Tuple[int, ...] = spec_field(
        (16, 16), coerce=_conditioning_widths
    )

    _NOUN = "family"
    _VERSION_KEY = "family_schema_version"
    _FIELD_PATH = "family"
    _BAD_JSON = "family: not valid JSON ({})"

    def validate(self) -> List[str]:
        """Every problem found (empty means the family is valid)."""
        errors: List[str] = []
        if self.n_members < 1:
            errors.append(f"family.n_members: must be >= 1, "
                          f"got {self.n_members}")
        if not self.axes:
            errors.append("family.axes: at least one sampled axis is "
                          "required (otherwise use the scenario directly)")
        targeted = [axis.input for axis in self.axes if axis.input is not None]
        if len(targeted) != len(set(targeted)):
            errors.append("family.axes: each input may be targeted by at "
                          "most one axis")
        if sum(axis.kind == "conductivity" for axis in self.axes) > 1:
            errors.append("family.axes: at most one conductivity axis")
        for index, axis in enumerate(self.axes):
            axis.validate(f"family.axes[{index}]", self.base, errors)
        return _dedupe(errors)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 over canonical JSON of every content field.

        Mirrors :meth:`ThermalScenario.content_digest`: ``name``,
        ``description`` and the base's labels are excluded, so renaming
        never orphans a family checkpoint while any change to an axis,
        the base physics or the conditioning width produces a new
        registry slot.
        """
        payload = self.to_dict()
        for label in ("name", "description"):
            payload.pop(label, None)
            payload["base"].pop(label, None)
        payload["base"].pop("scale", None)
        return canonical_digest(payload)

    # ------------------------------------------------------------------
    # Member enumeration
    # ------------------------------------------------------------------
    def member(self, index: int) -> ThermalScenario:
        """The ``index``-th sampled member scenario (deterministic).

        Indices ``0..n_members-1`` are the training members;
        larger indices are the held-out stream (see :meth:`holdout`).
        Each index seeds its own RNG stream, so member ``k`` is
        independent of ``n_members``.
        """
        rng = np.random.default_rng([int(self.sample_seed), int(index)])
        bounds = []
        for axis in self.axes:
            if axis.kind == "htc_range":
                half = axis.member_width / 2.0
                center = float(rng.uniform(axis.low + half, axis.high - half))
                bounds.append((center - half, center + half))
            else:  # one draw: a conductivity or a trace-level scale
                draw = float(rng.uniform(axis.low, axis.high))
                bounds.append((draw, draw))
        return self._variant(bounds, f"{self.name}-m{index:03d}",
                             f"member {index} of family {self.name!r}")

    def members(self) -> List[ThermalScenario]:
        """The training members (indices ``0..n_members-1``)."""
        return [self.member(index) for index in range(self.n_members)]

    def holdout(self, index: int) -> ThermalScenario:
        """Held-out member ``index`` — never seen during family training."""
        return self.member(self.n_members + int(index))

    def envelope(self) -> ThermalScenario:
        """The base scenario widened to the axes' outer bounds.

        This is the *encoding* scenario: its inputs normalize over the
        full family envelope, so every member (and any covered
        fine-tune target) encodes consistently through one shared
        branch stack.  A conductivity axis sits at its midpoint; trace
        levels take the widest plausible range.
        """
        bounds = [((axis.low + axis.high) / 2.0,) * 2
                  if axis.kind == "conductivity" else (axis.low, axis.high)
                  for axis in self.axes]
        return self._variant(bounds, f"{self.name}-envelope",
                             f"encoding envelope of family {self.name!r}")

    def _variant(self, bounds, name: str, description: str) -> ThermalScenario:
        """The base with each axis set from its ``(low, high)`` bound.

        An HTC range takes the pair as its sub-range, a conductivity its
        first entry; trace levels scale the low / high end of the base
        ``level_range`` by the pair.
        """
        data = self.base.to_dict()
        names = _input_names(self.base)
        for axis, (low, high) in zip(self.axes, bounds):
            if axis.kind == "conductivity":
                data["material"]["conductivity"] = low
                continue
            spec = data["inputs"][names.index(axis.input)]
            if axis.kind == "htc_range":
                spec["low"], spec["high"] = low, high
            else:  # trace_levels
                level = spec["traces"]["level_range"]
                spec["traces"]["level_range"] = [level[0] * low, level[1] * high]
        data["name"] = name
        data["description"] = description
        return ThermalScenario.from_dict(data)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def covers(self, scenario: ThermalScenario, tol: float = 1e-9) -> bool:
        """Whether ``scenario`` lies inside this family's envelope.

        True when every axis value falls within its bounds **and**
        everything off-axis matches the base exactly — except ``name``,
        ``description``, ``scale`` (labels), the weight-init ``seed``
        and the ``training`` section (a warm start replaces the weights
        wholesale and fine-tune budgets legitimately differ).
        """
        names = _input_names(self.base)
        if _input_names(scenario) != names:
            return False
        base, cand = self.base.to_dict(), scenario.to_dict()
        for payload in (base, cand):
            for label in ("name", "description", "scale", "seed", "training"):
                payload.pop(label, None)
        for axis, (low, high) in zip(self.axes, self._bounds_of(scenario)):
            if axis.kind == "htc_range" and low >= high:
                return False
            if axis.kind == "trace_levels":
                if abs(low - high) > tol:  # one scale for both ends
                    return False
                high = low
            if low < axis.low - tol or high > axis.high + tol:
                return False
            for payload in (base, cand):  # the axis value is free
                if axis.kind == "conductivity":
                    payload["material"]["conductivity"] = None
                    continue
                spec = payload["inputs"][names.index(axis.input)]
                if axis.kind == "htc_range":
                    spec["low"] = spec["high"] = None
                else:
                    spec["traces"]["level_range"] = None
        return base == cand

    def _bounds_of(self, scenario: ThermalScenario):
        """Each axis's ``(low, high)`` in ``scenario``; inverts :meth:`_variant`."""
        names = _input_names(scenario)
        bounds = []
        for axis in self.axes:
            if axis.kind == "conductivity":
                bounds.append((scenario.material.conductivity,) * 2)
                continue
            spot = names.index(axis.input)
            spec = scenario.inputs[spot]
            if axis.kind == "htc_range":
                bounds.append((spec.low, spec.high))
            else:  # trace_levels: the scale of each end of the base range
                level = self.base.inputs[spot].traces.level_range
                bounds.append((spec.traces.level_range[0] / level[0],
                               spec.traces.level_range[1] / level[1]))
        return bounds

    # ------------------------------------------------------------------
    # Conditioning
    # ------------------------------------------------------------------
    @property
    def conditioning_dim(self) -> int:
        """Fixed width of the conditioning vector (+1 for the bias)."""
        return sum(axis.width for axis in self.axes) + 1

    def conditioning_vector(self, scenario: ThermalScenario) -> np.ndarray:
        """Fixed-width scenario embedding the conditioning branch consumes.

        Per axis, the member's value(s) normalized against the axis
        envelope (``htc_range`` contributes its normalized [low, high]
        pair), followed by a constant ``1.0`` bias entry — so an
        all-central member still produces a non-degenerate branch
        input under the MIONet Hadamard merge.
        """
        entries: List[float] = []
        for axis, (low, high) in zip(self.axes, self._bounds_of(scenario)):
            span = axis.high - axis.low
            entries.append((low - axis.low) / span)
            if axis.kind == "htc_range":
                entries.append((high - axis.low) / span)
        entries.append(1.0)
        return np.asarray(entries, dtype=np.float64)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def compile(self) -> "FamilySetup":
        """Lower the family onto the execution stack.

        Builds one shared conditioned :class:`~repro.nn.MIONet` (branch
        stacks for the envelope inputs, an extra conditioning branch,
        Fourier features, trunk — weight RNG seeded from the base's
        ``seed``) and wraps every training member as a
        :class:`~repro.core.presets.ExperimentSetup` whose model aliases
        that net.  Plain ``ThermalScenario.compile()`` is untouched —
        unconditioned models stay bitwise identical.
        """
        errors = self.validate()
        if errors:
            raise ScenarioValidationError(errors)
        from .trainer import FamilySetup

        env_setup = self.envelope().compile()
        env_inputs = env_setup.model.inputs
        network = self.base.network
        branches = [(spec.sensor_dim, widths)
                    for spec, widths in zip(env_inputs, network.branch_hidden)]
        branches.append((self.conditioning_dim, self.conditioning_hidden))
        net = network.build(
            branches, trunk_coords=3 if self.base.transient is None else 4,
            seed=self.base.seed,
        )
        members = self.members()
        setup = FamilySetup(
            family=self,
            net=net,
            envelope_inputs=env_inputs,
            members=members,
            setups=[],
            trainer_config=self.base.training.build(),
        )
        setup.setups = [setup.member_setup(member) for member in members]
        return setup


def load_spec(source: Union[str, Path]) -> Union[ThermalScenario, ScenarioFamily]:
    """Read a scenario or a family JSON, told apart by ``family_schema_version``.

    Raises :class:`~repro.api.ScenarioValidationError` when the file is
    unreadable, not JSON, or not a valid spec of its kind.
    """
    data = read_json(source)
    is_family = isinstance(data, Mapping) and "family_schema_version" in data
    return (ScenarioFamily if is_family else ThermalScenario).from_dict(data)
