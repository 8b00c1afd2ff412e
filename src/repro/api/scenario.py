"""Declarative scenario spec: one JSON document per thermal workload.

A :class:`ThermalScenario` fully describes a DeepOHeat workload — chip
geometry, material, boundary conditions, the operator-input families the
branch nets consume, the network architecture, the collocation plan and
the training budget, plus an optional transient section — as plain data.
It serializes to/from JSON under a versioned schema with collected,
actionable validation errors, and :meth:`ThermalScenario.compile` lowers
it onto the existing execution stack (:class:`~repro.core.ChipConfig`,
:class:`~repro.core.DeepOHeat`, collocation plans,
:class:`~repro.core.TrainerConfig`) as an
:class:`~repro.core.presets.ExperimentSetup`.

Design rules
------------
* **Spec, not code.**  Everything a workload needs is a field; a new
  scenario (another HTC pair, a new pulse-trace mixture) is a new JSON
  file, not a new Python factory.
* **Bitwise-faithful lowering.**  ``compile()`` consumes the weight-init
  RNG in the exact order the legacy ``experiment_*`` factories did
  (branch nets in input order, then Fourier features, then the trunk),
  so a scenario transcribed from a preset builds the identical model.
* **Content-addressed identity.**  :meth:`content_digest` hashes the
  canonical JSON of every *physical and training* field — ``name``,
  ``description`` and the ``scale`` label are excluded — so two
  scenarios differing only in an HTC bound or a power family can never
  alias each other in a checkpoint registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ._codec import (
    DEFAULT,
    Document,
    ScenarioValidationError,
    Spec,
    _boolean,
    _dedupe,
    _float_tuple,
    _int_tuple,
    _integer,
    _name,
    _number,
    _widths,
    canonical_digest,
    section_field,
    section_list_field,
    spec_field,
)

SCHEMA_VERSION = 1

_FACE_NAMES = ("xmin", "xmax", "ymin", "ymax", "bottom", "top")
_BC_KINDS = ("adiabatic", "convection", "dirichlet")


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
@dataclass
class GeometrySpec(Spec):
    """Chip cuboid in millimetres (the paper's unit)."""

    size_mm: Tuple[float, float, float] = spec_field((1.0, 1.0, 0.5),
                                                     coerce=_float_tuple(3))
    origin_mm: Tuple[float, float, float] = spec_field((0.0, 0.0, 0.0),
                                                       coerce=_float_tuple(3))

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if any(v <= 0 for v in self.size_mm):
            errors.append(f"{path}.size_mm: all extents must be positive, "
                          f"got {list(self.size_mm)}")

    def build(self):
        """The concrete :class:`~repro.geometry.Cuboid` in SI metres."""
        from ..geometry import Cuboid

        return Cuboid.from_mm(self.origin_mm, self.size_mm)


@dataclass
class MaterialSpec(Spec):
    """Thermal conductivity field; ``uniform`` is the only kind so far."""

    kind: str = "uniform"
    conductivity: float = spec_field(0.1, coerce=_number)  # W/mK

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.kind != "uniform":
            errors.append(f"{path}.kind: unknown material kind {self.kind!r} "
                          f"(known: uniform)")
        elif self.conductivity <= 0:
            errors.append(f"{path}.conductivity: must be positive, "
                          f"got {self.conductivity}")

    def build(self):
        """The concrete conductivity field."""
        from ..materials import UniformConductivity

        return UniformConductivity(self.conductivity)


@dataclass
class BoundarySpec(Spec):
    """One face's fixed boundary condition.

    Faces driven by an operator input (HTC sweeps etc.) carry the
    *base* condition here; the input re-stamps it per design.
    """

    kind: str = "adiabatic"
    # convection's W/m^2K and dirichlet's K; unset ones stay out of the JSON
    htc: Optional[float] = spec_field(None, coerce=_number, omit_none=True)
    temperature: Optional[float] = spec_field(None, coerce=_number, omit_none=True)

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.kind not in _BC_KINDS:
            errors.append(f"{path}.kind: unknown boundary kind {self.kind!r} "
                          f"(known: {', '.join(_BC_KINDS)})")
            return
        if self.kind == "convection" and (self.htc is None or self.htc <= 0):
            errors.append(f"{path}: convection needs a positive 'htc', "
                          f"got {self.htc!r}")
        if self.kind == "dirichlet" and self.temperature is None:
            errors.append(f"{path}: dirichlet needs a 'temperature' in kelvin")

    def build(self, t_ambient: float):
        """The concrete boundary-condition object."""
        from ..bc import AdiabaticBC, ConvectionBC, DirichletBC

        if self.kind == "adiabatic":
            return AdiabaticBC()
        if self.kind == "convection":
            return ConvectionBC(self.htc, t_ambient)
        return DirichletBC(self.temperature)


@dataclass
class VolumetricSourceSpec(Spec):
    """A fixed (non-varying) internal heat source.

    ``uniform_layer`` is Experiment B's 0.625 mW slab: ``thickness_mm``
    thick, centred at ``z_center_mm`` (chip mid-plane when null).
    """

    kind: str = "uniform_layer"
    total_power: float = spec_field(0.000625, coerce=_number)  # W
    thickness_mm: float = spec_field(0.05, coerce=_number)
    z_center_mm: Optional[float] = spec_field(None, coerce=_number)

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.kind != "uniform_layer":
            errors.append(f"{path}.kind: unknown source kind {self.kind!r} "
                          f"(known: uniform_layer)")
        elif self.thickness_mm <= 0:
            errors.append(f"{path}.thickness_mm: must be positive, "
                          f"got {self.thickness_mm}")

    def build(self, chip):
        """The concrete volumetric power source."""
        from ..power import UniformLayerPower

        z_mid = (float(chip.center[2]) if self.z_center_mm is None
                 else self.z_center_mm * 1e-3)
        half = self.thickness_mm * 1e-3 / 2.0
        footprint = float(chip.size[0] * chip.size[1])
        return UniformLayerPower((z_mid - half, z_mid + half),
                                 self.total_power, footprint)


@dataclass
class GRFSpec(Spec):
    """Gaussian-random-field sampling parameters of a map-valued input."""

    length_scale: float = spec_field(0.3, coerce=_number)
    variance: float = spec_field(1.0, coerce=_number)
    transform: str = "none"

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.length_scale <= 0:
            errors.append(f"{path}.length_scale: must be positive, "
                          f"got {self.length_scale}")
        if self.transform not in ("none", "shift_nonneg", "abs", "softplus"):
            errors.append(f"{path}.transform: unknown transform "
                          f"{self.transform!r}")

    def build2d(self, shape):
        """The 2-D GRF input family."""
        from ..power import GaussianRandomField2D

        return GaussianRandomField2D(tuple(shape), length_scale=self.length_scale,
                                     variance=self.variance,
                                     transform=self.transform)

    def build3d(self, shape):
        """The volumetric GRF input family."""
        from ..power import GaussianRandomField3D

        return GaussianRandomField3D(tuple(shape), length_scale=self.length_scale,
                                     variance=self.variance,
                                     transform=self.transform)


def _trace_kinds(value, path, errors, spec):
    if (not isinstance(value, (list, tuple)) or not value
            or any(not isinstance(k, str) for k in value)):
        errors.append(f"{path}: expected a non-empty list of strings, "
                      f"got {value!r}")
        return DEFAULT
    return tuple(value)


def _trace_weights(value, path, errors, spec):
    """One weight per trace kind."""
    return _float_tuple(len(spec.kinds))(value, path, errors)


@dataclass
class TraceFamilySpec(Spec):
    """Random power-trace mixture of a transient input."""

    kinds: Tuple[str, ...] = spec_field(("step", "ramp", "periodic"),
                                        coerce=_trace_kinds)
    weights: Optional[Tuple[float, ...]] = spec_field(None, coerce=_trace_weights)
    level_range: Tuple[float, float] = spec_field((0.2, 1.4), coerce=_float_tuple(2))

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        from ..power.traces import TraceFamily

        unknown = sorted(set(self.kinds) - set(TraceFamily.KINDS))
        if unknown:
            errors.append(f"{path}.kinds: unknown trace kinds {unknown} "
                          f"(known: {', '.join(TraceFamily.KINDS)})")
        if self.level_range[0] >= self.level_range[1]:
            errors.append(f"{path}.level_range: need low < high, "
                          f"got {list(self.level_range)}")

    def build(self):
        """The concrete time-trace family."""
        from ..power.traces import TraceFamily

        return TraceFamily(kinds=self.kinds, weights=self.weights,
                           level_range=self.level_range)


def _map_shape(value, path, errors, spec):
    """Sensors per axis: three for a volumetric map, two for a face map."""
    length = 3 if spec.family == "volumetric_power_map" else 2
    return _int_tuple(length)(value, path, errors)


@dataclass
class InputSpec(Spec):
    """One operator input (a branch-net coordinate of the function space).

    ``family`` selects the physics; the other fields parameterize it:

    ``power_map``
        2-D face power map (Experiment A): ``face``, ``map_shape`` (2),
        ``unit_flux``, ``grf``.
    ``htc``
        uniform face HTC (Experiment B): ``face``, ``low``, ``high``.
    ``htc_map``
        inhomogeneous face HTC: ``face``, ``map_shape`` (2), ``low``,
        ``high``, ``grf``.
    ``dirichlet``
        fixed-temperature set-point sweep: ``face``, ``low``, ``high``.
    ``volumetric_power_map``
        3-D power map: ``map_shape`` (3), ``unit_density``, ``grf``.
    ``transient_power_map``
        time-modulated 2-D map: ``face``, ``map_shape`` (2),
        ``n_time_sensors``, ``unit_flux``, ``grf``, ``traces``; the time
        horizon comes from the scenario's ``transient`` section.
    """

    family: str = "power_map"
    name: Optional[str] = None
    face: str = "top"
    map_shape: Optional[Tuple[int, ...]] = spec_field(None, coerce=_map_shape)
    unit_flux: float = spec_field(2500.0, coerce=_number)
    unit_density: float = spec_field(1.0e7, coerce=_number)
    low: float = spec_field(333.33, coerce=_number)
    high: float = spec_field(1000.0, coerce=_number)
    n_time_sensors: int = spec_field(12, coerce=_integer)
    grf: GRFSpec = section_field(GRFSpec)
    traces: TraceFamilySpec = section_field(TraceFamilySpec)

    _TAG = "family"
    _TAG_NOUN = "input family"
    # Fields serialized per family (everything else stays at its default).
    _FIELDS = {
        "power_map": ("name", "face", "map_shape", "unit_flux", "grf"),
        "htc": ("name", "face", "low", "high"),
        "htc_map": ("name", "face", "map_shape", "low", "high", "grf"),
        "dirichlet": ("name", "face", "low", "high"),
        "volumetric_power_map": ("name", "map_shape", "unit_density", "grf"),
        "transient_power_map": ("name", "face", "map_shape", "n_time_sensors",
                                "unit_flux", "grf", "traces"),
    }

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        fields = self._FIELDS.get(self.family)
        if fields is None:
            errors.append(f"{path}.family: unknown input family {self.family!r}")
            return
        if self.name is not None and (not isinstance(self.name, str)
                                      or not self.name):
            errors.append(f"{path}.name: must be a non-empty string or null")
        if "face" in fields:
            if self.face not in _FACE_NAMES:
                errors.append(f"{path}.face: unknown face {self.face!r} "
                              f"(known: {', '.join(_FACE_NAMES)})")
            elif (self.family in ("power_map", "htc_map", "transient_power_map")
                  and self.face not in ("top", "bottom")):
                errors.append(f"{path}.face: {self.family} inputs live on "
                              f"'top' or 'bottom', got {self.face!r}")
        if "map_shape" in fields:
            if self.map_shape is None:
                errors.append(f"{path}.map_shape: required for {self.family}")
            elif any(n < 2 for n in self.map_shape):
                errors.append(f"{path}.map_shape: need >= 2 sensors per axis, "
                              f"got {list(self.map_shape)}")
        if "low" in fields and self.low >= self.high:
            errors.append(f"{path}: need low < high, got "
                          f"[{self.low}, {self.high}]")
        if "n_time_sensors" in fields and self.n_time_sensors < 2:
            errors.append(f"{path}.n_time_sensors: need at least 2, "
                          f"got {self.n_time_sensors}")
        if "grf" in fields:
            self.grf.validate(f"{path}.grf", errors)
        if "traces" in fields:
            self.traces.validate(f"{path}.traces", errors)

    # -- lowering ------------------------------------------------------
    def _face(self):
        from ..geometry import Face

        return Face[self.face.upper()]

    def build(self, chip, t_ambient: float,
              transient: Optional["TransientSectionSpec"]):
        """The concrete operator-input family."""
        from ..core.encoding import (
            DirichletInput,
            HTCInput,
            HTCMapInput,
            PowerMapInput,
            TransientPowerMapInput,
            VolumetricPowerMapInput,
        )

        if self.family == "power_map":
            return PowerMapInput(
                chip=chip, face=self._face(), map_shape=self.map_shape,
                unit_flux=self.unit_flux, grf=self.grf.build2d(self.map_shape),
                name=self.name or "power_map",
            )
        if self.family == "htc":
            return HTCInput(self._face(), self.low, self.high,
                            t_ambient=t_ambient, name=self.name)
        if self.family == "htc_map":
            return HTCMapInput(
                chip, face=self._face(), map_shape=self.map_shape,
                low=self.low, high=self.high, t_ambient=t_ambient,
                grf=self.grf.build2d(self.map_shape), name=self.name,
            )
        if self.family == "dirichlet":
            return DirichletInput(self._face(), self.low, self.high,
                                  name=self.name)
        if self.family == "volumetric_power_map":
            return VolumetricPowerMapInput(
                chip, map_shape=self.map_shape, unit_density=self.unit_density,
                grf=self.grf.build3d(self.map_shape),
                name=self.name or "power_map_3d",
            )
        return TransientPowerMapInput(
            chip, horizon=transient.horizon, face=self._face(),
            map_shape=self.map_shape, n_time_sensors=self.n_time_sensors,
            unit_flux=self.unit_flux, grf=self.grf.build2d(self.map_shape),
            traces=self.traces.build(), name=self.name or "transient_power",
        )


def _branch_widths(value, path, errors, spec):
    """One width list per input; a bad list falls back to ``(24, 24)``."""
    if not isinstance(value, (list, tuple)) or not value:
        errors.append(f"{path}: expected a list of width lists (one per "
                      f"input), got {value!r}")
        return DEFAULT
    widths = [_widths(item, f"{path}[{index}]", errors)
              for index, item in enumerate(value)]
    return tuple((24, 24) if item is DEFAULT else item for item in widths)


@dataclass
class NetworkSpec(Spec):
    """MIONet architecture: per-input branch widths, Fourier trunk, q."""

    branch_hidden: Tuple[Tuple[int, ...], ...] = spec_field(
        ((24, 24),), coerce=_branch_widths
    )
    trunk_hidden: Tuple[int, ...] = spec_field((24, 24), coerce=_widths)
    q: int = spec_field(16, coerce=_integer)
    fourier_frequencies: int = spec_field(8, coerce=_integer)
    fourier_std: float = spec_field(1.0, coerce=_number)
    activation: str = "swish"

    def build(self, branches: Sequence[Tuple[int, Sequence[int]]],
              trunk_coords: int, seed: int):
        """The :class:`~repro.nn.MIONet`, weights drawn from one RNG.

        One branch MLP per ``(sensor_dim, widths)`` pair, in order, then
        the Fourier features, then the trunk: the draw order every
        compiled model (and so every checkpoint) depends on.
        """
        from ..nn import MLP, FourierFeatures, MIONet, TrunkNet

        rng = np.random.default_rng(seed)
        nets = [
            MLP([dim] + list(widths) + [self.q], activation=self.activation,
                rng=rng)
            for dim, widths in branches
        ]
        fourier = FourierFeatures(trunk_coords, self.fourier_frequencies,
                                  std=self.fourier_std, rng=rng)
        trunk = MLP([fourier.out_features] + list(self.trunk_hidden) + [self.q],
                    activation=self.activation, rng=rng)
        return MIONet(nets, TrunkNet(trunk, fourier))

    def validate(self, path: str, errors: List[str], n_inputs: int) -> None:
        """Append human-actionable problems to ``errors``."""
        if len(self.branch_hidden) != n_inputs:
            errors.append(
                f"{path}.branch_hidden: {len(self.branch_hidden)} branch "
                f"stacks for {n_inputs} input(s) — one width list per input"
            )
        for index, widths in enumerate(self.branch_hidden):
            if any(w < 1 for w in widths):
                errors.append(f"{path}.branch_hidden[{index}]: widths must be "
                              f">= 1, got {list(widths)}")
        if any(w < 1 for w in self.trunk_hidden):
            errors.append(f"{path}.trunk_hidden: widths must be >= 1, "
                          f"got {list(self.trunk_hidden)}")
        if self.q < 1:
            errors.append(f"{path}.q: must be >= 1, got {self.q}")
        if self.fourier_frequencies < 1:
            errors.append(f"{path}.fourier_frequencies: must be >= 1, "
                          f"got {self.fourier_frequencies}")
        if self.fourier_std <= 0:
            errors.append(f"{path}.fourier_std: must be positive, "
                          f"got {self.fourier_std}")
        from ..nn.activations import activation_names

        if self.activation not in activation_names():
            errors.append(
                f"{path}.activation: unknown activation "
                f"{self.activation!r} (known: "
                f"{', '.join(activation_names())})"
            )


@dataclass
class CollocationSpec(Spec):
    """Where the physics residuals are enforced.

    ``mesh`` (fixed structured grid), ``random`` (fresh uniform draws,
    Experiment-B style) or ``transient`` (space-time cylinder + t=0).
    """

    kind: str = "mesh"
    grid: Tuple[int, int, int] = spec_field((5, 5, 4),    # mesh
                                            coerce=_int_tuple(3))
    n_interior: int = spec_field(300, coerce=_integer)  # random / transient
    n_per_face: int = spec_field(40, coerce=_integer)
    aligned: bool = spec_field(True, coerce=_boolean)   # random
    focus_band: Optional[Tuple[float, float, float]] = spec_field(
        None, coerce=_float_tuple(3)
    )
    n_initial: int = spec_field(128, coerce=_integer)   # transient

    _TAG = "kind"
    _TAG_NOUN = "collocation kind"
    _FIELDS = {
        "mesh": ("grid",),
        "random": ("n_interior", "n_per_face", "aligned", "focus_band"),
        "transient": ("n_interior", "n_per_face", "n_initial"),
    }

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.kind not in self._FIELDS:
            errors.append(f"{path}.kind: unknown collocation kind {self.kind!r}")
            return
        if self.kind == "mesh":
            if any(n < 2 for n in self.grid):
                errors.append(f"{path}.grid: need >= 2 nodes per axis, "
                              f"got {list(self.grid)}")
            return
        if self.n_interior < 1 or self.n_per_face < 1:
            errors.append(f"{path}: n_interior and n_per_face must be >= 1")
        if self.kind == "random" and self.focus_band is not None:
            z0, z1, fraction = self.focus_band
            if not (0.0 <= z0 < z1 <= 1.0 and 0.0 < fraction < 1.0):
                errors.append(f"{path}.focus_band: need [z0, z1, fraction] "
                              f"with 0 <= z0 < z1 <= 1 and 0 < fraction < 1, "
                              f"got {list(self.focus_band)}")
        if self.kind == "transient" and self.n_initial < 1:
            errors.append(f"{path}.n_initial: must be >= 1, "
                          f"got {self.n_initial}")

    def build(self, chip, nd, transient: Optional["TransientSectionSpec"]):
        """The concrete collocation configuration."""
        from ..core.sampler import (
            MeshCollocation,
            RandomCollocation,
            TransientCollocation,
        )
        from ..geometry import StructuredGrid

        if self.kind == "mesh":
            return MeshCollocation(StructuredGrid(chip, self.grid), nd)
        if self.kind == "random":
            return RandomCollocation(
                chip, nd, n_interior=self.n_interior,
                n_per_face=self.n_per_face, aligned=self.aligned,
                focus_band=self.focus_band,
            )
        return TransientCollocation(
            chip, nd, horizon=transient.horizon, n_interior=self.n_interior,
            n_per_face=self.n_per_face, n_initial=self.n_initial,
        )


@dataclass
class TrainingSpec(Spec):
    """Optimisation budget and schedule."""

    iterations: int = spec_field(700, coerce=_integer)
    n_functions: int = spec_field(6, coerce=_integer)
    learning_rate: float = spec_field(1e-3, coerce=_number)
    decay_rate: float = spec_field(0.9, coerce=_number)
    decay_every: int = spec_field(500, coerce=_integer)
    seed: int = spec_field(0, coerce=_integer)

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.iterations < 1:
            errors.append(f"{path}.iterations: must be >= 1, "
                          f"got {self.iterations}")
        if self.n_functions < 1:
            errors.append(f"{path}.n_functions: must be >= 1, "
                          f"got {self.n_functions}")
        if self.learning_rate <= 0:
            errors.append(f"{path}.learning_rate: must be positive, "
                          f"got {self.learning_rate}")
        if self.decay_every < 1:
            errors.append(f"{path}.decay_every: must be >= 1, "
                          f"got {self.decay_every}")

    def build(self):
        """The :class:`~repro.core.trainer.TrainerConfig` of this budget."""
        from ..core.trainer import TrainerConfig

        return TrainerConfig(**self.to_dict())


@dataclass
class TransientSectionSpec(Spec):
    """Time scales of a transient workload (maps to ``TransientSpec``)."""

    rho_cp: float = spec_field(1.6e6, coerce=_number)  # J/(m^3 K)
    horizon: float = spec_field(4.0, coerce=_number)   # s
    ic_grid: Tuple[int, int, int] = spec_field((5, 5, 4), coerce=_int_tuple(3))

    def validate(self, path: str, errors: List[str]) -> None:
        """Append human-actionable problems to ``errors``."""
        if self.rho_cp <= 0:
            errors.append(f"{path}.rho_cp: must be positive, got {self.rho_cp}")
        if self.horizon <= 0:
            errors.append(f"{path}.horizon: must be positive, "
                          f"got {self.horizon}")
        if any(n < 2 for n in self.ic_grid):
            errors.append(f"{path}.ic_grid: need >= 2 nodes per axis, "
                          f"got {list(self.ic_grid)}")

    def build(self):
        """The concrete transient section."""
        from ..core.transient import TransientSpec

        return TransientSpec(rho_cp=self.rho_cp, horizon=self.horizon,
                             ic_grid_shape=tuple(self.ic_grid))


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------
def _boundaries(value, path, errors, spec):
    if not isinstance(value, Mapping):
        errors.append(f"{path}: expected an object keyed by face name")
        return DEFAULT
    boundaries = {}
    for face, bc_data in value.items():
        if face not in _FACE_NAMES:
            errors.append(f"{path}: unknown face {face!r} "
                          f"(known: {', '.join(_FACE_NAMES)})")
        else:
            boundaries[face] = BoundarySpec.from_dict(bc_data, f"{path}.{face}",
                                                      errors)
    return boundaries


def _loss_weights(value, path, errors, spec):
    if value is None:
        return DEFAULT
    if (not isinstance(value, Mapping)
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value.values())):
        errors.append(f"{path}: expected an object of component -> numeric weight")
        return DEFAULT
    return {str(k): float(v) for k, v in value.items()}


@dataclass
class ThermalScenario(Document):
    """A fully-declarative thermal workload (see module docstring)."""

    name: str = spec_field("scenario", coerce=_name, required=True)
    description: str = ""
    scale: str = "custom"
    schema_version: int = SCHEMA_VERSION
    t_ambient: float = spec_field(298.15, coerce=_number)
    dt_ref: float = spec_field(10.0, coerce=_number)
    seed: int = spec_field(0, coerce=_integer)  # weight-init RNG seed
    geometry: GeometrySpec = section_field(GeometrySpec)
    material: MaterialSpec = section_field(MaterialSpec)
    boundaries: Dict[str, BoundarySpec] = spec_field(default_factory=dict,
                                                     coerce=_boundaries)
    volumetric_source: Optional[VolumetricSourceSpec] = section_field(
        VolumetricSourceSpec, optional=True
    )
    inputs: List[InputSpec] = section_list_field(InputSpec, "input")
    network: NetworkSpec = section_field(NetworkSpec)
    collocation: CollocationSpec = section_field(CollocationSpec)
    training: TrainingSpec = section_field(TrainingSpec)
    transient: Optional[TransientSectionSpec] = section_field(
        TransientSectionSpec, optional=True
    )
    loss_weights: Optional[Dict[str, float]] = spec_field(None,
                                                          coerce=_loss_weights)
    eval_grid: Tuple[int, int, int] = spec_field((13, 13, 9), coerce=_int_tuple(3))

    def to_dict(self) -> Dict:
        """JSON-ready dict form (an empty ``loss_weights`` reads as null)."""
        out = super().to_dict()
        out["loss_weights"] = out["loss_weights"] or None
        return out

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """All semantic problems with this scenario (empty = valid)."""
        errors: List[str] = []
        if not self.name:
            errors.append("name: required (a non-empty string)")
        if self.dt_ref <= 0:
            errors.append(f"dt_ref: must be positive, got {self.dt_ref}")
        self.geometry.validate("geometry", errors)
        self.material.validate("material", errors)
        for face, bc in self.boundaries.items():
            if face not in _FACE_NAMES:
                errors.append(f"boundaries: unknown face {face!r}")
            else:
                bc.validate(f"boundaries.{face}", errors)
        if self.volumetric_source is not None:
            self.volumetric_source.validate("volumetric_source", errors)
        if not self.inputs:
            errors.append("inputs: need at least one operator input")
        names = []
        for index, spec in enumerate(self.inputs):
            spec.validate(f"inputs[{index}]", errors)
            names.append(spec.name or self._default_input_name(spec))
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            errors.append(f"inputs: duplicate input names {duplicates} — give "
                          f"each input a unique 'name'")
        self.network.validate("network", errors, n_inputs=len(self.inputs))
        self.collocation.validate("collocation", errors)
        self.training.validate("training", errors)
        if any(n < 2 for n in self.eval_grid):
            errors.append(f"eval_grid: need >= 2 nodes per axis, "
                          f"got {list(self.eval_grid)}")
        # The loss reads a missing weight as 1.0, so a misspelt key
        # would weight nothing.
        known = ["pde"] + [f"bc:{face.upper()}" for face in _FACE_NAMES]
        if self.transient is not None:
            known.append("ic")
        for key, weight in (self.loss_weights or {}).items():
            if key not in known:
                errors.append(f"loss_weights: unknown component {key!r} "
                              f"(known: {', '.join(known)})")
            elif not (math.isfinite(weight) and weight >= 0):
                errors.append(f"loss_weights[{key!r}]: must be finite and "
                              f">= 0, got {weight}")

        has_transient_input = any(spec.family == "transient_power_map"
                                  for spec in self.inputs)
        if self.transient is not None:
            self.transient.validate("transient", errors)
            if not has_transient_input:
                errors.append("transient: section present but no "
                              "'transient_power_map' input consumes it")
            if self.collocation.kind != "transient":
                errors.append("collocation.kind: transient scenarios need "
                              f"'transient' collocation, got "
                              f"{self.collocation.kind!r}")
        else:
            if has_transient_input:
                errors.append("transient: a 'transient_power_map' input needs "
                              "a transient section (rho_cp, horizon, ic_grid)")
            if self.collocation.kind == "transient":
                errors.append("collocation.kind: 'transient' collocation "
                              "needs a transient section")

        if not self._is_well_posed():
            errors.append(
                "boundaries: ill-posed — every face is adiabatic and no "
                "input drives a convection/dirichlet face; heat has no way "
                "out, so the steady problem has no unique solution"
            )
        return _dedupe(errors)

    @staticmethod
    def _default_input_name(spec: InputSpec) -> str:
        if spec.family == "power_map":
            return "power_map"
        if spec.family == "volumetric_power_map":
            return "power_map_3d"
        if spec.family == "transient_power_map":
            return "transient_power"
        prefix = {"htc": "htc", "htc_map": "htc_map",
                  "dirichlet": "tfix"}[spec.family]
        return f"{prefix}_{spec.face}"

    def _is_well_posed(self) -> bool:
        if any(bc.kind in ("convection", "dirichlet")
               for bc in self.boundaries.values()):
            return True
        return any(spec.family in ("htc", "htc_map", "dirichlet")
                   for spec in self.inputs)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """SHA-256 over the canonical JSON of every *content* field.

        ``name``, ``description`` and the ``scale`` label are excluded:
        they are labels, not physics, so renaming a scenario must not
        orphan its checkpoints — while any change to an HTC bound, a
        power family, a network width or a training budget produces a
        different digest (and therefore a different registry slot).
        """
        payload = self.to_dict()
        for label in ("name", "description", "scale"):
            payload.pop(label, None)
        return canonical_digest(payload)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def compile(self):
        """Lower onto the execution stack as an ``ExperimentSetup``.

        Raises :class:`ScenarioValidationError` when invalid.  RNG
        consumption order (branches in input order, Fourier features,
        trunk) matches the legacy preset factories bitwise.
        """
        errors = self.validate()
        if errors:
            raise ScenarioValidationError(errors)

        from ..core.configs import ChipConfig
        from ..core.model import DeepOHeat
        from ..core.presets import ExperimentSetup
        from ..geometry import Face, StructuredGrid

        chip = self.geometry.build()
        bcs = {
            Face[face.upper()]: bc.build(self.t_ambient)
            for face, bc in self.boundaries.items()
        }
        config = ChipConfig(
            chip=chip,
            conductivity=self.material.build(),
            bcs=bcs,
            t_ambient=self.t_ambient,
        )
        if self.volumetric_source is not None:
            config = config.with_volumetric_power(
                self.volumetric_source.build(chip)
            )

        inputs = [
            spec.build(chip, self.t_ambient, self.transient)
            for spec in self.inputs
        ]

        net = self.network.build(
            [(spec.sensor_dim, widths)
             for spec, widths in zip(inputs, self.network.branch_hidden)],
            trunk_coords=3 if self.transient is None else 4, seed=self.seed,
        )

        model = DeepOHeat(
            config,
            inputs,
            net,
            dt_ref=self.dt_ref,
            loss_weights=dict(self.loss_weights) if self.loss_weights else None,
            transient=self.transient.build() if self.transient else None,
        )
        plan = self.collocation.build(chip, model.nd, self.transient)
        return ExperimentSetup(
            name=self.name,
            scale=self.scale,
            model=model,
            plan=plan,
            trainer_config=self.training.build(),
            eval_grid=StructuredGrid(chip, tuple(self.eval_grid)),
            description=self.description or f"scenario {self.name!r}",
            scenario=self,
        )

