"""Finite-volume assembly of the steady heat equation on structured grids.

This module discretises the paper's governing PDE (eq. 2)

    div(k grad T) + q_V = 0

with the boundary conditions of Sec. III, playing the role of Celsius 3D
(the commercial FEM reference) in this reproduction.

Discretisation: vertex-centred finite volumes.  Each node owns a control
volume whose extent is half a cell at domain boundaries; conduction between
neighbouring nodes uses the harmonic mean of nodal conductivities (exact
for layered media); boundary faces carry either a prescribed influx
(Neumann/power map), a convective exchange (Robin), or a strong Dirichlet
row.  The scheme is conservative: summing all equations telescopes the
internal fluxes away, so discrete energy balance holds to machine precision
— the test-suite asserts this for every problem class.

Sign convention: the assembled system is ``M T = b`` with

    M = (conduction stiffness, an M-matrix) + diag(h A) on convection nodes
    b = q_V V + P A + h A T_amb

which is symmetric positive definite whenever at least one convection or
Dirichlet face is present; an all-insulated problem is singular and raises.

Assembly is split into two halves so repeated solves can share work (the
:mod:`repro.fdm.farm` subsystem builds on this):

* :func:`assemble_operator` — everything that shapes the matrix ``M``:
  conduction stiffness, convective diagonal, Dirichlet row structure.  The
  result carries a content digest (:func:`operator_digest`) over the grid,
  nodal conductivity and per-face BC structure (kind + HTC values), so two
  problems with equal digests share ``M`` exactly.
* :func:`assemble_rhs` — everything that only shapes ``b``: volumetric
  power, Neumann influx, ambient terms and Dirichlet values.  O(n) cheap.

:func:`assemble` composes the two and is numerically identical to the
historical single-pass assembly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..bc import AdiabaticBC, BoundaryCondition, ConvectionBC, DirichletBC, NeumannBC
from ..geometry import Face, StructuredGrid
from ..materials import ConductivityField, UniformConductivity
from ..power import VolumetricPower, ZeroPower


@dataclass
class HeatProblem:
    """A fully-specified steady conduction problem on a structured grid.

    Unspecified faces default to adiabatic, matching the paper's side
    surfaces.
    """

    grid: StructuredGrid
    conductivity: ConductivityField = field(default_factory=lambda: UniformConductivity(0.1))
    volumetric_power: VolumetricPower = field(default_factory=ZeroPower)
    bcs: Mapping[Face, BoundaryCondition] = field(default_factory=dict)

    def bc_for(self, face: Face) -> BoundaryCondition:
        """The boundary condition attached to ``face``, or ``None``."""
        return self.bcs.get(face, AdiabaticBC())

    def is_well_posed(self) -> bool:
        """True when at least one face pins the temperature level."""
        return any(
            isinstance(self.bc_for(face), (DirichletBC, ConvectionBC)) for face in Face
        )


@dataclass
class AssembledSystem:
    """The linear system plus the audit quantities the solver reports."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    # Pre-Dirichlet-elimination operator/rhs, for energy audits.
    matrix_raw: sp.csr_matrix
    rhs_raw: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray
    control_volumes: np.ndarray
    injected_power: float
    convection_conductance: np.ndarray  # h*A per node (0 off convection faces)
    ambient_weighted: np.ndarray  # h*A*T_amb per node


@dataclass
class FaceSlot:
    """Precomputed geometry of one boundary face, reused per-RHS.

    ``kind`` is the *operator-relevant* BC class: ``"neumann"`` (covers
    adiabatic — both leave the matrix untouched), ``"convection"`` or
    ``"dirichlet"``.
    """

    kind: str
    indices: np.ndarray  # flat node indices on the face
    area: np.ndarray  # boundary panel area owned by each face node
    points: np.ndarray  # SI coordinates of the face nodes
    htc_area: Optional[np.ndarray] = None  # h*A per node (convection only)


@dataclass
class OperatorPart:
    """The RHS-independent half of an assembled system.

    Everything here is a pure function of (grid, conductivity, BC
    structure) — the quantities hashed into ``key`` — so it can be cached
    and shared across any number of right-hand sides.  Consumers must
    treat all arrays/matrices as immutable.
    """

    key: str
    grid: StructuredGrid
    matrix: sp.csr_matrix  # Dirichlet-eliminated operator
    matrix_raw: sp.csr_matrix  # pre-elimination operator (energy audits)
    dirichlet_mask: np.ndarray
    control_volumes: np.ndarray  # flat nodal volumes
    volumes: np.ndarray  # (nx, ny, nz) nodal volumes
    convection_conductance: np.ndarray  # h*A per node (0 off convection faces)
    points: np.ndarray  # (n, 3) node coordinates
    dz_lo: np.ndarray  # z control-interval extents (power integration)
    dz_hi: np.ndarray
    face_slots: Dict[Face, FaceSlot] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        """Node count of the grid."""
        return int(self.points.shape[0])

    def apply_raw(self, x: np.ndarray) -> np.ndarray:
        """Apply the pre-elimination operator to ``x``.

        Part of the operator protocol shared with the matrix-free
        :class:`~repro.fdm.krylov.StencilOperator`, so RHS assembly and
        energy audits work against either representation.
        """
        return self.matrix_raw @ x


@dataclass
class RHSPart:
    """The RHS-only half: O(n) to build against a cached operator."""

    rhs: np.ndarray  # Dirichlet-eliminated right-hand side
    rhs_raw: np.ndarray  # pre-elimination right-hand side
    dirichlet_values: np.ndarray
    injected_power: float
    ambient_weighted: np.ndarray  # h*A*T_amb per node


def _bc_kind(bc: BoundaryCondition) -> str:
    """The operator-relevant kind of a BC (adiabatic folds into neumann)."""
    if isinstance(bc, NeumannBC):
        return "neumann"
    if isinstance(bc, ConvectionBC):
        return "convection"
    if isinstance(bc, DirichletBC):
        return "dirichlet"
    raise TypeError(f"unsupported boundary condition {bc!r}")


def _axis_weights(grid: StructuredGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis control-volume extents: h/2 at the two ends, h inside."""
    weights = []
    for axis in range(3):
        n = grid.shape[axis]
        h = grid.spacing[axis]
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        weights.append(w)
    return tuple(weights)


def _transverse_area(weights, axis: int, shape) -> np.ndarray:
    """Cross-section area per lattice site for faces normal to ``axis``."""
    others = [i for i in range(3) if i != axis]
    a, b = others
    area = np.ones(shape)
    expand_a = [None, None, None]
    expand_a[a] = slice(None)
    expand_b = [None, None, None]
    expand_b[b] = slice(None)
    area = weights[a][tuple(expand_a)] * weights[b][tuple(expand_b)]
    return np.broadcast_to(area, shape)


def _grid_digest(hasher, grid: StructuredGrid, k_nodes: np.ndarray) -> None:
    hasher.update(np.asarray(grid.cuboid.lo, dtype=np.float64).tobytes())
    hasher.update(np.asarray(grid.cuboid.hi, dtype=np.float64).tobytes())
    hasher.update(np.asarray(grid.shape, dtype=np.int64).tobytes())
    hasher.update(
        np.ascontiguousarray(np.asarray(k_nodes, dtype=np.float64)).tobytes()
    )


def _face_digest(hasher, face: Face, kind: str, htc=None) -> None:
    hasher.update(face.name.encode())
    hasher.update(kind.encode())
    if htc is not None:
        hasher.update(
            np.ascontiguousarray(np.asarray(htc, dtype=np.float64)).tobytes()
        )


def _digest(problem: HeatProblem, with_htc: bool) -> str:
    grid = problem.grid
    hasher = hashlib.sha256()
    _grid_digest(hasher, grid, problem.conductivity(grid.points()))
    for face in Face:
        bc = problem.bc_for(face)
        kind = _bc_kind(bc)
        htc = (
            bc.htc_values(grid.face_points(face))
            if with_htc and kind == "convection"
            else None
        )
        _face_digest(hasher, face, kind, htc)
    return hasher.hexdigest()


def operator_digest(problem: HeatProblem) -> str:
    """Content key of the operator half of ``problem``.

    Two problems share the digest iff they assemble the *same matrix*:
    same grid, same nodal conductivity, same BC kind per face and same
    HTC values on convection faces.  RHS-only data — volumetric power,
    Neumann influx (including adiabatic vs non-zero flux), ambient
    temperatures and Dirichlet *values* — is deliberately excluded.
    """
    return _digest(problem, with_htc=True)


def structure_digest(problem: HeatProblem) -> str:
    """:func:`operator_digest` with the HTC values left out.

    HTC enters the matrix only through the convective diagonal, so two
    problems with equal structure digests (same grid, nodal conductivity
    and BC kind per face) assemble matrices ``A_0`` and ``A_0 + diag(d)``.
    """
    return _digest(problem, with_htc=False)


def assemble_operator(problem: HeatProblem, key: Optional[str] = None) -> OperatorPart:
    """Build the RHS-independent operator half of a :class:`HeatProblem`.

    Raises ``ValueError`` for ill-posed (all-insulated) problems, because
    the steady temperature level would be undetermined.  ``key`` lets a
    caller that already computed :func:`operator_digest` skip recomputing
    it.
    """
    if not problem.is_well_posed():
        raise ValueError(
            "singular problem: every face is Neumann/adiabatic, so the "
            "temperature level is undetermined; add a convection or "
            "Dirichlet face"
        )

    grid = problem.grid
    shape = grid.shape
    n = grid.n_nodes
    points = grid.points()

    k_nodes = np.asarray(problem.conductivity(points), dtype=np.float64).reshape(shape)
    if np.any(k_nodes <= 0):
        raise ValueError("conductivity must be positive everywhere")
    # z control-interval extents, consumed by the RHS power integration.
    hz = grid.spacing[2]
    iz_index = np.arange(n) % shape[2]
    dz_lo = np.where(iz_index == 0, 0.0, 0.5 * hz)
    dz_hi = np.where(iz_index == shape[2] - 1, 0.0, 0.5 * hz)

    weights = _axis_weights(grid)
    volumes = (
        weights[0][:, None, None]
        * weights[1][None, :, None]
        * weights[2][None, None, :]
    )

    diag = np.zeros(shape)
    rows = []
    cols = []
    vals = []

    flat = np.arange(n).reshape(shape)
    # ------------------------------------------------------------------
    # Internode conduction, one axis at a time (vectorised).
    # ------------------------------------------------------------------
    for axis in range(3):
        h = grid.spacing[axis]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        k1 = k_nodes[tuple(lo)]
        k2 = k_nodes[tuple(hi)]
        k_face = 2.0 * k1 * k2 / (k1 + k2)
        area = _transverse_area(weights, axis, k_face.shape)
        conductance = (k_face * area / h).ravel()
        i_idx = flat[tuple(lo)].ravel()
        j_idx = flat[tuple(hi)].ravel()
        rows.extend([i_idx, j_idx])
        cols.extend([j_idx, i_idx])
        vals.extend([-conductance, -conductance])
        np.add.at(diag.ravel(), i_idx, conductance)
        np.add.at(diag.ravel(), j_idx, conductance)

    # ------------------------------------------------------------------
    # Boundary faces: matrix-side contributions + per-face geometry slots.
    # ------------------------------------------------------------------
    convection_conductance = np.zeros(n)
    dirichlet_mask = np.zeros(n, dtype=bool)
    face_slots: Dict[Face, FaceSlot] = {}
    flat_diag = diag.ravel()
    hasher = hashlib.sha256() if key is None else None
    if hasher is not None:
        _grid_digest(hasher, grid, k_nodes)
    for face in Face:
        bc = problem.bc_for(face)
        kind = _bc_kind(bc)
        idx = grid.face_indices(face)
        face_points = points[idx]
        # Boundary panel area owned by each face node.
        a_axis, b_axis = face.tangent_axes
        ia, ib, ic = grid.unravel(idx)
        per_axis = (ia, ib, ic)
        area = weights[a_axis][per_axis[a_axis]] * weights[b_axis][per_axis[b_axis]]
        slot = FaceSlot(kind=kind, indices=idx, area=area, points=face_points)
        htc = None
        if kind == "convection":
            htc = bc.htc_values(face_points)
            if np.any(htc < 0):
                raise ValueError(f"negative HTC on face {face.name}")
            slot.htc_area = htc * area
            np.add.at(convection_conductance, idx, slot.htc_area)
        elif kind == "dirichlet":
            dirichlet_mask[idx] = True
        if hasher is not None:
            _face_digest(hasher, face, kind, htc)
        face_slots[face] = slot

    flat_diag += convection_conductance

    rows.append(flat)
    cols.append(flat)
    vals.append(flat_diag)
    matrix_raw = sp.coo_matrix(
        (
            np.concatenate([v.ravel() for v in vals]),
            (
                np.concatenate([r.ravel() for r in rows]),
                np.concatenate([c.ravel() for c in cols]),
            ),
        ),
        shape=(n, n),
    ).tocsr()

    # ------------------------------------------------------------------
    # Symmetric Dirichlet elimination: M <- D_k + P_u M P_u.
    # ------------------------------------------------------------------
    if dirichlet_mask.any():
        selector = sp.diags((~dirichlet_mask).astype(np.float64))
        pinned = sp.diags(dirichlet_mask.astype(np.float64))
        matrix = (selector @ matrix_raw @ selector + pinned).tocsr()
    else:
        matrix = matrix_raw

    return OperatorPart(
        key=key if key is not None else hasher.hexdigest(),
        grid=grid,
        matrix=matrix,
        matrix_raw=matrix_raw,
        dirichlet_mask=dirichlet_mask,
        control_volumes=volumes.ravel(),
        volumes=volumes,
        convection_conductance=convection_conductance,
        points=points,
        dz_lo=dz_lo,
        dz_hi=dz_hi,
        face_slots=face_slots,
    )


def assemble_rhs(problem: HeatProblem, operator: OperatorPart) -> RHSPart:
    """Build the right-hand side of ``problem`` against a cached operator.

    ``problem`` must be operator-compatible with ``operator`` (equal
    :func:`operator_digest`); BC *kinds* are re-checked here, HTC values
    are trusted (the digest covers them on the cached path).
    """
    shape = operator.grid.shape
    points = operator.points
    # Volumetric power is integrated over each node's z control interval
    # (not point-sampled): thin source layers would otherwise be missed or
    # over-counted by up to a cell width (see VolumetricPower.cell_average).
    power = problem.volumetric_power
    if hasattr(power, "cell_average"):
        q_values = power.cell_average(points, operator.dz_lo, operator.dz_hi)
    else:
        q_values = np.asarray(power(points), dtype=np.float64)
    q_nodes = np.asarray(q_values, dtype=np.float64).reshape(shape)

    n = operator.n_nodes
    rhs = q_nodes * operator.volumes
    ambient_weighted = np.zeros(n)
    dirichlet_values = np.zeros(n)
    injected = float(np.sum(rhs))  # volumetric power, W

    flat_rhs = rhs.ravel()
    for face in Face:
        bc = problem.bc_for(face)
        slot = operator.face_slots[face]
        kind = _bc_kind(bc)
        if kind != slot.kind:
            raise ValueError(
                f"face {face.name}: problem has a {kind} condition but the "
                f"cached operator was assembled for {slot.kind}; the "
                "operator digest must match before reusing it"
            )
        if kind == "neumann":
            influx = bc.flux_into_body(slot.points)
            np.add.at(flat_rhs, slot.indices, influx * slot.area)
            injected += float(np.sum(influx * slot.area))
        elif kind == "convection":
            np.add.at(ambient_weighted, slot.indices, slot.htc_area * bc.t_ambient)
        else:  # dirichlet
            dirichlet_values[slot.indices] = bc.temperature(slot.points)

    flat_rhs += ambient_weighted
    rhs_vector = flat_rhs.copy()
    rhs_raw = rhs_vector.copy()

    if operator.dirichlet_mask.any():
        mask = operator.dirichlet_mask
        known = np.zeros(n)
        known[mask] = dirichlet_values[mask]
        rhs_vector = rhs_vector - operator.apply_raw(known)
        rhs_vector[mask] = dirichlet_values[mask]

    return RHSPart(
        rhs=rhs_vector,
        rhs_raw=rhs_raw,
        dirichlet_values=dirichlet_values,
        injected_power=injected,
        ambient_weighted=ambient_weighted,
    )


def compose_system(operator: OperatorPart, rhs: RHSPart) -> AssembledSystem:
    """Stitch the two halves back into the legacy :class:`AssembledSystem`."""
    return AssembledSystem(
        matrix=operator.matrix,
        rhs=rhs.rhs,
        matrix_raw=operator.matrix_raw,
        rhs_raw=rhs.rhs_raw,
        dirichlet_mask=operator.dirichlet_mask,
        dirichlet_values=rhs.dirichlet_values,
        control_volumes=operator.control_volumes,
        injected_power=rhs.injected_power,
        convection_conductance=operator.convection_conductance,
        ambient_weighted=rhs.ambient_weighted,
    )


def assemble(problem: HeatProblem) -> AssembledSystem:
    """Build the sparse system for a :class:`HeatProblem`.

    Raises ``ValueError`` for ill-posed (all-insulated) problems, because
    the steady temperature level would be undetermined.
    """
    operator = assemble_operator(problem)
    return compose_system(operator, assemble_rhs(problem, operator))
