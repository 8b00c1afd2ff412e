"""Tests for the extended configuration inputs.

Covers the capabilities the paper claims or defers:

* inhomogeneous HTC distributions encoded like power maps (Sec. IV-A),
* Dirichlet boundaries as varying configurations (Sec. III),
* 3-D volumetric power maps as operator inputs (Sec. VI future work).
"""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.bc import ConvectionBC, DirichletBC
from repro.core import (
    ChipConfig,
    DirichletInput,
    HTCMapInput,
    VolumetricPowerMapInput,
)
from repro.core.losses import PhysicsLossBuilder
from repro.fdm import solve_steady
from repro.geometry import Face, StructuredGrid, paper_chip_a
from repro.materials import UniformConductivity

T_AMB = 298.15


def _config():
    return ChipConfig(
        chip=paper_chip_a(),
        conductivity=UniformConductivity(0.1),
        bcs={Face.BOTTOM: ConvectionBC(500.0, T_AMB)},
        t_ambient=T_AMB,
    )


class TestHTCMapInput:
    def _input(self):
        return HTCMapInput(chip=paper_chip_a(), face=Face.BOTTOM,
                           map_shape=(5, 5), low=300.0, high=900.0)

    def test_samples_within_range(self):
        maps = self._input().sample(np.random.default_rng(0), 20)
        assert maps.shape == (20, 5, 5)
        assert maps.min() >= 300.0 and maps.max() <= 900.0

    def test_encode_normalises(self):
        encoder = self._input()
        raw = np.full((1, 5, 5), 600.0)
        encoded = encoder.encode(raw)
        assert encoded.shape == (1, 25)
        assert np.allclose(encoded, 0.5)

    def test_values_at_interpolates(self):
        encoder = self._input()
        htc_map = np.full((5, 5), 450.0)
        pts = np.array([[0.5e-3, 0.5e-3, 0.0]])
        assert np.allclose(encoder.values_at(htc_map, pts), 450.0)

    def test_apply_creates_convection_bc(self):
        applied = self._input().apply(_config(), np.full((5, 5), 700.0))
        bc = applied.bc_for(Face.BOTTOM)
        assert isinstance(bc, ConvectionBC)
        assert bc.htc_values(np.array([[0.5e-3, 0.5e-3, 0.0]]))[0] == pytest.approx(700.0)

    def test_residual_kind(self):
        assert self._input().residual_kind == "convection"

    def test_side_face_rejected(self):
        with pytest.raises(ValueError):
            HTCMapInput(chip=paper_chip_a(), face=Face.XMIN)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            HTCMapInput(chip=paper_chip_a(), low=500.0, high=500.0)

    def test_loss_builder_accepts_htc_map(self):
        """The builder must route an HTC-map input through the Robin rule."""
        from repro.nn.taylor import DerivativeStreams
        from repro import autodiff as ad

        config = _config()
        encoder = self._input()
        builder = PhysicsLossBuilder(config, [encoder], config.nondimensionalizer())
        pts_hat = np.random.default_rng(1).uniform(size=(2, 4, 3))
        pts_hat[..., 2] = 0.0
        si = builder.nd.to_si(pts_hat.reshape(-1, 3)).reshape(2, 4, 3)
        zeros = np.zeros((2, 4))
        streams = DerivativeStreams(
            value=ad.tensor(np.full((2, 4), 1.0)),
            gradient=[ad.tensor(zeros)] * 3,
            hessian_diag=[ad.tensor(zeros)] * 3,
        )
        raws = [encoder.sample(np.random.default_rng(2), 2)]
        residual = builder.face_residual(Face.BOTTOM, streams, si, raws)
        # Residual = -G_z + Biot * theta = h * L_z / k with theta = 1.
        assert residual.shape == (2, 4)
        assert np.all(residual.data > 0.0)
        # Per-function distinction: different maps give different residuals.
        assert not np.allclose(residual.data[0], residual.data[1])


class TestDirichletInput:
    def test_sample_and_encode(self):
        din = DirichletInput(Face.BOTTOM, 293.15, 323.15)
        values = din.sample(np.random.default_rng(0), 50)
        assert np.all((values >= 293.15) & (values <= 323.15))
        encoded = din.encode(np.array([293.15, 323.15]))
        assert np.allclose(encoded[:, 0], [0.0, 1.0])

    def test_apply(self):
        din = DirichletInput(Face.BOTTOM)
        applied = din.apply(_config(), 300.0)
        bc = applied.bc_for(Face.BOTTOM)
        assert isinstance(bc, DirichletBC)
        assert bc.temperature(np.zeros((1, 3)))[0] == pytest.approx(300.0)

    def test_residual_rule_in_builder(self):
        from repro.nn.taylor import DerivativeStreams
        from repro import autodiff as ad

        config = _config()
        din = DirichletInput(Face.BOTTOM, 293.15, 323.15)
        builder = PhysicsLossBuilder(config, [din], config.nondimensionalizer())
        si = np.zeros((1, 3, 3))
        zeros = np.zeros((1, 3))
        streams = DerivativeStreams(
            value=ad.tensor(np.full((1, 3), 0.5)),
            gradient=[ad.tensor(zeros)] * 3,
            hessian_diag=[ad.tensor(zeros)] * 3,
        )
        raws = [np.array([T_AMB + 5.0])]
        residual = builder.face_residual(Face.BOTTOM, streams, si, raws)
        assert np.allclose(residual.data, 0.5 - 0.5)  # (T_d - T_ref)/10 = 0.5

    def test_default_name(self):
        assert DirichletInput(Face.TOP).name == "tfix_top"

    def test_validation(self):
        with pytest.raises(ValueError):
            DirichletInput(Face.TOP, 300.0, 300.0)


class TestVolumetricPowerMapInput:
    def _input(self):
        return VolumetricPowerMapInput(
            chip=paper_chip_a(), map_shape=(4, 4, 3), unit_density=1e6
        )

    def test_sample_nonnegative(self):
        maps = self._input().sample(np.random.default_rng(0), 5)
        assert maps.shape == (5, 4, 4, 3)
        assert np.all(maps >= 0.0)

    def test_encode_flattens(self):
        encoded = self._input().encode(np.ones((2, 4, 4, 3)))
        assert encoded.shape == (2, 48)

    def test_values_at_density_units(self):
        encoder = self._input()
        uniform = np.ones((4, 4, 3))
        pts = np.array([[0.5e-3, 0.5e-3, 0.25e-3]])
        assert np.allclose(encoder.values_at(uniform, pts), 1e6)

    def test_apply_sets_volumetric_power(self):
        encoder = self._input()
        applied = encoder.apply(_config(), np.ones((4, 4, 3)))
        pts = np.array([[0.5e-3, 0.5e-3, 0.25e-3]])
        assert applied.volumetric_power.density(pts)[0] == pytest.approx(1e6)

    def test_residual_kind_volumetric(self):
        assert self._input().residual_kind == "volumetric"

    def test_two_volumetric_inputs_rejected(self):
        config = _config()
        with pytest.raises(ValueError, match="volumetric"):
            PhysicsLossBuilder(
                config,
                [self._input(), VolumetricPowerMapInput(
                    chip=paper_chip_a(), map_shape=(4, 4, 3), name="dup")],
                config.nondimensionalizer(),
            )

    def test_interior_residual_uses_input_source(self):
        from repro.nn.taylor import DerivativeStreams
        from repro import autodiff as ad

        config = _config()
        encoder = self._input()
        builder = PhysicsLossBuilder(config, [encoder], config.nondimensionalizer())
        si = np.tile(np.array([[0.5e-3, 0.5e-3, 0.25e-3]]), (1, 1)).reshape(1, 1, 3)
        zeros = np.zeros((1, 1))
        streams = DerivativeStreams(
            value=ad.tensor(zeros),
            gradient=[ad.tensor(zeros)] * 3,
            hessian_diag=[ad.tensor(zeros)] * 3,
        )
        raws = [np.ones((1, 4, 4, 3))]
        residual = builder.interior_residual(streams, si, raws)
        expected = 1e6 * (1e-3) ** 2 / (0.1 * 10.0)
        assert np.allclose(residual.data, expected)


class TestVolumetricPreset:
    def test_construction(self):
        setup = scenario_for("volumetric", scale="test").compile()
        assert setup.model.inputs[0].residual_kind == "volumetric"
        assert setup.name == "experiment_volumetric"
        with pytest.raises(ValueError, match="unknown scale"):
            scenario_for("volumetric", scale="paper").compile()

    def test_trained_extension_beats_untrained(self):
        setup = scenario_for("volumetric", scale="test", seed=1).compile()
        setup.make_trainer().run()
        fresh = scenario_for("volumetric", scale="test", seed=42).compile()
        rng = np.random.default_rng(9)
        raw = setup.model.inputs[0].sample(rng, 1)[0]
        design = {"power_map_3d": raw}
        grid = StructuredGrid(paper_chip_a(), (7, 7, 5))
        reference = solve_steady(
            setup.model.concrete_config(design).heat_problem(grid)
        ).temperature
        trained_err = np.abs(
            setup.model.predict(design, grid.points()) - reference
        ).mean()
        fresh_err = np.abs(
            fresh.model.predict(design, grid.points()) - reference
        ).mean()
        assert trained_err < fresh_err
