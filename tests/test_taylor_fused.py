"""Parity contract of the fused stacked derivative-stream kernels.

The stacked layout (`repro.nn.taylor.StackedStreams`) and its fused
single-node Dense/activation kernels are the training hot path; this
module pins them against the legacy per-axis tape chains, which the
generic double-backward machinery verifies independently in
``test_nn_taylor.py``:

* forward stream parity (value, per-axis gradient, per-axis Hessian
  diagonal) to <= 1e-12;
* the Laplacian-fused layout against the explicitly weighted sum of
  per-axis Hessians;
* parameter gradients through the *full physics loss* to <= 1e-12;
* bit-identical trainer loss histories for both paths;
* the in-place Adam / clip_grad_norm / sampler-cache satellites.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import autodiff as ad
from repro import nn
from repro.api import scenario_for
from repro.core.sampler import MeshCollocation
from repro.core.trainer import Trainer
from repro.nn.taylor import trunk_stacked, trunk_with_derivatives

ATOL = 1e-12

# Experiments A and B, with the preset names as test ids.
PRESETS = [
    pytest.param("a", id="experiment_a"),
    pytest.param("b", id="experiment_b"),
]


def _trunk(activation="swish", seed=0, with_fourier=True):
    rng = np.random.default_rng(seed)
    fourier = None
    in_width = 3
    if with_fourier:
        fourier = nn.FourierFeatures(3, 5, std=1.3, rng=rng)
        in_width = fourier.out_features
    mlp = nn.MLP([in_width, 14, 14, 6], activation=activation, rng=rng)
    return mlp, fourier


def _points(n=17, seed=3):
    return np.random.default_rng(seed).uniform(size=(n, 3))


class TestActivationTaylor3:
    @pytest.mark.parametrize(
        "name", ["swish", "tanh", "sine", "gelu", "relu", "identity"]
    )
    def test_closed_form_derivatives(self, name):
        """array_taylor3 matches the tape ops and finite differences."""
        act = nn.get_activation(name)
        x = np.linspace(-2.0, 2.0, 41)
        value, first, second, third = act.array_taylor3(x)
        assert np.allclose(value, act.value(ad.tensor(x)).data, atol=ATOL)
        assert np.allclose(first, act.first(ad.tensor(x)).data, atol=ATOL)
        assert np.allclose(second, act.second(ad.tensor(x)).data, atol=ATOL)
        h = 1e-5
        _, _, sec_plus, _ = act.array_taylor3(x + h)
        _, _, sec_minus, _ = act.array_taylor3(x - h)
        assert np.allclose(third, (sec_plus - sec_minus) / (2 * h), atol=1e-7)


class TestStackedStreamParity:
    @pytest.mark.parametrize("with_fourier", [True, False])
    @pytest.mark.parametrize("activation", ["swish", "tanh", "sine", "gelu"])
    def test_full_layout_matches_legacy(self, activation, with_fourier):
        """Value/gradient/Hessian parity for the fused kernels."""
        mlp, fourier = _trunk(activation, with_fourier=with_fourier)
        pts = _points()
        legacy = trunk_with_derivatives(pts, mlp, fourier, stacked=False)
        fused = trunk_with_derivatives(pts, mlp, fourier, stacked=True)
        assert np.allclose(legacy.value.data, fused.value.data, atol=ATOL)
        for axis in range(3):
            assert np.allclose(
                legacy.gradient[axis].data, fused.gradient[axis].data, atol=ATOL
            )
            assert np.allclose(
                legacy.hessian_diag[axis].data,
                fused.hessian_diag[axis].data,
                atol=ATOL,
            )

    def test_composed_fallback_without_taylor3(self):
        """Activations lacking a closed-form third derivative run the
        composed tape fallback of the stacked path — same numbers."""

        class PlainGelu(nn.Gelu):
            def array_taylor3(self, x):
                return None

        rng = np.random.default_rng(2)
        mlp = nn.MLP([3, 12, 6], activation=PlainGelu(), rng=rng)
        pts = _points()
        legacy = trunk_with_derivatives(pts, mlp, None, stacked=False)
        fused = trunk_with_derivatives(pts, mlp, None, stacked=True)
        assert np.allclose(legacy.value.data, fused.value.data, atol=ATOL)
        for axis in range(3):
            assert np.allclose(
                legacy.hessian_diag[axis].data,
                fused.hessian_diag[axis].data,
                atol=ATOL,
            )

    def test_laplacian_fused_layout(self):
        """[V; G; sum_i w_i H_i] equals the weighted per-axis combination."""
        mlp, fourier = _trunk()
        pts = _points()
        weights = (1.0, 4.0, 0.25)
        legacy = trunk_with_derivatives(pts, mlp, fourier, stacked=False)
        fused = trunk_stacked(pts, mlp, fourier, laplacian_weights=weights)
        streams = fused.unpack()
        assert streams.hessian_diag == []
        assert streams.laplacian_axis_weights == weights
        expected = legacy.laplacian(weights)
        assert np.allclose(
            streams.laplacian(weights).data, expected.data, atol=ATOL
        )
        for axis in range(3):
            assert np.allclose(
                legacy.gradient[axis].data, streams.gradient[axis].data,
                atol=ATOL,
            )

    def test_laplacian_weight_mismatch_rejected(self):
        mlp, fourier = _trunk()
        streams = trunk_stacked(
            _points(), mlp, fourier, laplacian_weights=(1.0, 2.0, 3.0)
        ).unpack()
        with pytest.raises(ValueError):
            streams.laplacian((1.0, 1.0, 1.0))

    def test_trunk_prefix_cache_reuses_constant_stage(self):
        """Same points array object -> cached seed/Fourier prefix, same
        numbers; a different array invalidates by identity."""
        mlp, fourier = _trunk()
        trunk = nn.TrunkNet(mlp, fourier)
        pts = _points()
        first = trunk.stacked_streams(pts)
        assert trunk._stack_prefix_cache is not None
        second = trunk.stacked_streams(pts)
        assert np.array_equal(first.data.data, second.data.data)
        other = trunk.stacked_streams(_points(seed=11))
        reference = trunk_stacked(_points(seed=11), mlp, fourier)
        assert np.allclose(other.data.data, reference.data.data, atol=ATOL)

    def test_fused_kernels_reject_create_graph(self):
        """Higher-order derivatives are the legacy path's job."""
        mlp, fourier = _trunk()
        streams = trunk_with_derivatives(_points(), mlp, fourier, stacked=True)
        loss = ad.mean_square(streams.value)
        with pytest.raises(NotImplementedError):
            ad.grad(loss, mlp.parameters(), create_graph=True)


class TestPhysicsLossGradientParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_parameter_gradients_match(self, preset):
        """d(loss)/d(theta) agrees between stacked and legacy through the
        full physics loss (cartesian for A, aligned for B)."""
        setup = scenario_for(preset, scale="test").compile()
        rng = np.random.default_rng(0)
        raws = [ci.sample(rng, 4) for ci in setup.model.inputs]
        batch = setup.plan.batch(rng, 4)
        params = setup.model.net.parameters()

        total_legacy, _ = setup.model.compute_loss(raws, batch, stacked=False)
        grads_legacy = ad.grad(total_legacy, params)
        total_fused, _ = setup.model.compute_loss(raws, batch, stacked=True)
        grads_fused = ad.grad(total_fused, params)

        assert abs(total_legacy.item() - total_fused.item()) <= ATOL * max(
            1.0, abs(total_legacy.item())
        )
        for gl, gf in zip(grads_legacy, grads_fused):
            scale = max(1.0, float(np.max(np.abs(gl.data))))
            assert np.max(np.abs(gl.data - gf.data)) <= ATOL * scale


class TestSelectiveCombineCoverage:
    def test_dirichlet_face_trains_on_stacked_path(self):
        """Dirichlet residuals read only the value stream; the selective
        combine must still serve them (regression: eager normal-grad
        access crashed on the stacked default)."""
        from repro.bc import DirichletBC
        from repro.core.model import DeepOHeat
        from repro.geometry import Face

        setup = scenario_for("a", scale="test").compile()
        model = setup.model
        patched = DeepOHeat(
            model.config.with_bc(Face.XMIN, DirichletBC(300.0)),
            model.inputs,
            model.net,
        )
        rng = np.random.default_rng(0)
        raws = [ci.sample(rng, 3) for ci in patched.inputs]
        batch = setup.plan.batch(rng, 3)
        total_fused, _ = patched.compute_loss(raws, batch, stacked=True)
        total_legacy, _ = patched.compute_loss(raws, batch, stacked=False)
        assert total_fused.item() == pytest.approx(total_legacy.item(), rel=1e-12)

    def test_requirements_match_residual_branching(self):
        setup = scenario_for("a", scale="test").compile()
        requirements = setup.model.builder.stream_requirements()
        assert requirements["interior"] == ("laplacian",)
        assert requirements["TOP"] == ("grad2",)          # neumann power map
        assert requirements["BOTTOM"] == ("grad2", "value")  # convection
        assert requirements["XMIN"] == ("grad0",)         # adiabatic


class TestTrainerDeterminism:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_identical_loss_history(self, preset):
        """Same seed, both propagation paths -> the same loss trajectory
        (<= 1e-10 relative; in practice they agree to machine epsilon)."""
        histories = []
        for stacked in (False, True):
            setup = scenario_for(preset, scale="test").compile()
            cfg = replace(
                setup.trainer_config, iterations=6, stacked=stacked, log_every=1
            )
            histories.append(
                np.asarray(Trainer([(setup.model, setup.plan)], cfg).run().total_loss)
            )
        legacy, fused = histories
        assert np.all(np.abs(fused - legacy) <= 1e-10 * np.abs(legacy))


class TestFusedReductions:
    def test_sum_squares_and_mean_square_values(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 9))
        t = ad.tensor(x, requires_grad=True)
        assert ad.sum_squares(t).item() == pytest.approx(float(np.sum(x * x)))
        assert ad.mean_square(t).item() == pytest.approx(float(np.mean(x * x)))
        assert t.sum_squares().item() == pytest.approx(float(np.sum(x * x)))

    def test_gradients_match_composed_chain(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        t = ad.tensor(x, requires_grad=True)
        (g_fused,) = ad.grad(ad.mean_square(t), [t])
        (g_chain,) = ad.grad(ad.mean(t * t), [t])
        assert np.allclose(g_fused.data, g_chain.data, atol=ATOL)

    def test_double_backward(self):
        """The VJP is built from tape ops, so create_graph works."""
        t = ad.tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (first,) = ad.grad(ad.sum_squares(t), [t], create_graph=True)
        (second,) = ad.grad(first.sum(), [t])
        assert np.allclose(second.data, [2.0, 2.0, 2.0])


class TestOptimizerSatellites:
    def test_adam_step_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        x_ref = rng.normal(size=(4, 3))
        param = ad.tensor(x_ref.copy(), requires_grad=True)
        opt = nn.Adam([param], lr=0.05)
        m = np.zeros_like(x_ref)
        v = np.zeros_like(x_ref)
        value = x_ref.copy()
        for t in range(1, 6):
            grad = rng.normal(size=x_ref.shape)
            opt.step([grad.copy()])
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            value = value - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(param.data, value, atol=1e-12)

    def test_adam_does_not_mutate_gradients(self):
        param = ad.tensor(np.zeros(3), requires_grad=True)
        grad = np.array([1.0, 2.0, 3.0])
        nn.Adam([param]).step([grad])
        assert np.array_equal(grad, [1.0, 2.0, 3.0])

    def test_clip_grad_norm_scales_in_place(self):
        grads = [np.array([3.0]), np.array([4.0])]
        clipped = nn.clip_grad_norm(grads, 1.0)
        assert clipped[0] is grads[0] and clipped[1] is grads[1]
        total = np.sqrt(sum(np.sum(g**2) for g in clipped))
        assert total == pytest.approx(1.0)

    def test_resolve_grads_passes_ndarrays_through(self):
        param = ad.tensor(np.zeros(2), requires_grad=True)
        opt = nn.SGD([param], lr=0.1)
        grad = np.ones(2)
        assert opt._resolve_grads([grad])[0] is grad

    def test_clip_does_not_double_scale_aliased_grads(self):
        """add(a, b) with equal shapes hands both parents the same
        cotangent; neither ad.grad nor the in-place clip may let that
        shared buffer get scaled twice."""
        a = ad.tensor(np.array([3.0]), requires_grad=True)
        b = ad.tensor(np.array([4.0]), requires_grad=True)
        ga, gb = ad.grad(ad.sum_squares(a + b), [a, b])
        assert ga is not gb
        clipped = nn.clip_grad_norm([ga.data, gb.data], 1.0)
        total = np.sqrt(sum(np.sum(g**2) for g in clipped))
        assert total == pytest.approx(1.0)

    def test_clip_does_not_double_scale_view_aliased_grads(self):
        """reshape's VJP returns a *view* of the shared cotangent — a
        distinct array object on the same memory; ad.grad must copy it."""
        a = ad.tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = ad.tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.sum_squares(a + ad.reshape(b, (1, 2)))
        ga, gb = ad.grad(loss, [a, b])
        assert not np.may_share_memory(ga.data, gb.data)
        clipped = nn.clip_grad_norm([ga.data, gb.data], 1.0)
        total = np.sqrt(sum(np.sum(g**2) for g in clipped))
        assert total == pytest.approx(1.0)
        # And clip itself dedupes literally-shared buffers by identity.
        shared = np.array([3.0, 4.0])
        out = nn.clip_grad_norm([shared, shared], 1.0)
        assert np.allclose(out[0], shared)
        assert np.sqrt(2 * np.sum(shared**2)) == pytest.approx(1.0)


class TestMeshCollocationCache:
    def test_batch_is_precomputed_and_reused(self):
        setup = scenario_for("a", scale="test").compile()
        assert isinstance(setup.plan, MeshCollocation)
        rng = np.random.default_rng(0)
        a = setup.plan.batch(rng, 3)
        b = setup.plan.batch(rng, 5)
        assert a is b
        for region in a.regions:
            assert a.hat[region] is b.hat[region]
            assert a.si[region] is b.si[region]
