"""Tests for the compiled serving engine (:mod:`repro.engine`)."""

import numpy as np
import pytest

from repro.api import scenario_for
from repro.engine import CompiledSurrogate, FrozenMIONet
from repro.geometry import StructuredGrid


@pytest.fixture(scope="module")
def setup_a():
    return scenario_for("a", scale="test").compile()


@pytest.fixture(scope="module")
def setup_b():
    return scenario_for("b", scale="test").compile()


def _designs_a(setup, n=6, seed=0):
    maps = setup.model.inputs[0].sample(np.random.default_rng(seed), n)
    return [{"power_map": m} for m in maps]


def _designs_b(setup, n=5, seed=1):
    rng = np.random.default_rng(seed)
    tops = setup.model.inputs[0].sample(rng, n)
    bottoms = setup.model.inputs[1].sample(rng, n)
    return [
        {"htc_top": top, "htc_bottom": bottom}
        for top, bottom in zip(tops, bottoms)
    ]


class TestFastForwardParity:
    """The tape-free nn fast path must match the autodiff forward."""

    def test_mlp_fast_forward_matches_forward(self, setup_a):
        import repro.autodiff as ad

        mlp = setup_a.model.net.branches[0]
        x = np.random.default_rng(2).normal(size=(7, mlp.in_features))
        with ad.no_grad():
            reference = mlp(ad.tensor(x)).data
        assert np.allclose(mlp.fast_forward(x), reference, atol=0, rtol=0)

    def test_trunk_fast_forward_matches_forward(self, setup_a):
        import repro.autodiff as ad

        trunk = setup_a.model.net.trunk
        points = np.random.default_rng(3).uniform(size=(11, 3))
        with ad.no_grad():
            reference = trunk(ad.tensor(points)).data
        assert np.allclose(trunk.fast_forward(points), reference, atol=0, rtol=0)

    def test_mionet_fast_cartesian_matches(self, setup_b):
        import repro.autodiff as ad

        net = setup_b.model.net
        rng = np.random.default_rng(4)
        branch_arrays = [
            rng.uniform(size=(4, branch.in_features)) for branch in net.branches
        ]
        points = rng.uniform(size=(9, 3))
        with ad.no_grad():
            reference = net.forward_cartesian(
                [ad.tensor(u) for u in branch_arrays], points
            ).data
        fast = net.fast_forward_cartesian(branch_arrays, points)
        assert np.allclose(fast, reference, atol=0, rtol=0)


class TestEngineCorrectness:
    def test_predict_batch_matches_legacy_per_design(self, setup_a):
        grid = setup_a.eval_grid
        designs = _designs_a(setup_a)
        engine = setup_a.model.compile()
        batched = engine.predict_batch(designs, grid=grid)
        for row, design in zip(batched, designs):
            legacy = setup_a.model.predict_many_uncached([design], grid.points())[0]
            assert np.abs(row - legacy).max() <= 1e-10

    def test_predict_batch_matches_legacy_multibranch(self, setup_b):
        grid = setup_b.eval_grid
        designs = _designs_b(setup_b)
        engine = setup_b.model.compile()
        batched = engine.predict_batch(designs, grid=grid)
        legacy = setup_b.model.predict_many_uncached(designs, grid.points())
        assert np.abs(batched - legacy).max() <= 1e-10

    def test_facade_predict_delegates_to_engine(self, setup_a):
        grid = setup_a.eval_grid
        design = _designs_a(setup_a, n=1)[0]
        via_facade = setup_a.model.predict(design, grid.points())
        via_engine = setup_a.model.engine.predict(design, points_si=grid.points())
        assert np.array_equal(via_facade, via_engine)
        field = setup_a.model.predict_grid(design, grid)
        assert field.shape == grid.shape

    def test_stacked_raw_mapping_batch(self, setup_a):
        grid = setup_a.eval_grid
        designs = _designs_a(setup_a, n=4)
        stacked = {"power_map": np.stack([d["power_map"] for d in designs])}
        engine = setup_a.model.compile()
        a = engine.predict_batch(designs, grid=grid)
        b = engine.predict_batch(stacked, grid=grid)
        assert np.array_equal(a, b)

    def test_missing_input_raises(self, setup_a):
        engine = setup_a.model.compile()
        with pytest.raises(KeyError):
            engine.predict_batch([{}], grid=setup_a.eval_grid)
        with pytest.raises(ValueError):
            engine.predict_batch([], grid=setup_a.eval_grid)

    def test_requires_exactly_one_point_source(self, setup_a):
        engine = setup_a.model.compile()
        designs = _designs_a(setup_a, n=1)
        with pytest.raises(ValueError):
            engine.predict_batch(designs)
        with pytest.raises(ValueError):
            engine.predict_batch(
                designs, grid=setup_a.eval_grid,
                points_si=setup_a.eval_grid.points(),
            )


class TestTrunkCache:
    def test_grid_reuse_hits_cache(self, setup_a):
        engine = setup_a.model.compile()
        designs = _designs_a(setup_a, n=2)
        engine.predict_batch(designs, grid=setup_a.eval_grid)
        engine.predict_batch(designs, grid=setup_a.eval_grid)
        info = engine.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_grid_change_invalidates(self, setup_a):
        engine = setup_a.model.compile()
        designs = _designs_a(setup_a, n=2)
        grid = setup_a.eval_grid
        coarse = StructuredGrid(grid.cuboid, (7, 7, 5))
        engine.predict_batch(designs, grid=grid)
        engine.predict_batch(designs, grid=coarse)
        engine.predict_batch(designs, grid=grid)
        info = engine.cache_info()
        # Two distinct grids -> two misses; the revisit hits.
        assert info.misses == 2 and info.hits == 1 and info.entries == 2

    def test_equal_grid_objects_share_entry(self, setup_a):
        engine = setup_a.model.compile()
        designs = _designs_a(setup_a, n=2)
        grid = setup_a.eval_grid
        clone = StructuredGrid(grid.cuboid, tuple(grid.shape))
        engine.predict_batch(designs, grid=grid)
        engine.predict_batch(designs, grid=clone)
        assert engine.cache_info().hits == 1

    def test_points_path_caches_by_content(self, setup_a):
        engine = setup_a.model.compile()
        designs = _designs_a(setup_a, n=2)
        points = setup_a.eval_grid.points()
        engine.predict_batch(designs, points_si=points)
        engine.predict_batch(designs, points_si=points.copy())
        assert engine.cache_info().hits == 1

    def test_lru_eviction(self, setup_a):
        engine = setup_a.model.compile(max_cache_entries=2)
        grid = setup_a.eval_grid
        for shape in [(5, 5, 3), (6, 6, 3), (7, 7, 3)]:
            engine.trunk_features(grid=StructuredGrid(grid.cuboid, shape))
        info = engine.cache_info()
        assert info.entries == 2
        # Oldest grid was evicted: touching it again is a miss.
        engine.trunk_features(grid=StructuredGrid(grid.cuboid, (5, 5, 3)))
        assert engine.cache_info().misses == 4

    def test_live_view_engine_tracks_weight_updates(self):
        setup = scenario_for("a", scale="test", seed=11).compile()
        model = setup.model
        grid = setup.eval_grid
        design = _designs_a(setup, n=1)[0]
        before = model.predict(design, grid.points())

        # Mutate a trunk weight in place, as every optimizer does.
        trunk_weight = model.net.trunk.mlp.layers[0].weight
        trunk_weight.data += 0.1

        after = model.predict(design, grid.points())
        assert not np.allclose(before, after)
        legacy = model.predict_many_uncached([design], grid.points())[0]
        assert np.abs(after - legacy).max() <= 1e-10

    def test_snapshot_engine_is_immune_to_weight_updates(self):
        setup = scenario_for("a", scale="test", seed=12).compile()
        model = setup.model
        grid = setup.eval_grid
        design = _designs_a(setup, n=1)[0]
        snapshot = model.compile(copy=True)
        before = snapshot.predict(design, grid=grid)
        model.net.trunk.mlp.layers[0].weight.data += 0.5
        model.net.branches[0].layers[0].weight.data += 0.5
        after = snapshot.predict(design, grid=grid)
        assert np.array_equal(before, after)


class TestFrozenInventory:
    def test_num_parameters_matches_module(self, setup_b):
        net = setup_b.model.net
        frozen = FrozenMIONet(net)
        assert frozen.num_parameters == net.num_parameters()

    def test_engine_repr_and_params(self, setup_a):
        engine = setup_a.model.compile()
        assert engine.num_parameters == setup_a.model.net.num_parameters()
        assert "snapshot" in repr(engine)
        assert "live-view" in repr(CompiledSurrogate(setup_a.model, copy=False))

    def test_clear_cache(self, setup_a):
        engine = setup_a.model.compile()
        engine.warmup(setup_a.eval_grid)
        engine.clear_cache()
        info = engine.cache_info()
        assert info == (0, 0, 0, info.max_entries)
