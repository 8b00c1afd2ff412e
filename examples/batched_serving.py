"""Batched serving with the compiled engine.

The amortization workload: train (or load) one DeepOHeat model, then
evaluate a large batch of candidate power maps at interactive speed via
:class:`repro.engine.CompiledSurrogate`.  Trunk features over the fixed
evaluation grid are computed once and cached; each design then costs one
branch-MLP row and a slice of a single matmul.

Run from the repo root:

    PYTHONPATH=src python examples/batched_serving.py
"""

import time

import numpy as np

from repro.analysis import kv_block, model_summary
from repro.api import scenario_for


def main():
    # "test" scale keeps this demo in seconds; train a "ci"/"paper"
    # scenario through ThermalService to serve a properly-trained one.
    setup = scenario_for("a", scale="test").compile()
    setup.make_trainer().run(verbose=False)
    model = setup.model
    grid = setup.eval_grid
    print(model_summary(model, title=f"model — {setup.name}"))
    print()

    n_designs = 256
    maps = model.inputs[0].sample(np.random.default_rng(0), n_designs)

    engine = model.compile().warmup(grid)
    start = time.perf_counter()
    fields = engine.predict_batch({"power_map": maps}, grid=grid)
    engine_seconds = time.perf_counter() - start

    # The legacy loop for contrast: full autodiff-layer forward per design.
    n_naive = 16
    points = grid.points()
    start = time.perf_counter()
    for index in range(n_naive):
        model.predict_many_uncached([{"power_map": maps[index]}], points)
    naive_seconds = time.perf_counter() - start

    peaks = fields.max(axis=1)
    hottest = int(np.argmax(peaks))
    print(
        kv_block(
            f"sweep of {n_designs} random power maps on {grid.shape}",
            {
                "engine throughput": f"{n_designs / engine_seconds:,.0f} designs/s",
                "naive throughput": f"{n_naive / naive_seconds:,.1f} designs/s",
                "speedup": f"{(n_designs / engine_seconds) / (n_naive / naive_seconds):,.0f}x",
                "hottest design": f"#{hottest} peaks at {peaks[hottest]:.2f} K",
                "coolest design": f"peaks at {peaks.min():.2f} K",
                "trunk cache": str(engine.cache_info()),
            },
        )
    )


if __name__ == "__main__":
    main()
