"""Serving-under-load benchmark: cross-request micro-batching (ISSUE 7).

PR 6 made the engine's merge dgemm scale *within* one call; this bench
pins the daemon layer that makes independent clients reach it.  A
:class:`~repro.serve.ThermalServer` is booted on an ephemeral port and
hammered by a ladder of concurrent clients (1 / 2 / 4 / 8), each firing
a stream of predict requests over its own socket, twice per rung:

* **unbatched** — ``max_batch=1``: every request is its own engine
  call (what a naive daemon would do);
* **micro-batched** — ``max_batch=8``: whenever a backlog forms
  behind the compute thread, the queued requests sharing the scenario
  digest + grid fuse into one merge dgemm (no batching window: an idle
  daemon dispatches at once).

Parity is *always* asserted, in every mode: every response fetched
through the socket must match the serial in-process
``ThermalService.predict`` answer to <= 1e-8 K.  The wire itself is
exact (``ThermalClient`` array frames carry raw float64 bytes), so an
unfused answer is bitwise serial; a fused one runs a taller merge dgemm
that BLAS may block differently (the 8-client batched rung measured
5.7e-14 K off serial on a 2-core host).  The throughput ratio (batched vs unbatched at >= 4 clients)
is gated only on machines with >= 4 cores and ``REPRO_SMOKE`` unset:
on a 1- or 2-core runner both daemons timeshare the same cores with
the client threads, so the ratio would gate on scheduler noise.

Run with ``pytest benchmarks/bench_serving_load.py``; numbers land in
``benchmarks/out/serving_load.{json,txt}`` (and the repo-root
``BENCH_serving_load.json`` records the committed perf trajectory).
"""

import json
import os
import threading
import time

import numpy as np
from conftest import MODEL_SCALE, SMOKE

from repro.api import ThermalService, scenario_for
from repro.serve import ThermalClient, ThermalServer

CLIENT_LADDER = [1, 2, 4, 8]
REQUESTS_PER_CLIENT = 4 if SMOKE else 12
DESIGNS_PER_REQUEST = 4
MAX_BATCH = 8
MAX_DEV_K = 1e-8
#: batched-vs-unbatched throughput at the 4-client rung; only gated
#: where the fused dgemm has real cores to win on.
MIN_BATCHED_RATIO = 1.1
GATE_RATIOS = not SMOKE and (os.cpu_count() or 1) >= 4


def _scenario():
    scenario = scenario_for("a", scale=MODEL_SCALE)
    if SMOKE:
        scenario.training.iterations = 5
    return scenario


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def _run_rung(port, scenario, design_slices, n_clients):
    """n_clients threads, each streaming its request slice; returns
    (per-request latencies, wall seconds, responses in slice order)."""
    latencies = [[] for _ in range(n_clients)]
    responses = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients + 1)

    def client_loop(index):
        with ThermalClient(port=port, max_retries=50) as client:
            barrier.wait()
            for designs in design_slices[index]:
                start = time.perf_counter()
                result = client.predict(scenario, designs)
                latencies[index].append(time.perf_counter() - start)
                responses[index].append(result)

    threads = [threading.Thread(target=client_loop, args=(index,))
               for index in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return [v for per in latencies for v in per], wall, responses


def test_serving_load(out_dir):
    scenario = _scenario()
    report = {
        "smoke": SMOKE,
        "cpu_count": os.cpu_count() or 1,
        "scale": MODEL_SCALE,
        "max_batch": MAX_BATCH,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "designs_per_request": DESIGNS_PER_REQUEST,
        "rungs": [],
    }

    with ThermalService() as reference:
        reference.train(scenario)
        pool = _designs_pool(reference, scenario)
        expected = {
            index: reference.predict(scenario, designs).fields
            for index, designs in enumerate(pool)
        }

        for batched in (False, True):
            max_batch = MAX_BATCH if batched else 1
            with ThermalServer(max_batch=max_batch,
                               queue_depth=256) as server:
                server.warm_start([scenario])
                for n_clients in CLIENT_LADDER:
                    slices = _slices(pool, n_clients)
                    latencies, wall, responses = _run_rung(
                        server.port, scenario,
                        [[pool[i] for i in slice_] for slice_ in slices],
                        n_clients,
                    )
                    worst = 0.0
                    for slice_, per_client in zip(slices, responses):
                        for pool_index, result in zip(slice_, per_client):
                            dev = float(np.max(np.abs(
                                result["fields"] - expected[pool_index]
                            )))
                            worst = max(worst, dev)
                    assert worst <= MAX_DEV_K, (
                        f"socket serving diverged from serial by {worst:.3e} K"
                    )
                    n_requests = sum(len(s) for s in slices)
                    report["rungs"].append({
                        "batched": batched,
                        "clients": n_clients,
                        "requests": n_requests,
                        "throughput_req_per_s": n_requests / max(wall, 1e-9),
                        "p50_latency_ms": _percentile(latencies, 50) * 1e3,
                        "p99_latency_ms": _percentile(latencies, 99) * 1e3,
                        "max_parity_dev_kelvin": worst,
                    })
                stats = server.stats()["queue"]
                report[f"queue_stats_{'batched' if batched else 'unbatched'}"] \
                    = stats
                if batched:
                    assert stats["max_batch_seen"] >= 1

    rungs = report["rungs"]

    def rate(batched, clients):
        for rung in rungs:
            if rung["batched"] is batched and rung["clients"] == clients:
                return rung["throughput_req_per_s"]
        raise KeyError((batched, clients))

    report["batched_speedup_at_4"] = rate(True, 4) / max(rate(False, 4), 1e-9)
    if GATE_RATIOS:
        assert report["batched_speedup_at_4"] >= MIN_BATCHED_RATIO, (
            f"micro-batching delivered only "
            f"{report['batched_speedup_at_4']:.2f}x at 4 clients "
            f"(needs >= {MIN_BATCHED_RATIO}x on a >= 4-core machine)"
        )

    (out_dir / "serving_load.json").write_text(json.dumps(report, indent=2))
    lines = [
        "serving under load — micro-batched vs unbatched",
        f"  cpu_count={report['cpu_count']} smoke={SMOKE} "
        f"max_batch={MAX_BATCH}",
        f"  {'mode':>10} {'clients':>7} {'req/s':>8} {'p50 ms':>8} "
        f"{'p99 ms':>8}",
    ]
    for rung in rungs:
        lines.append(
            f"  {'batched' if rung['batched'] else 'unbatched':>10} "
            f"{rung['clients']:>7} {rung['throughput_req_per_s']:>8.1f} "
            f"{rung['p50_latency_ms']:>8.2f} {rung['p99_latency_ms']:>8.2f}"
        )
    lines.append(f"  batched/unbatched @4 clients: "
                 f"{report['batched_speedup_at_4']:.2f}x "
                 f"(gated: {GATE_RATIOS})")
    (out_dir / "serving_load.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))


def _designs_pool(service, scenario):
    """One design batch per request in the largest rung, reused across
    rungs so every mode answers the exact same traffic."""
    n_requests = max(CLIENT_LADDER) * REQUESTS_PER_CLIENT
    pool = []
    for index in range(n_requests):
        raws = service.sample_designs(scenario, DESIGNS_PER_REQUEST,
                                      seed=1000 + index)
        pool.append([
            {name: batch[i] for name, batch in raws.items()}
            for i in range(DESIGNS_PER_REQUEST)
        ])
    return pool


def _slices(pool, n_clients):
    """Round-robin the request pool across clients (indices into pool)."""
    per_client = REQUESTS_PER_CLIENT
    return [
        [(client + n_clients * step) % len(pool)
         for step in range(per_client)]
        for client in range(n_clients)
    ]
