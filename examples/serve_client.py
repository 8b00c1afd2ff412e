"""Serving daemon under concurrent load: boot, fuse, verify, drain.

Boots a :class:`repro.serve.ThermalServer` on an ephemeral port (the
same daemon ``repro serve`` runs), warm-starts a tiny Experiment-A
scenario, then fires several concurrent :class:`ThermalClient` threads
at it.  The daemon's micro-batcher coalesces requests that share the
scenario's content digest into single fused merge dgemms whenever they
queue up behind a busy compute thread — watch the ``batch`` metadata in
each response and the queue counters in ``stats`` — and every answer,
fused or not, is verified bitwise against a one-at-a-time in-process
``ThermalService``.

Run from the repo root:

    PYTHONPATH=src python examples/serve_client.py

Against a standalone daemon instead::

    PYTHONPATH=src python -m repro serve --port 7070 &
    # then point ThermalClient(port=7070) at it
"""

import threading

import numpy as np

from repro.api import ThermalService, scenario_for
from repro.serve import ThermalClient, ThermalServer

N_CLIENTS = 4
DESIGNS_PER_CLIENT = 3


def main():
    scenario = scenario_for("a", scale="test")
    scenario.training.iterations = 50

    # One serial service for ground truth; the daemon and the reference
    # share a registry, so training happens once.
    with ThermalService() as reference:
        reference.train(scenario)
        raws = reference.sample_designs(
            scenario, N_CLIENTS * DESIGNS_PER_CLIENT, seed=7
        )
        designs = [
            {name: batch[index] for name, batch in raws.items()}
            for index in range(N_CLIENTS * DESIGNS_PER_CLIENT)
        ]
        expected = reference.predict(scenario, designs).fields

        # A request is dispatched as soon as the compute thread is
        # free, so the burst fuses only as far as it queues up behind
        # an earlier dispatch.
        with ThermalServer(max_batch=16) as server:
            server.warm_start([scenario])
            print(f"daemon listening on {server.host}:{server.port}")

            results = [None] * N_CLIENTS
            barrier = threading.Barrier(N_CLIENTS)

            def client_thread(index):
                lo = index * DESIGNS_PER_CLIENT
                with ThermalClient(port=server.port) as client:
                    barrier.wait()  # fire together so a backlog can form
                    results[index] = client.predict(
                        scenario, designs[lo:lo + DESIGNS_PER_CLIENT]
                    )

            threads = [
                threading.Thread(target=client_thread, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for index, result in enumerate(results):
                lo = index * DESIGNS_PER_CLIENT
                block = expected[lo:lo + DESIGNS_PER_CLIENT]
                bitwise = np.array_equal(result["fields"], block)
                meta = result["batch"]
                print(
                    f"client {index}: peak {result['peaks'].max():.3f} K, "
                    f"rode a batch of {meta['requests']} request(s) / "
                    f"{meta['designs']} designs "
                    f"(fused={meta['fused']}), bitwise vs serial: {bitwise}"
                )
                assert bitwise, "fused serving diverged from serial"

            with ThermalClient(port=server.port) as client:
                queue = client.stats()["queue"]
            print(
                f"queue: {queue['submitted']} submitted, "
                f"{queue['dispatched_batches']} dispatches, "
                f"{queue['fused_requests']} requests fused, "
                f"largest batch {queue['max_batch_seen']} "
                f"(burst fused: {queue['fused_requests'] > 0})"
            )
    print("daemon drained and closed")


if __name__ == "__main__":
    main()
