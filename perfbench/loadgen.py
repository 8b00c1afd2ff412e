"""Load generator of the ``serve`` workload (runs as its own process).

``python3 perfbench/loadgen.py <plan.pkl> <records.pkl>`` reads the
request plan written by ``wl_serve.py`` and drives the daemon through
the public ``ThermalClient`` (``max_retries=0``: a non-ok answer is a
failure, never a silent retry), one connection per thread:

* open loop — requests go out at their scheduled due times, taken in
  order by whichever connection is free; latency is measured from the
  due time, so a stalled daemon also delays the requests queued behind
  it, and ``sent - due`` is the generator's lateness;
* closed loop — each connection sends its next request as soon as the
  previous answer arrives, for a fixed duration.

Every answer (decoded arrays included) is written back for checking.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time


def _call(client, request):
    """One predict round trip; ``(ok, result-or-error)``."""
    from repro.serve.client import ServerError

    try:
        result = client.predict(request["scenario"], request["designs"],
                                return_fields=request["return_fields"])
    except ServerError as exc:
        return False, f"{exc.code}: {exc}"
    return True, {key: result[key] for key in ("peaks", "fields") if key in result}


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path, "rb") as handle:
        plan = pickle.load(handle)
    sys.path.insert(0, plan["src"])
    from repro.serve.client import ThermalClient

    records = []
    lock = threading.Lock()

    def client():
        return ThermalClient(plan["host"], plan["port"], timeout=60.0,
                             max_retries=0).connect()

    # Import and connect before the clock starts.
    clients = [client() for _ in range(plan["connections"])]
    schedule = plan["open"]
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def open_worker(conn):
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule):
                    return
                cursor[0] += 1
            request = schedule[index]
            due = origin + request["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            ok, answer = _call(conn, request)
            done = time.perf_counter()
            with lock:
                records.append({"phase": "open", "index": index, "kind": request["kind"],
                                "due": due - origin, "sent": sent - origin,
                                "done": done - origin, "ok": ok, "answer": answer})

    closed_start = [0.0]

    def closed_worker(conn, slot):
        pool = plan["closed"][slot]
        end = closed_start[0] + plan["closed_seconds"]
        index = 0
        while time.perf_counter() < end:
            request = pool[index % len(pool)]
            sent = time.perf_counter()
            ok, answer = _call(conn, request)
            done = time.perf_counter()
            with lock:
                records.append({"phase": "closed", "slot": slot,
                                "index": index % len(pool), "kind": request["kind"],
                                "sent": sent - closed_start[0],
                                "done": done - closed_start[0],
                                "ok": ok, "answer": answer})
            index += 1

    for phase in ("open", "closed"):
        if phase == "closed":
            closed_start[0] = time.perf_counter()
            targets = [(closed_worker, (conn, slot))
                       for slot, conn in enumerate(clients)]
        else:
            targets = [(open_worker, (conn,)) for conn in clients]
        threads = [threading.Thread(target=fn, args=args) for fn, args in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for conn in clients:
        conn.close()
    closed = [r["done"] for r in records if r["phase"] == "closed"]
    with open(out_path, "wb") as handle:
        pickle.dump({"records": records, "closed_wall": max(closed, default=0.0)},
                    handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
