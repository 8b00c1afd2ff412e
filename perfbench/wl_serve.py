"""``serve`` workload: ``python -m repro serve`` under a seeded traffic mix.

The daemon runs as a child process with default flags, warm-starting
two checkpoints prepared in a fresh registry: experiment A (ci
architecture) and the shipped HTC-sweep family.  A separate load
generator (``loadgen.py``) opens ``nproc`` connections and sends three
request kinds, 4 designs each:

* ``field``  — experiment-A predict returning full 21x21x11 fields;
* ``peak``   — experiment-A predict with ``return_fields=false``;
* ``member`` — peaks-only predict for a plain scenario of one family
  member, which the daemon routes to the family checkpoint.

An open-loop phase at a fixed rate gives per-kind latency; a
closed-loop phase gives capacity.  Every answer is checked against the
in-process ``ThermalService.predict`` / ``predict_member`` on the same
checkpoints.  The traced run replays sampled requests through the
protocol, scenario-resolve, service and engine calls in this process.
"""

from __future__ import annotations

import os
import pickle
import queue
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

import common

KINDS = ("field", "peak", "member")
DESIGNS_PER_REQUEST = 4
#: open-loop arrival rate: about a quarter of the closed-loop capacity
#: (~50 requests/s on a 2-core x86_64 host, see README.md).  At half
#: capacity, or with Poisson arrivals, the cheap kinds queued behind a
#: ``field`` response about half the time, so their medians jumped
#: between the queued and the unqueued mode from seed to seed.  Arrivals
#: are evenly spaced with a seeded jitter of +-30 % of the spacing.
OPEN_RATE_PER_S = 12.0
ARRIVAL_JITTER = 0.3
OPEN_SHARE = 0.7
CLOSED_POOL = 30
SETUP_REPEATS = 5
REPLAYS_PER_KIND = 12
#: socket answers vs in-process predict (JSON floats round-trip exactly).
ANSWER_TOL_K = 1e-8
BOOT_TIMEOUT_S = 120.0
READY_LINE = "warm-started 1 scenario(s)"


def _specs(seed: int):
    training_seed = common.derived_seed(seed, 1, 1)
    return (common.scenario_a(common.CHECKPOINT_ITERATIONS, training_seed),
            common.family(common.CHECKPOINT_ITERATIONS, training_seed))


def prepare(seed: int, registry) -> List[str]:
    """Train and save both checkpoints; returns the daemon's spec files."""
    from repro.api import ThermalService

    scenario, fam = _specs(seed)
    with ThermalService(cache_dir=registry) as service:
        service.train(scenario)
        service.train_family(fam)
    paths = [registry / "scenario_a.json", registry / "family.json"]
    scenario.to_json(paths[0])
    fam.to_json(paths[1])
    return [str(path) for path in paths]


class Daemon:
    """One ``python -m repro serve`` child process."""

    def __init__(self, registry, spec_paths: List[str], log_path):
        self.registry = registry
        self.spec_paths = spec_paths
        self.log_path = log_path
        self.process = None
        self.port = None
        self.flags = None
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = None

    def boot(self) -> float:
        """Start and wait until warm-start finished; returns seconds."""
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for path in self.spec_paths:
            argv += ["--scenario", path]
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                argv, cwd=common.ROOT, stdout=subprocess.PIPE, stderr=log,
                env=common.child_env(REPRO_MODEL_CACHE=str(self.registry)),
                text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = start + BOOT_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise common.BenchError("daemon did not become ready") from None
            if line is None:
                log = self.log_path.read_text(errors="replace")[-2000:]
                raise common.BenchError(f"daemon exited during boot:\n{log}")
            match = re.search(r"listening on [^:]+:(\d+) \((.*)\)", line)
            if match:
                self.port = int(match.group(1))
                self.flags = match.group(2)
            if READY_LINE in line:
                return time.perf_counter() - start

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def client(self):
        from repro.serve.client import ThermalClient

        return ThermalClient("127.0.0.1", self.port, timeout=30.0, max_retries=0)

    def stop(self) -> None:
        """Ask for a drained shutdown; kill if it does not exit in time."""
        if self.process is None or self.process.poll() is not None:
            return
        try:
            with self.client() as client:
                client.shutdown()
            self.process.wait(timeout=30)
        except Exception:  # any failure to drain: make sure it is gone
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            if self._reader is not None:
                self._reader.join(timeout=5)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_plan(service, scenario, fam, seed: int, seconds: float) -> Dict:
    """Seeded requests: kinds, designs, open-loop schedule, closed pools."""
    members = [fam.member(index) for index in range(fam.n_members)]
    connections = os.cpu_count() or 2
    open_seconds = OPEN_SHARE * seconds
    n_open = max(len(KINDS), int(round(OPEN_RATE_PER_S * open_seconds)))
    rng = common.rng_for(seed, 1, 2)
    design_seeds = iter(range(10**6))

    def request(kind: str) -> Dict:
        if kind == "member":
            target = members[int(rng.integers(len(members)))]
        else:
            target = scenario
        raws = service.sample_designs(
            target, DESIGNS_PER_REQUEST,
            seed=common.derived_seed(seed, 1, 3, next(design_seeds)))
        designs = [{name: batch[i] for name, batch in raws.items()}
                   for i in range(DESIGNS_PER_REQUEST)]
        return {"kind": kind, "scenario": target.to_dict(), "designs": designs,
                "return_fields": kind == "field"}

    def balanced(n: int) -> List[str]:
        kinds = list(np.resize(np.array(KINDS), n))
        return [str(kind) for kind in rng.permutation(kinds)]

    interval = open_seconds / n_open
    jitter = rng.uniform(-ARRIVAL_JITTER, ARRIVAL_JITTER, size=n_open)
    due = np.sort((np.arange(n_open) + 0.5 + jitter) * interval)
    open_requests = []
    for at, kind in zip(due, balanced(n_open)):
        open_requests.append({**request(kind), "due": float(at)})
    closed = [[request(kind) for kind in balanced(CLOSED_POOL)]
              for _ in range(connections)]
    return {"src": str(common.SRC), "connections": connections,
            "open": open_requests, "closed": closed,
            "closed_seconds": seconds - open_seconds}


def _reference(service, fam, request):
    """In-process answer for one request (same checkpoints as the daemon)."""
    from repro.api import ThermalScenario

    target = ThermalScenario.from_dict(request["scenario"])
    if request["kind"] == "member":
        return service.predict_member(fam, target, request["designs"])
    return service.predict(target, request["designs"])


def check_answer(kind: str, answer: Dict, reference) -> str:
    """Empty string when a socket answer matches its reference, else why."""
    peaks = np.asarray(answer["peaks"])
    gap = float(np.max(np.abs(peaks - reference.peaks)))
    if not gap <= ANSWER_TOL_K:
        return f"{kind}: peaks {gap:.3e} K from in-process predict"
    if kind == "field":
        fields = np.asarray(answer["fields"])
        gap = float(np.max(np.abs(fields - reference.fields)))
        if not gap <= ANSWER_TOL_K:
            return f"{kind}: fields {gap:.3e} K from in-process predict"
        if not np.array_equal(peaks, fields.max(axis=1)):
            return f"{kind}: peaks != fields.max(1)"
    return ""


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, workdir) -> tuple:
    """Run the workload; returns ``(outcome, metrics, tracer, config)``."""
    from repro.api import ThermalService

    outcome = common.Outcome()
    scenario, fam = _specs(seed)
    setups, boots = [], []
    daemon = None
    try:
        for index in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            registry = workdir / f"registry{index}"
            start = time.perf_counter()
            spec_paths = prepare(seed, registry)
            daemon = Daemon(registry, spec_paths, workdir / "daemon.log")
            boots.append(daemon.boot())
            setups.append(time.perf_counter() - start)

        service = ThermalService(cache_dir=registry)
        outcome.check(service.train(scenario).from_cache
                      and service.train_family(fam).from_cache,
                      "serve: prepared checkpoints missing from the registry")
        plan = build_plan(service, scenario, fam, seed, seconds)
        plan.update(host="127.0.0.1", port=daemon.port)
        records = _drive(plan, workdir, seconds)
        with daemon.client() as client:
            stats = client.stats()
        rss = common.process_hwm_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    sources = set(stats["boot_sources"].values())
    outcome.check(sources == {"exact"},
                  f"serve: daemon boot sources {sorted(sources)} (expected registry hits)")
    latencies = {kind: [] for kind in KINDS}
    late, closed_ok = [], 0
    for record in records["records"]:
        outcome.attempted += 1
        phase_pool = (plan["open"] if record["phase"] == "open"
                      else plan["closed"][record["slot"]])
        request = phase_pool[record["index"]]
        if record["ok"]:
            problem = check_answer(record["kind"], record["answer"],
                                   _reference(service, fam, request))
            outcome.check(not problem, f"serve {record['phase']} #{record['index']} {problem}")
        else:
            outcome.failed += 1
            outcome.check(False, f"serve {record['kind']}: {record['answer']}")
        if record["phase"] == "open":
            latency = record["done"] - record["due"] if record["ok"] else float("inf")
            latencies[record["kind"]].append(latency)
            late.append(record["sent"] - record["due"])
        elif record["ok"]:
            closed_ok += 1

    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "a_p50_ms": 1e3 * common.median(latencies["field"]),
        "b_p50_ms": 1e3 * common.median(latencies["peak"]),
        "c_p50_ms": 1e3 * common.median(latencies["member"]),
        "throughput_per_s": closed_ok / records["closed_wall"],
    }
    tracer = None
    if trace:
        tracer = common.Tracer()
        metrics = _trace(service, fam, plan, latencies, tracer)
        queue_stats = stats["queue"]
        trunk = stats["caches"]["trunk"]
        all_latencies = [v for kind in KINDS for v in latencies[kind]]
        metrics.update({
            "serve.p95_ms": 1e3 * common.percentile(all_latencies, 95),
            "serve.requests_per_dispatch": (queue_stats["dispatched_requests"]
                                            / queue_stats["dispatched_batches"]),
            "serve.fused_requests": queue_stats["fused_requests"],
            "serve.rejected": queue_stats["rejected"],
            "serve.expired": queue_stats["expired"],
            "serve.gen_late_p95_ms": 1e3 * common.percentile(late, 95),
            "serve.boot_s": common.median(boots),
            "engine.trunk_hits": trunk["hits"],
            "engine.trunk_misses": trunk["misses"],
        })
    service.close()
    config = {"daemon_argv": "python -m repro serve --port 0 --scenario <A> "
                             "--scenario <family>",
              "daemon_flags": daemon.flags, "queue": stats["queue"],
              "connections": plan["connections"], "open_rate_per_s": OPEN_RATE_PER_S,
              "open_requests": len(plan["open"]),
              "closed_seconds": plan["closed_seconds"],
              "designs_per_request": DESIGNS_PER_REQUEST,
              "setup_repeats": SETUP_REPEATS}
    return outcome, metrics, tracer, config


def _drive(plan: Dict, workdir, seconds: float) -> Dict:
    """Run the load generator process over the plan; returns its records."""
    plan_path, out_path = workdir / "plan.pkl", workdir / "records.pkl"
    with open(plan_path, "wb") as handle:
        pickle.dump(plan, handle)
    subprocess.run([sys.executable, str(common.BENCH_DIR / "loadgen.py"),
                    str(plan_path), str(out_path)],
                   env=common.child_env(), check=True, timeout=seconds + 90)
    with open(out_path, "rb") as handle:
        return pickle.load(handle)


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------
def replay_request(service, fam, request, tracer, request_id: int) -> tuple:
    """One request's in-process path through each layer's public calls.

    Returns the request and response frame sizes in bytes.
    """
    from repro.api import ThermalScenario
    from repro.serve.protocol import decode_frame, encode_frame, ok_response

    kind = request["kind"]
    designs = request["designs"]
    message = {"op": "predict", "scenario": request["scenario"],
               "designs": [{name: (value.tolist() if isinstance(value, np.ndarray)
                                   else float(value))
                            for name, value in design.items()} for design in designs],
               "return_fields": request["return_fields"], "id": request_id}
    with tracer.span(f"serve.{kind}.request", trace_id=f"{kind}-{request_id}"):
        with tracer.span(f"serve.{kind}.encode_request_ms"):
            frame = encode_frame(message)
        with tracer.span(f"serve.{kind}.decode_request_ms"):
            received = decode_frame(frame)
        with tracer.span(f"api.{kind}.resolve_ms"):
            target = ThermalScenario.from_dict(received["scenario"])
            digest = target.content_digest()
        with tracer.span(f"api.{kind}.predict_ms"):
            if kind == "member":
                result = service.predict_member(fam, target, designs)
            else:
                result = service.predict(target, designs)
        if kind == "member":
            engine = service.family_engine(fam)
            grid = service.family_session(fam).setup.setups[0].eval_grid
            vector = fam.conditioning_vector(target)
            batch = [{**design, "scenario_conditioning": vector} for design in designs]
        else:
            engine = service.engine(target)
            grid = service.setup(target).eval_grid
            batch = designs
        with tracer.span(f"engine.{kind}.predict_ms"):
            fields = engine.predict_batch(batch, grid=grid)
        answer = {"op": "predict", "scenario": target.name, "digest": digest,
                  "peaks": fields.max(axis=1),
                  "batch": {"requests": 1, "designs": len(designs), "fused": False,
                            "elapsed_seconds": result.elapsed}}
        if request["return_fields"]:
            answer["fields"] = fields
        with tracer.span(f"serve.{kind}.encode_response_ms"):
            reply = encode_frame(ok_response(request_id, answer))
        with tracer.span(f"serve.{kind}.decode_response_ms"):
            decoded = decode_frame(reply)["result"]
            for key in ("peaks", "fields"):
                if key in decoded:
                    decoded[key] = np.asarray(decoded[key], dtype=np.float64)
    return len(frame), len(reply)


def _trace(service, fam, plan, latencies, tracer) -> Dict[str, float]:
    """Per-layer split of each kind, plus the residual wait."""
    samples = {kind: [r for r in plan["open"] if r["kind"] == kind][:REPLAYS_PER_KIND]
               for kind in KINDS}
    untraced = 0.0
    for _ in range(2):  # the first pass only warms caches up
        start = time.perf_counter()
        for kind in KINDS:
            for index, request in enumerate(samples[kind]):
                replay_request(service, fam, request, common.NullTracer(), index)
        untraced = time.perf_counter() - start
    sizes = {kind: [] for kind in KINDS}
    start = time.perf_counter()
    for kind in KINDS:
        for index, request in enumerate(samples[kind]):
            sizes[kind].append(replay_request(service, fam, request, tracer, index))
    traced = time.perf_counter() - start

    times = tracer.self_times()
    metrics: Dict[str, float] = {}
    for kind in KINDS:
        layer_ms = 0.0
        for name in (f"serve.{kind}.encode_request_ms", f"serve.{kind}.decode_request_ms",
                     f"api.{kind}.resolve_ms", f"engine.{kind}.predict_ms",
                     f"serve.{kind}.encode_response_ms",
                     f"serve.{kind}.decode_response_ms"):
            metrics[name] = 1e3 * common.median(times[name])
            layer_ms += metrics[name]
        metrics[f"api.{kind}.predict_ms"] = 1e3 * common.median(times[f"api.{kind}.predict_ms"])
        metrics[f"serve.{kind}.request_bytes"] = common.median(s[0] for s in sizes[kind])
        metrics[f"serve.{kind}.response_bytes"] = common.median(s[1] for s in sizes[kind])
        metrics[f"serve.{kind}.wait_ms"] = 1e3 * common.median(latencies[kind]) - layer_ms
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics
