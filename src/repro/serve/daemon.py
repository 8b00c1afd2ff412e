"""``ThermalServer``: the long-running serving daemon.

Owns one :class:`~repro.api.ThermalService` and exposes it over a TCP
socket speaking the newline-JSON protocol (:mod:`repro.serve.protocol`).
Concurrent predict / rollout / solve requests flow through a
:class:`~repro.serve.batcher.MicroBatcher`: requests sharing a fuse key
(scenario content digest + query-point identity) are coalesced into one
fused engine call — a single ``(sum B_i, q) @ (q, N)`` merge dgemm for
serving ops, one grouped ``SolveFarm.solve_many`` for reference solves —
and split back per request.  That is the whole point of the daemon: the
engine's 400–976x batched-arrival speedups only reach real traffic if
something *makes* the batches.

Operational contracts:

* **Backpressure** — the request queue is bounded; past ``queue_depth``
  the daemon answers ``overloaded`` with a ``retry_after`` hint instead
  of buffering (memory stays bounded under any spike).
* **Memory budget** — ``memory_budget`` bytes are split between the
  trunk-feature cache and the private solve farm, both byte-accounted
  LRUs; ``/stats`` reports residency, hits and evictions live.
* **Warm start** — scenarios passed at boot are trained (or loaded from
  the digest-keyed checkpoint registry) and their trunk features
  precomputed before the first request lands.
* **Clean shutdown** — SIGINT/SIGTERM (or the ``shutdown`` op) stops
  intake, drains every queued request, flushes responses, closes the
  service and exits 0.
* **Serial fallback** — if a fused dispatch fails, each request is
  retried alone; one poisoned request errors alone instead of failing
  its whole batch.
* **Health probes** — the ``health`` op is answered inline on the
  connection thread (readiness + liveness: queue depth, compute-thread
  heartbeat, cache residency), so it answers in
  milliseconds even while the compute thread is mid-batch.
* **Watchdog** — with ``watchdog_timeout`` set, a monitor thread
  watches the compute heartbeat; a dispatch that exceeds the limit
  declares the compute thread *wedged*: every queued and in-flight
  request is failed with a clean error, intake stops, and
  ``serve_forever`` exits nonzero (exit code 2) instead of hanging —
  the supervisor's cue to restart the process.
* **Deadlines** — a request carrying ``timeout_ms`` that is still
  queued when its deadline passes is answered ``deadline_exceeded``
  before any compute is spent on it.
* **Family routing** — a scenario with no checkpoint of its own that a
  trained family covers is answered by the family's shared conditioned
  engine, never a fine-tuned member slot.  Requests for different
  members fuse into one merge dgemm.  Scenario and family-routed
  groups run one predict path and one rollout path: each request's
  model comes from the service's resolved model handle.

Concurrency model: one thread per connection parses and validates;
*all* compute runs on the single batcher thread, so the service and its
caches are never raced and fused results are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import logging
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults
from ..api import ScenarioValidationError, ThermalScenario, ThermalService
from .batcher import MicroBatcher, QueuedRequest, fuse_key_for
from .protocol import (
    BATCHED_OPS,
    INLINE_OPS,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    overloaded_response,
    read_frame,
)

logger = logging.getLogger("repro.serve")


class RequestError(ValueError):
    """A request that parsed as JSON but cannot be served (bad_request)."""


def _parse_designs(raw) -> List[Dict[str, np.ndarray]]:
    """Wire designs → the mapping-per-design shape the engine consumes."""
    if not isinstance(raw, list) or not raw:
        raise RequestError("'designs' must be a non-empty list of objects")
    designs = []
    for index, design in enumerate(raw):
        if not isinstance(design, dict) or not design:
            raise RequestError(f"designs[{index}] must be a non-empty object")
        parsed = {}
        for name, value in design.items():
            if isinstance(value, bool):
                raise RequestError(f"designs[{index}].{name} is a bool")
            if isinstance(value, (int, float)):
                parsed[name] = float(value)
            else:
                try:
                    parsed[name] = np.asarray(value, dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise RequestError(
                        f"designs[{index}].{name} is not numeric: {exc}"
                    ) from exc
        designs.append(parsed)
    return designs


def _parse_grid_shape(raw) -> Optional[Tuple[int, int, int]]:
    if raw is None:
        return None
    try:
        shape = tuple(int(n) for n in raw)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"'grid_shape' must be three integers: {exc}") from exc
    if len(shape) != 3 or any(n < 2 for n in shape):
        raise RequestError("'grid_shape' must be three integers >= 2")
    return shape


class _GroupContext(NamedTuple):
    """What a fused predict or rollout group runs on (see ``_group_context``)."""

    members: List[Tuple[str, ThermalScenario]]   # (digest, scenario) per request
    design_groups: List[List[Dict]]              # conditioned when routed
    engine: object
    grid: object
    family_digest: Optional[str]

    @property
    def n_designs(self) -> int:
        """Designs across the whole group."""
        return sum(len(designs) for designs in self.design_groups)


class ThermalServer:
    """Socket daemon fronting one :class:`~repro.api.ThermalService`.

    Parameters
    ----------
    service:
        An existing service to serve (the caller keeps its lifecycle);
        default builds a private one from ``cache_dir`` /
        ``memory_budget`` and closes it on shutdown.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_batch / max_wait / queue_depth:
        Micro-batching knobs — see :class:`MicroBatcher`.
    memory_budget:
        Byte budget over the service's caches (ignored when ``service``
        is passed in — the caller configured it).
    request_timeout:
        Seconds a connection waits for its queued request before giving
        up (covers boot-time training of a cold scenario).
    watchdog_timeout:
        Seconds one fused dispatch may run before the compute thread is
        declared wedged (queued + in-flight requests failed cleanly,
        intake stopped, ``serve_forever`` exits 2).  ``None`` (default)
        disables the watchdog — a cold-scenario boot train can
        legitimately hold the compute thread for minutes.
    solver:
        Solver tier for the service's reference FDM solves (ignored when
        ``service`` is passed in): ``"auto"`` pairs naturally with
        ``memory_budget``, letting oversized grids degrade to
        ``block_cg`` instead of thrashing the farm cache — see
        ``docs/solvers.md``.
    """

    def __init__(
        self,
        service: Optional[ThermalService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        max_wait: float = 0.005,
        queue_depth: int = 128,
        memory_budget: Optional[int] = None,
        cache_dir: Optional[str] = None,
        request_timeout: float = 600.0,
        watchdog_timeout: Optional[float] = None,
        solver: Optional[str] = None,
    ):
        if service is None:
            service = ThermalService(cache_dir=cache_dir,
                                     memory_budget=memory_budget,
                                     solver=solver)
            self._owns_service = True
        else:
            self._owns_service = False
        self.service = service
        self.host = host
        self.port = int(port)
        self.request_timeout = float(request_timeout)
        self.retry_after = max(0.05, 4.0 * max_wait)
        self.batcher = MicroBatcher(
            self._execute_group,
            max_batch=max_batch,
            max_wait=max_wait,
            queue_depth=queue_depth,
        )
        self._scenarios: Dict[str, ThermalScenario] = {}   # digest -> spec
        self._spec_index: Dict[str, str] = {}              # raw-dict sha -> digest
        self._families: Dict[str, object] = {}             # family digest -> spec
        self._routes: Dict[str, str] = {}                  # scenario digest -> family digest
        self._boot_sources: Dict[str, str] = {}            # digest16 -> boot source
        self._scenario_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        self._conn_threads: List[threading.Thread] = []
        self._draining = threading.Event()
        self._close_lock = threading.Lock()
        self._closed = False
        self.watchdog_timeout = (
            None if watchdog_timeout is None else float(watchdog_timeout)
        )
        self._wedged = threading.Event()
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()
        self._runners = {
            "predict": self._run_predict,
            "rollout": self._run_rollout,
            "solve": self._run_solve,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ThermalServer":
        """Bind, listen and serve on background threads; returns self."""
        if self._listener is not None:
            return self
        listener = socket.create_server((self.host, self.port), backlog=64)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.watchdog_timeout is not None and self._watchdog_thread is None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()
        logger.info("serving on %s:%d", self.host, self.port)
        return self

    def warm_start(self, scenarios: Sequence[ThermalScenario],
                   families: Sequence = ()) -> None:
        """Boot-time model residency: train-or-load + trunk precompute.

        Registry hits load instantly; cold scenarios train now, at boot,
        instead of inside the first unlucky client's request window.
        Families train-or-load their shared conditioned model the same
        way, and a scenario with no exact checkpoint falls back to a
        covering family ancestor from the registry instead of training
        from scratch — the per-scenario boot source (``exact`` /
        ``family:<digest16>`` / ``trained``) is reported by the
        ``stats`` op.
        """
        for family in families:
            fam_digest = family.content_digest()
            with self._scenario_lock:
                self._families[fam_digest] = family
            result = self.service.train_family(family)
            if family.base.transient is None:
                setup = self.service.family_session(family).setup.setups[0]
                self.service.family_engine(family).warmup(setup.eval_grid)
            self._boot_sources[fam_digest[:16]] = (
                "exact" if result.from_cache else "trained"
            )
            logger.info(
                "warm-started family %s (digest %s, %d member(s), %s)",
                family.name, fam_digest[:16], family.n_members,
                "registry hit" if result.from_cache else "trained at boot",
            )
        for scenario in scenarios:
            digest = scenario.content_digest()
            with self._scenario_lock:
                self._scenarios[digest] = scenario
            route = self._route_for(scenario)
            family = None
            if route is None:
                result = self.service.train(scenario)
                source = "exact" if result.from_cache else "trained"
            else:
                with self._scenario_lock:
                    family = self._families[route]
                source = f"family:{route[:16]}"
            handle = self.service._handle(scenario, family)
            if scenario.transient is None:
                handle.engine.warmup(handle.setup.eval_grid)
            self._boot_sources[digest[:16]] = source
            logger.info(
                "warm-started %s (digest %s, %s)",
                scenario.name, digest[:16],
                {"exact": "registry hit", "trained": "trained at boot"}.get(
                    source, f"family ancestor {source}"
                ),
            )

    def _watchdog_loop(self) -> None:
        """Declare the compute thread wedged past ``watchdog_timeout``.

        Polls the batcher's execute-heartbeat; one dispatch exceeding
        the limit fails every queued and in-flight request with a clean
        error (first-wins resolution discards any late answer from the
        stuck thread) and stops the daemon with a nonzero exit — the
        alternative is every client silently hanging until its socket
        timeout while the queue grows to its depth limit.
        """
        poll = min(0.1, self.watchdog_timeout / 4)
        while not self._watchdog_stop.wait(poll):
            busy = self.batcher.busy_seconds()
            if busy <= self.watchdog_timeout:
                continue
            self._wedged.set()
            failed = self.batcher.fail_pending(
                "error",
                f"compute thread wedged (one dispatch busy {busy:.1f}s, "
                f"watchdog limit {self.watchdog_timeout:g}s); daemon is "
                f"restarting",
            )
            logger.error(
                "watchdog: compute thread wedged for %.1fs (limit %gs); "
                "failed %d pending/in-flight request(s) and shutting down",
                busy, self.watchdog_timeout, failed,
            )
            stop = getattr(self, "_stop_event", None)
            if stop is not None:
                stop.set()
            return

    def serve_forever(self, install_signal_handlers: bool = True,
                      stop: Optional[threading.Event] = None) -> int:
        """Run until SIGINT/SIGTERM (or a ``shutdown`` op).

        Returns 0 after a clean drain, 2 when the watchdog declared the
        compute thread wedged (queued work was failed, not drained —
        the supervisor should restart the process).

        The signal handler only sets a flag — the actual drain (finish
        queued requests, flush responses, close the service) runs on the main
        thread afterwards, so a Ctrl-C mid-batch still answers every
        accepted request before the process exits.

        ``stop`` lets a caller that installed its own earlier signal
        handler share the shutdown event, so a signal delivered before
        this method's handlers take over is still honoured.
        """
        self.start()
        stop = stop if stop is not None else threading.Event()
        self._stop_event = stop
        if install_signal_handlers:
            def _handler(signum, frame):
                logger.info("signal %d: draining and shutting down", signum)
                stop.set()

            signal.signal(signal.SIGINT, _handler)
            signal.signal(signal.SIGTERM, _handler)
        try:
            while not stop.is_set() and not self._closed:
                stop.wait(0.2)
        finally:
            self.close(drain=True)
        return 2 if self._wedged.is_set() else 0

    def close(self, drain: bool = True) -> None:
        """Shut down exactly once: drain, flush, release (idempotent).

        A wedged compute thread turns ``drain=True`` into a bounded
        no-drain close: there is nothing left to drain (the watchdog
        already failed all pending work) and waiting on the stuck
        dispatch would hang the exit path forever.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._draining.set()
        # Stop new connections first so the drain is a closed set.
        # shutdown() before close(): closing the fd alone does not wake
        # a thread blocked in accept() on Linux, which turned every
        # close into a 5s join timeout on the accept thread.
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if drain and self.watchdog_timeout is not None \
                and not self._wedged.is_set():
            # Drain under watchdog supervision: a dispatch that wedges
            # right before (or during) shutdown must not turn close()
            # into an unbounded wait — the still-running watchdog
            # converts it into a wedge verdict, which aborts the drain.
            while (self.batcher.depth() or self.batcher.busy_seconds()) \
                    and not self._wedged.is_set():
                time.sleep(0.05)
        self._watchdog_stop.set()
        if self._wedged.is_set():
            self.batcher.close(drain=False, timeout=2.0)
        else:
            self.batcher.close(drain=drain)
        # Batched responses are flushed by their connection threads the
        # moment their events fire; SHUT_RD turns each handler's next
        # readline into a clean EOF without cutting off those writes.
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        if self._owns_service and not self._wedged.is_set():
            # With a wedged compute thread possibly still *inside* the
            # service, tearing its caches down underneath it could
            # block the exit path; the process is about to die anyway.
            self.service.close()
        logger.info("daemon closed (drained=%s, wedged=%s)",
                    drain and not self._wedged.is_set(),
                    self._wedged.is_set())

    def __enter__(self) -> "ThermalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name=f"repro-serve-conn-{addr[1]}", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rb")
        try:
            peer = conn.getpeername()[1]
        except OSError:
            peer = -1
        try:
            while True:
                try:
                    message = read_frame(stream)
                except ProtocolError as exc:
                    conn.sendall(encode_frame(
                        error_response(None, "bad_request", str(exc))
                    ))
                    return
                if message is None:
                    return
                try:
                    faults.hit("serve.connection", peer=peer,
                               op=message.get("op"))
                except faults.ConnectionDropInjected:
                    return  # abrupt close: client sees a connection reset
                response = self._handle_message(message)
                try:
                    frame = encode_frame(response)
                except (TypeError, ValueError) as exc:
                    # Fails this request alone; the connection stays open.
                    logger.warning("unencodable response: %s", exc)
                    frame = encode_frame(error_response(
                        message.get("id"), "error",
                        f"response not encodable: {exc}"))
                conn.sendall(frame)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # peer went away; nothing to answer
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.discard(conn)

    # ------------------------------------------------------------------
    # Request handling (connection threads)
    # ------------------------------------------------------------------
    def _handle_message(self, message: Dict) -> Dict:
        request_id = message.get("id")
        op = message.get("op")
        if op in INLINE_OPS:
            return self._handle_inline(request_id, op)
        if op not in BATCHED_OPS:
            return error_response(
                request_id, "bad_request",
                f"unknown op {op!r}; expected one of "
                f"{sorted(BATCHED_OPS + INLINE_OPS)}",
            )
        if self._wedged.is_set():
            return error_response(
                request_id, "error",
                "compute thread is wedged; daemon is restarting",
            )
        if self._draining.is_set():
            return error_response(request_id, "shutting_down",
                                  "daemon is draining; not accepting work")
        try:
            request = self._parse_batched(request_id, op, message)
        except RequestError as exc:
            return error_response(request_id, "bad_request", str(exc))
        if not self.batcher.submit(request):
            if self._draining.is_set():
                return error_response(request_id, "shutting_down",
                                      "daemon is draining; not accepting work")
            return overloaded_response(request_id, self.retry_after,
                                       self.batcher.depth())
        if not request.event.wait(self.request_timeout):
            return error_response(
                request_id, "error",
                f"request timed out after {self.request_timeout:g}s in queue",
            )
        return request.response

    def _handle_inline(self, request_id, op: str) -> Dict:
        if op == "ping":
            from .. import __version__

            return ok_response(request_id, {
                "pong": True,
                "version": __version__,
                "uptime_seconds": time.monotonic() - self._started_at,
            })
        if op == "stats":
            return ok_response(request_id, self.stats())
        if op == "health":
            return ok_response(request_id, self.health())
        # shutdown: acknowledge first, then drain on a separate thread so
        # this connection still receives its response.
        threading.Thread(target=self.close, kwargs={"drain": True},
                         name="repro-serve-shutdown", daemon=True).start()
        if getattr(self, "_stop_event", None) is not None:
            self._stop_event.set()
        return ok_response(request_id, {"draining": True})

    def _resolve_scenario(self, raw) -> ThermalScenario:
        """Parse-and-cache the request's scenario spec.

        Keyed twice: a sha over the raw dict skips re-validation of
        byte-identical specs (the hot path — every request from a given
        client repeats its spec), and the content digest is the identity
        everything downstream fuses and caches on.
        """
        if not isinstance(raw, dict):
            raise RequestError("'scenario' must be a ThermalScenario object "
                               "(ThermalScenario.to_dict())")
        spec_key = hashlib.sha1(
            json.dumps(raw, sort_keys=True, separators=(",", ":"))
            .encode("utf-8")
        ).hexdigest()
        with self._scenario_lock:
            digest = self._spec_index.get(spec_key)
            if digest is not None:
                return self._scenarios[digest]
        try:
            scenario = ThermalScenario.from_dict(raw)
        except ScenarioValidationError as exc:
            raise RequestError(
                "invalid scenario: " + "; ".join(exc.errors)
            ) from exc
        digest = scenario.content_digest()
        with self._scenario_lock:
            # First spec to land under a digest wins; identical content
            # under a different name maps onto it (digest is the key).
            existing = self._scenarios.get(digest)
            if existing is None:
                self._scenarios[digest] = scenario
            else:
                scenario = existing
            self._spec_index[spec_key] = digest
        return scenario

    def _route_for(self, scenario: ThermalScenario) -> Optional[str]:
        """The family digest serving this scenario, or ``None`` for exact.

        Fallback ordering: an exact-digest checkpoint (or an
        already-trained session) always wins; only a scenario the
        registry has never trained routes to a covering family
        ancestor.  Routes are cached per digest — the decision is made
        once, so a group's requests all land on one engine.
        """
        digest = scenario.content_digest()
        with self._scenario_lock:
            route = self._routes.get(digest)
        if route is not None:
            return route
        entry = self.service._sessions.get(digest)
        if (entry is not None and entry.trained) \
                or self.service.registry.has(scenario):
            return None
        ancestor = self.service.registry.find_family_ancestor(scenario)
        if ancestor is None:
            return None
        family, _ = ancestor
        fam_digest = family.content_digest()
        with self._scenario_lock:
            self._families.setdefault(fam_digest, family)
            self._routes[digest] = fam_digest
        logger.info("routing %s (digest %s) to family ancestor %s",
                    scenario.name, digest[:16], fam_digest[:16])
        return fam_digest

    def _parse_batched(self, request_id, op: str, message: Dict
                       ) -> QueuedRequest:
        scenario = self._resolve_scenario(message.get("scenario"))
        digest = scenario.content_digest()
        designs = _parse_designs(message.get("designs"))
        grid_shape = _parse_grid_shape(message.get("grid_shape"))
        payload: Dict = {
            "designs": designs,
            "grid_shape": grid_shape,
            "return_fields": bool(message.get("return_fields", True)),
        }
        times = None
        t = None
        if op == "rollout":
            if scenario.transient is None:
                raise RequestError("rollout needs a transient scenario")
            raw_times = message.get("times")
            if not isinstance(raw_times, list) or not raw_times:
                raise RequestError("rollout needs 'times': a non-empty list "
                                   "of seconds")
            try:
                times = [float(v) for v in raw_times]
            except (TypeError, ValueError) as exc:
                raise RequestError(f"'times' must be numbers: {exc}") from exc
            payload["times"] = times
        elif op == "predict":
            t = message.get("t")
            if scenario.transient is not None:
                if t is None:
                    raise RequestError(
                        "transient scenarios evaluate at an instant: pass "
                        "'t' (seconds) or use the rollout op"
                    )
                t = float(t)
            elif t is not None:
                raise RequestError("'t' is only valid for transient scenarios")
            payload["t"] = t
        deadline = None
        timeout_ms = message.get("timeout_ms")
        if timeout_ms is not None:
            try:
                timeout_ms = float(timeout_ms)
            except (TypeError, ValueError) as exc:
                raise RequestError(
                    f"'timeout_ms' must be a number: {exc}"
                ) from exc
            if timeout_ms <= 0:
                raise RequestError("'timeout_ms' must be positive")
            deadline = time.monotonic() + timeout_ms / 1000.0
        # Family routing (surrogate ops only — reference solves use the
        # member's concrete physics, no conditioning): requests for
        # *different* members of one family share a fuse key, so they
        # coalesce into a single conditioned merge dgemm.
        key_digest = digest
        if op != "solve":
            route = self._route_for(scenario)
            if route is not None:
                key_digest = f"family:{route}"
                payload["scenario_digest"] = digest
        key = fuse_key_for(op, key_digest, grid_shape, times=times, t=t)
        return QueuedRequest(request_id=request_id, op=op, fuse_key=key,
                             payload=payload, deadline=deadline)

    # ------------------------------------------------------------------
    # Fused execution (batcher thread)
    # ------------------------------------------------------------------
    def _execute_group(self, group: List[QueuedRequest]) -> None:
        runner = self._runners[group[0].op]
        try:
            # Chaos hook: a "delay" rule here simulates a slow or wedged
            # compute thread (watchdog / drain-under-load tests); a
            # "raise" rule exercises the serial-fallback path below.
            faults.hit("serve.compute", op=group[0].op, batch=len(group))
            runner(group)
        except Exception as exc:
            if len(group) > 1:
                # Serial fallback: one poisoned request must only fail
                # itself.  Recursing with singletons reuses the runner
                # and turns any remaining failure into a per-request
                # error response.
                logger.warning(
                    "fused %s batch of %d failed (%s: %s); retrying serially",
                    group[0].op, len(group), type(exc).__name__, exc,
                )
                for request in group:
                    if not request.event.is_set():
                        self._execute_group([request])
            else:
                request = group[0]
                logger.warning("%s request failed: %s: %s",
                               request.op, type(exc).__name__, exc)
                request.resolve(error_response(
                    request.request_id, "error",
                    f"{type(exc).__name__}: {exc}",
                ))

    def _group_context(self, group: List[QueuedRequest]) -> _GroupContext:
        """Members, designs and the shared engine and grid of a fused group.

        A family-routed group (fuse key ``family:<digest>``) may mix
        members: each distinct member resolves one service handle, whose
        conditioning is injected into that member's designs.  Every
        handle of a group shares the engine and the grid's setup.
        """
        key = group[0].fuse_key[1]
        family = None
        with self._scenario_lock:
            if key.startswith("family:"):
                family = self._families[key[len("family:"):]]
            digests = [r.payload.get("scenario_digest", key) for r in group]
            members = [(digest, self._scenarios[digest]) for digest in digests]
        handles: Dict[str, object] = {}
        for digest, member in members:
            if digest not in handles:
                handles[digest] = self.service._handle(member, family)
        design_groups = [
            handles[digest].condition(request.payload["designs"])
            for request, digest in zip(group, digests)
        ]
        handle = handles[digests[0]]
        grid = self.service._grid(handle.setup,
                                  group[0].payload["grid_shape"])
        return _GroupContext(members, design_groups, handle.engine, grid,
                             handle.family_digest)

    @staticmethod
    def _batch_meta(group: List[QueuedRequest], total_designs: int,
                    elapsed: float) -> Dict:
        return {
            "requests": len(group),
            "designs": total_designs,
            "fused": len(group) > 1,
            "elapsed_seconds": elapsed,
        }

    @staticmethod
    def _answer(group: List[QueuedRequest], members, family_digest,
                summaries: List[Dict], blocks, meta: Dict) -> None:
        """Resolve each request in frame key order.

        ``op``, ``scenario``, ``digest``, ``family`` (routed requests
        only), the op's summary keys, ``batch``, then ``fields``.
        """
        for request, (digest, member), summary, block in zip(
                group, members, summaries, blocks):
            result = {"op": request.op, "scenario": member.name,
                      "digest": digest}
            if family_digest is not None:
                result["family"] = family_digest
            result.update(summary)
            result["batch"] = meta
            if request.payload["return_fields"]:
                result["fields"] = block
            request.resolve(ok_response(request.request_id, result))

    def _run_predict(self, group: List[QueuedRequest]) -> None:
        context = self._group_context(group)
        start = time.perf_counter()
        if context.members[0][1].transient is not None:
            blocks = context.engine.predict_fused(
                context.design_groups, grid=context.grid,
                times=[group[0].payload["t"]])
            blocks = [block[:, 0, :] for block in blocks]
        else:
            blocks = context.engine.predict_fused(context.design_groups,
                                                  grid=context.grid)
        elapsed = time.perf_counter() - start
        self._answer(group, context.members, context.family_digest,
                     [{"peaks": block.max(axis=1)} for block in blocks],
                     blocks, self._batch_meta(group, context.n_designs,
                                              elapsed))

    def _run_rollout(self, group: List[QueuedRequest]) -> None:
        context = self._group_context(group)
        times = np.asarray(group[0].payload["times"], dtype=np.float64)
        start = time.perf_counter()
        blocks = context.engine.predict_fused(context.design_groups,
                                              grid=context.grid, times=times)
        elapsed = time.perf_counter() - start
        self._answer(group, context.members, context.family_digest,
                     [{"times": times, "peak_traces": block.max(axis=2)}
                      for block in blocks],
                     blocks, self._batch_meta(group, context.n_designs,
                                              elapsed))

    def _run_solve(self, group: List[QueuedRequest]) -> None:
        digest = group[0].fuse_key[1]
        with self._scenario_lock:
            scenario = self._scenarios[digest]
        design_groups = [r.payload["designs"] for r in group]
        flat = [design for g in design_groups for design in g]
        # One grouped farm call: every design in the fused batch shares
        # the operator digest, so K requests cost one back-substitution
        # block instead of K factorization-amortized singles.
        solve = self.service.solve(scenario, designs=flat,
                                   grid_shape=group[0].payload["grid_shape"])
        bounds = np.cumsum([0] + [len(g) for g in design_groups])
        spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        summaries = [{
            "grid_shape": list(solve.grid_shape),
            "peaks": solve.peaks[span],
            "energy_imbalance": solve.energy_imbalance[span],
        } for span in spans]
        self._answer(group, [(digest, scenario)] * len(group), None,
                     summaries, [solve.fields[span] for span in spans],
                     self._batch_meta(group, len(flat), solve.elapsed))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        """The ``health`` op payload: readiness + liveness, cheaply.

        Computed entirely from lock-light counters on the connection
        thread — never touches the compute thread — so it answers in
        milliseconds even while a long fused solve holds the batcher.
        ``ready`` means "send work here now"; ``live`` means "the
        compute thread is not wedged" (a supervisor restarts on
        ``live: false``).
        """
        busy = self.batcher.busy_seconds()
        wedged = self._wedged.is_set()
        draining = self._draining.is_set()
        stalled = (self.watchdog_timeout is not None
                   and busy > self.watchdog_timeout)
        # Trunk-cache stats only lock around dict ops — always cheap.
        cache_bytes = int(
            self.service._trunk_cache.cache_stats().get("bytes") or 0
        )
        # The farm's RLock can be held by the compute thread across an
        # operator assembly; a probe must degrade, not queue behind it.
        farm = self.service._farm
        farm_lock = getattr(farm, "_lock", None)
        if farm_lock is not None and farm_lock.acquire(timeout=0.005):
            try:
                cache_bytes += int(farm.cache_stats().get("bytes") or 0)
            finally:
                farm_lock.release()
        status = ("wedged" if wedged or stalled
                  else "draining" if draining else "ok")
        return {
            "status": status,
            "ready": status == "ok",
            "live": not (wedged or stalled),
            "queue_depth": self.batcher.depth(),
            "busy_seconds": busy,
            "watchdog_timeout": self.watchdog_timeout,
            "cache_bytes": cache_bytes,
            "uptime_seconds": time.monotonic() - self._started_at,
        }

    def stats(self) -> Dict:
        """The ``/stats`` payload: queue, caches, scenarios, residency."""
        from .. import __version__

        with self._scenario_lock:
            scenarios = {
                digest[:16]: scenario.name
                for digest, scenario in self._scenarios.items()
            }
            families = {
                digest[:16]: family.name
                for digest, family in self._families.items()
            }
        with self._conn_lock:
            connections = len(self._connections)
        return {
            "version": __version__,
            "uptime_seconds": time.monotonic() - self._started_at,
            "host": self.host,
            "port": self.port,
            "connections": connections,
            "draining": self._draining.is_set(),
            "queue": self.batcher.stats(),
            "caches": self.service.cache_stats(),
            "memory_budget": self.service.memory_budget,
            "scenarios": scenarios,
            "families": families,
            "boot_sources": dict(self._boot_sources),
        }

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "listening" if self._listener is not None else "idle")
        return f"ThermalServer({self.host}:{self.port}, {state})"


def serve_main(
    scenario_paths: Sequence[Union[str, Path]] = (),
    host: str = "127.0.0.1",
    port: int = 7070,
    max_batch: int = 16,
    max_wait: float = 0.005,
    queue_depth: int = 128,
    memory_budget: Optional[int] = None,
    cache_dir: Optional[str] = None,
    watchdog_timeout: Optional[float] = None,
    solver: Optional[str] = None,
) -> int:
    """The ``repro serve`` entry point: boot, warm-start, run, drain.

    Scenario paths holding a family spec (sniffed by
    ``family_schema_version``) warm-start the family's shared
    conditioned model; plain scenario JSONs warm-start exactly as
    before, falling back to a covering family ancestor when their own
    checkpoint is missing.
    """
    from ..family import ScenarioFamily, sniff_family_json

    scenarios = []
    families = []
    for path in scenario_paths:
        if sniff_family_json(path):
            families.append(ScenarioFamily.from_json(path))
        else:
            scenarios.append(ThermalScenario.from_json(path))
    server = ThermalServer(
        host=host, port=port, max_batch=max_batch, max_wait=max_wait,
        queue_depth=queue_depth, memory_budget=memory_budget,
        cache_dir=cache_dir,
        watchdog_timeout=watchdog_timeout, solver=solver,
    )
    # Install the stop handler BEFORE announcing the port: a SIGTERM
    # that lands between "listening" and serve_forever() taking over
    # (e.g. during a slow warm-start) must drain, not kill the process
    # raw.  serve_forever() shares this event, so early signals hold.
    stop = threading.Event()

    def _early_handler(signum, frame):
        logger.info("signal %d: draining and shutting down", signum)
        stop.set()

    signal.signal(signal.SIGINT, _early_handler)
    signal.signal(signal.SIGTERM, _early_handler)
    server.start()
    print(f"repro serve: listening on {server.host}:{server.port} "
          f"(max_batch={max_batch}, max_wait={max_wait * 1e3:g}ms, "
          f"queue_depth={queue_depth})", flush=True)
    if scenarios or families:
        server.warm_start(scenarios, families=families)
        if families:
            print(f"repro serve: warm-started {len(families)} family(ies)",
                  flush=True)
        if scenarios:
            print(f"repro serve: warm-started {len(scenarios)} scenario(s)",
                  flush=True)
    return server.serve_forever(stop=stop)
