"""Cross-request micro-batching queue for the serving daemon.

The engine's economics are extreme: once requests arrive as one
``(B, q) @ (q, N)`` batch, the marginal cost of a design is one branch
forward — the 400–976x speedups PR 1/PR 4 measured all assume batched
arrival.  Independent clients do not arrive batched, so this module
manufactures the batches: requests are queued, grouped by *fuse key*
(op + scenario content digest + query-point identity — everything that
must match for two requests to share a trunk-feature cache entry and a
merge dgemm), and dispatched together.

Dispatch policy (head-of-line grouping):

* the oldest pending request picks the fuse key of the next batch;
* the moment the dispatcher is free it takes that head request together
  with every request already queued under the same fuse key, up to
  ``max_batch`` — so an idle daemon dispatches a request as soon as it
  arrives, and requests fuse whenever a backlog forms behind a busy
  compute thread;
* requests under other fuse keys keep their arrival order and form the
  following batches.

The queue is **bounded**: :meth:`MicroBatcher.submit` refuses (returns
``False``) when ``queue_depth`` requests are already pending, and the
daemon turns that refusal into an ``overloaded`` response with a
``retry_after`` hint.  Backpressure-by-rejection is the memory-safety
contract — a traffic spike costs clients retries, never the daemon
unbounded buffering.

Execution happens on the single dispatcher thread; per-request
completion is signalled through each request's :class:`threading.Event`,
which the connection handler threads wait on.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.serve")


@dataclass
class QueuedRequest:
    """One in-flight request: payload plus its completion signalling.

    ``deadline`` (monotonic seconds, ``None`` = never) lets the client
    bound its wait: a request whose deadline passes while still queued
    is resolved ``deadline_exceeded`` *before* any compute is spent on
    it.  :meth:`resolve` is first-wins — a watchdog failing an in-flight
    request and the compute thread finishing it late can both call it,
    and only the first answer reaches the client.
    """

    request_id: Any
    op: str
    fuse_key: Tuple
    payload: Dict
    arrival: float = field(default_factory=time.monotonic)
    deadline: Optional[float] = None
    event: threading.Event = field(default_factory=threading.Event)
    response: Optional[Dict] = None
    _resolve_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def resolve(self, response: Dict) -> bool:
        """Deliver ``response`` unless one was already delivered."""
        with self._resolve_lock:
            if self.event.is_set():
                return False
            self.response = response
            self.event.set()
            return True

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline passed while it waited."""
        return (self.deadline is not None
                and (time.monotonic() if now is None else now) > self.deadline)


class MicroBatcher:
    """Bounded async request queue with fuse-key coalescing.

    Parameters
    ----------
    execute:
        ``execute(group)`` — called on the dispatcher thread with a
        non-empty list of :class:`QueuedRequest` sharing one fuse key;
        must :meth:`~QueuedRequest.resolve` every request (the batcher
        resolves any it leaves behind with an internal error, so a
        buggy executor can never strand a client).
    max_batch:
        Most queued same-key requests fused into one dispatch (>= 1; 1
        disables fusion — the "unfused" baseline of the load benchmark).
    queue_depth:
        Most requests pending (queued, not yet dispatched) before
        :meth:`submit` starts refusing.
    """

    def __init__(
        self,
        execute: Callable[[List[QueuedRequest]], None],
        max_batch: int = 16,
        queue_depth: int = 128,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.execute = execute
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self._pending: List[QueuedRequest] = []
        self._cond = threading.Condition()
        self._closing = False
        self._drained = threading.Event()
        self._inflight: List[QueuedRequest] = []
        self._busy_since: Optional[float] = None
        self._stats = {
            "submitted": 0,
            "rejected": 0,
            "expired": 0,          # dropped at their deadline, pre-compute
            "dispatched_batches": 0,
            "dispatched_requests": 0,
            "fused_requests": 0,   # requests that shared their dispatch
            "max_batch_seen": 0,
        }
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, request: QueuedRequest) -> bool:
        """Enqueue; ``False`` means the queue is full (backpressure) or
        the batcher is shutting down — nothing was enqueued either way."""
        with self._cond:
            if self._closing:
                return False
            if len(self._pending) >= self.queue_depth:
                self._stats["rejected"] += 1
                return False
            self._stats["submitted"] += 1
            self._pending.append(request)
            self._cond.notify_all()
            return True

    def depth(self) -> int:
        """Pending requests right now."""
        with self._cond:
            return len(self._pending)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (enqueued, fused, rejected, depth, ...)."""
        with self._cond:
            snapshot = dict(self._stats)
            snapshot["depth"] = len(self._pending)
            snapshot["queue_depth"] = self.queue_depth
            snapshot["max_batch"] = self.max_batch
            return snapshot

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _expire_locked(self) -> None:
        """Drop queued requests whose deadline passed (never dispatched).

        Caller holds ``self._cond``.  Answering ``deadline_exceeded``
        here — before any compute — is the whole value of a deadline:
        a client that has already given up must not cost a merge dgemm.
        """
        now = time.monotonic()
        alive: List[QueuedRequest] = []
        for request in self._pending:
            if request.expired(now):
                self._stats["expired"] += 1
                request.resolve({
                    "id": request.request_id,
                    "ok": False,
                    "error": {
                        "code": "deadline_exceeded",
                        "message": (
                            f"request deadline passed after "
                            f"{now - request.arrival:.3f}s in queue; "
                            f"dropped before compute"
                        ),
                    },
                })
            else:
                alive.append(request)
        self._pending = alive

    def _take_group(self) -> Optional[List[QueuedRequest]]:
        """Block until work is queued, then take the head request and
        every request already queued under its fuse key (up to
        ``max_batch``).  ``None`` once shutdown has emptied the queue."""
        with self._cond:
            while True:
                while not self._pending:
                    if self._closing:
                        return None
                    self._cond.wait()
                self._expire_locked()
                if self._pending:
                    break  # else everything expired; wait for fresh work
            head = self._pending[0]
            group: List[QueuedRequest] = []
            rest: List[QueuedRequest] = []
            for request in self._pending:
                if (request.fuse_key == head.fuse_key
                        and len(group) < self.max_batch):
                    group.append(request)
                else:
                    rest.append(request)
            self._pending = rest
            self._stats["dispatched_batches"] += 1
            self._stats["dispatched_requests"] += len(group)
            if len(group) > 1:
                self._stats["fused_requests"] += len(group)
            self._stats["max_batch_seen"] = max(
                self._stats["max_batch_seen"], len(group)
            )
            return group

    def _dispatch_loop(self) -> None:
        while True:
            group = self._take_group()
            if group is None:
                break
            # The heartbeat a wedged-compute watchdog reads: busy_since
            # is set for exactly the span execute() runs, and _inflight
            # names the requests a watchdog must fail if it never ends.
            with self._cond:
                self._inflight = list(group)
                self._busy_since = time.monotonic()
            try:
                self.execute(group)
            except BaseException as exc:  # executor bug: never strand clients
                for request in group:
                    request.resolve({
                        "id": request.request_id,
                        "ok": False,
                        "error": {"code": "error",
                                  "message": f"internal dispatch "
                                             f"failure: {exc}"},
                    })
            else:
                for request in group:
                    request.resolve({
                        "id": request.request_id,
                        "ok": False,
                        "error": {"code": "error",
                                  "message": "executor returned without "
                                             "resolving this request"},
                    })
            finally:
                with self._cond:
                    self._inflight = []
                    self._busy_since = None
        self._drained.set()

    def busy_seconds(self) -> float:
        """How long the dispatcher has been inside one execute() call.

        0.0 when idle.  This is the liveness signal: a value that keeps
        growing past any sane compute time means the single compute
        thread is wedged and every queued client is stuck behind it.
        """
        with self._cond:
            if self._busy_since is None:
                return 0.0
            return time.monotonic() - self._busy_since

    def fail_pending(self, code: str, message: str) -> int:
        """Fail every queued *and* in-flight request with ``code``.

        The watchdog's hammer: clients blocked behind a wedged compute
        thread get a clean, machine-actionable error now instead of a
        socket timeout later.  First-wins resolution makes this safe to
        race against a compute thread that eventually comes back — its
        late answers are discarded.  Returns how many requests this
        call actually resolved.
        """
        with self._cond:
            victims = self._pending + self._inflight
            self._pending = []
            self._cond.notify_all()
        failed = 0
        for request in victims:
            failed += request.resolve({
                "id": request.request_id,
                "ok": False,
                "error": {"code": code, "message": message},
            })
        return failed

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None
              ) -> Optional[threading.Thread]:
        """Stop accepting; by default finish everything already queued.

        ``drain=False`` instead fails pending requests immediately with
        a ``shutting_down`` error.  Idempotent either way.  Returns the
        dispatcher thread if it failed to join within ``timeout`` (a
        wedged executor leaks it — logged, and the caller's exit path
        can report it), else ``None``.
        """
        with self._cond:
            self._closing = True
            if not drain:
                for request in self._pending:
                    request.resolve({
                        "id": request.request_id,
                        "ok": False,
                        "error": {"code": "shutting_down",
                                  "message": "daemon is shutting down"},
                    })
                self._pending = []
            self._cond.notify_all()
        self._drained.wait(timeout)
        self._thread.join(timeout)
        if self._thread.is_alive():
            logger.warning(
                "batcher dispatch thread %r did not exit within %ss "
                "(executor still running?); leaking it as a daemon thread",
                self._thread.name, timeout,
            )
            return self._thread
        return None

    @property
    def closed(self) -> bool:
        """Whether shutdown has begun (no new intake)."""
        with self._cond:
            return self._closing


def fuse_key_for(
    op: str,
    digest: str,
    grid_shape: Optional[Sequence[int]],
    times: Optional[Sequence[float]] = None,
    t: Optional[float] = None,
) -> Tuple:
    """The identity two requests must share to ride one merge dgemm.

    Binding the scenario *content digest* (not the name) means two
    users posting byte-identical physics fuse even if they renamed
    their configs; binding the query-point identity (grid shape or the
    scenario's default eval grid, plus the exact time stamps) means a
    fused group shares a single trunk-feature cache entry.
    """
    grid_token = ("grid", tuple(int(n) for n in grid_shape)) \
        if grid_shape is not None else ("eval",)
    time_token: Tuple = ()
    if times is not None:
        time_token = ("times", tuple(float(v) for v in times))
    elif t is not None:
        time_token = ("t", float(t))
    return (op, digest, grid_token) + time_token
