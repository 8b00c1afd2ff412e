"""``ThermalClient``: a blocking socket client for the serving daemon.

One TCP connection, one request in flight at a time (run N clients —
threads or processes — for concurrency; that is exactly the traffic
shape the daemon's micro-batcher fuses).  The client owns the retry
half of the backpressure contract: ``overloaded`` and ``shutting_down``
responses — and connection resets (a daemon that restarted mid-request)
— are retried with capped exponential backoff plus deterministic
jitter, up to ``max_retries`` times, so callers see a slow answer
instead of an error when the daemon sheds load or is being bounced by a
supervisor.  The server's ``retry_after`` hint acts as a floor on each
sleep.  Every op is idempotent (pure reads of a deterministic model),
which is what makes resend-after-reset safe.  A surfaced
:class:`ServerError` carries ``attempts`` — how many tries were spent.

Requests go out as array frames (:mod:`repro.serve.protocol`), so the
daemon answers in array frames too: every float64 array — design
inputs, fields, peaks, traces — crosses the socket as raw little-endian
bytes and comes back as a writable numpy array, with no JSON float text
on either side.  The round trip is exact, so a result equals bitwise
what the daemon computed.  An unfused answer is therefore bitwise equal
to the in-process ``service.predict(...)``; a fused one comes from a
taller merge dgemm whose BLAS blocking may differ in the last bits, and
is checked against serial to 1e-8 K.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Dict, Optional, Sequence

from ..api import ThermalScenario
from .protocol import ProtocolError, encode_frame, read_frame

#: error codes worth retrying: the daemon said "not now", not "never".
RETRYABLE_CODES = frozenset({"overloaded", "shutting_down"})


class ServerError(RuntimeError):
    """A non-ok response: ``code`` carries the protocol error code.

    ``attempts`` is how many tries the client spent before surfacing
    this (1 for non-retryable codes; ``max_retries + 1`` when a
    retryable condition never cleared).
    """

    def __init__(self, code: str, message: str,
                 retry_after: Optional[float] = None,
                 attempts: int = 1):
        super().__init__(f"[{code}] {message} (after {attempts} attempt(s))")
        self.code = code
        self.retry_after = retry_after
        self.attempts = attempts


class ThermalClient:
    """Connect to a :class:`~repro.serve.daemon.ThermalServer`.

    Parameters
    ----------
    host / port:
        Daemon address.
    timeout:
        Socket timeout per response (covers cold-scenario training on
        the daemon side, hence the generous default).
    max_retries:
        How many retryable failures (``overloaded``, ``shutting_down``,
        connection reset) to absorb before surfacing the error.
    backoff_base / backoff_cap:
        Exponential backoff: attempt ``k`` sleeps
        ``min(cap, base * 2**k)`` seconds (times jitter), but never
        less than the server's ``retry_after`` hint.
    retry_seed:
        Seed for the jitter stream.  Deterministic by design: tests can
        pin it, and a fleet of clients seeded differently (the default
        derives from the object id) desynchronizes instead of
        thundering back in lockstep.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7070,
                 timeout: float = 600.0, max_retries: int = 8,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 retry_seed: Optional[int] = None):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._jitter = random.Random(
            id(self) if retry_seed is None else retry_seed
        )
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "ThermalClient":
        """Open (or reuse) the TCP connection; returns ``self``."""
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._stream = sock.makefile("rb")
        return self

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if self._sock is not None:
            try:
                self._stream.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._stream = None

    def __enter__(self) -> "ThermalClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _roundtrip(self, message: Dict) -> Dict:
        self.connect()
        self._sock.sendall(encode_frame(message, binary=True))
        response = read_frame(self._stream)
        if response is None:
            raise ConnectionError("daemon closed the connection")
        return response

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        """Capped exponential backoff, jittered, floored at retry_after."""
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        delay *= 0.5 + self._jitter.random()  # in [0.5, 1.5) of nominal
        if retry_after is not None:
            delay = max(float(retry_after), delay)
        return delay

    def _call(self, message: Dict) -> Dict:
        """Send, absorbing retryable failures with backoff.

        Retries ``overloaded`` and ``shutting_down`` responses and
        connection resets (reconnecting first); every op is an
        idempotent read, so a resend after a mid-request reset cannot
        corrupt anything.  Non-retryable codes surface immediately.
        """
        message = dict(message)
        message.setdefault("id", next(self._ids))
        last_exc: Optional[ConnectionError] = None
        for attempt in range(self.max_retries + 1):
            try:
                response = self._roundtrip(message)
            except (ConnectionError, TimeoutError, OSError) as exc:
                # Reset/refused/EOF: the daemon died, restarted, or
                # dropped us.  Reconnect from scratch on the next try.
                self.close()
                last_exc = exc
                if attempt < self.max_retries:
                    time.sleep(self._backoff(attempt, None))
                    continue
                raise ServerError(
                    "connection", f"{type(exc).__name__}: {exc}",
                    attempts=attempt + 1,
                ) from exc
            if response.get("ok"):
                return response["result"]
            error = response.get("error") or {}
            code = error.get("code", "error")
            retry_after = error.get("retry_after")
            if code in RETRYABLE_CODES and attempt < self.max_retries:
                time.sleep(self._backoff(attempt, retry_after))
                continue
            raise ServerError(code, error.get("message", "unknown error"),
                              retry_after, attempts=attempt + 1)
        raise ServerError("connection", str(last_exc),
                          attempts=self.max_retries + 1)  # unreachable

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    @staticmethod
    def _scenario_dict(scenario) -> Dict:
        if isinstance(scenario, ThermalScenario):
            return scenario.to_dict()
        if isinstance(scenario, dict):
            return scenario
        raise TypeError("scenario must be a ThermalScenario or its to_dict()")

    def predict(self, scenario, designs: Sequence[Dict],
                grid_shape: Optional[Sequence[int]] = None,
                t: Optional[float] = None,
                return_fields: bool = True,
                timeout_ms: Optional[float] = None) -> Dict:
        """Surrogate-evaluate designs; transient scenarios need ``t``."""
        message: Dict = {
            "op": "predict",
            "scenario": self._scenario_dict(scenario),
            "designs": list(designs),
            "return_fields": return_fields,
        }
        if grid_shape is not None:
            message["grid_shape"] = [int(n) for n in grid_shape]
        if t is not None:
            message["t"] = float(t)
        if timeout_ms is not None:
            message["timeout_ms"] = float(timeout_ms)
        return self._call(message)

    def rollout(self, scenario, designs: Sequence[Dict],
                times: Sequence[float],
                grid_shape: Optional[Sequence[int]] = None,
                return_fields: bool = True,
                timeout_ms: Optional[float] = None) -> Dict:
        """Transient rollout over a shared time grid (seconds)."""
        message: Dict = {
            "op": "rollout",
            "scenario": self._scenario_dict(scenario),
            "designs": list(designs),
            "times": [float(v) for v in times],
            "return_fields": return_fields,
        }
        if grid_shape is not None:
            message["grid_shape"] = [int(n) for n in grid_shape]
        if timeout_ms is not None:
            message["timeout_ms"] = float(timeout_ms)
        return self._call(message)

    def solve(self, scenario, designs: Sequence[Dict],
              grid_shape: Optional[Sequence[int]] = None,
              return_fields: bool = True,
              timeout_ms: Optional[float] = None) -> Dict:
        """FDM reference solve through the daemon's solve farm."""
        message: Dict = {
            "op": "solve",
            "scenario": self._scenario_dict(scenario),
            "designs": list(designs),
            "return_fields": return_fields,
        }
        if grid_shape is not None:
            message["grid_shape"] = [int(n) for n in grid_shape]
        if timeout_ms is not None:
            message["timeout_ms"] = float(timeout_ms)
        return self._call(message)

    def ping(self) -> Dict:
        """Round-trip liveness check through the request queue."""
        return self._call({"op": "ping"})

    def stats(self) -> Dict:
        """The daemon's live cache/farm/queue counters."""
        return self._call({"op": "stats"})

    def health(self) -> Dict:
        """Readiness/liveness probe (answered inline, never queued)."""
        return self._call({"op": "health"})

    def shutdown(self) -> Dict:
        """Ask the daemon to drain and exit (acknowledged immediately)."""
        return self._call({"op": "shutdown"})


__all__ = ["ProtocolError", "ServerError", "ThermalClient"]
