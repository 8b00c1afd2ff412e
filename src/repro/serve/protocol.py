"""Newline-delimited JSON wire protocol for the serving daemon.

One request per line, one response per line, UTF-8 JSON — trivially
scriptable (``nc localhost 7070``), language-neutral, and exactly
round-trippable: Python's ``json`` emits ``repr``-exact float literals,
so a temperature field survives the wire bitwise, which is what lets the
daemon tests assert *bitwise* fused-vs-serial parity through a real
socket.

Arrays are encoded inside the C JSON encoder (:func:`json_default` hands
it each ``ndarray`` as ``tolist()``), with no Python pass over a field
first; frames are byte-identical to converting numpy values up front.

Request shape::

    {"id": <any>, "op": "predict" | "rollout" | "solve" | "stats"
                       | "ping" | "health" | "shutdown",
     "scenario": {...ThermalScenario.to_dict()...},   # compute ops
     "designs": [{input_name: nested-list | scalar}, ...],
     "times": [...],          # rollout
     "t": <seconds>,          # transient predict at one instant
     "timeout_ms": <float>,   # optional per-request deadline: if it
                              # passes while the request is still
                              # queued, the daemon answers
                              # ``deadline_exceeded`` without spending
                              # compute on it
     "grid_shape": [nx, ny, nz]}                      # optional

Response shape::

    {"id": <echoed>, "ok": true,  "result": {...}}
    {"id": <echoed>, "ok": false, "error": {"code": ..., "message": ...,
                                            "retry_after": <seconds>?}}

``code`` is machine-actionable: ``overloaded`` (backpressure — retry
after ``retry_after`` seconds; the queue was full, nothing was
enqueued), ``bad_request`` (malformed JSON / unknown op / invalid
scenario — do not retry), ``error`` (the request itself failed
server-side), ``shutting_down`` (daemon is draining; connect elsewhere
or retry later), ``deadline_exceeded`` (the request's own
``timeout_ms`` passed before compute started — nothing ran; resend
with a larger deadline if still wanted).

``health`` is answered inline on the connection thread — it stays fast
even while the single compute thread grinds through a long fused batch,
which is what makes it usable as a readiness/liveness probe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

#: ops that carry designs through the micro-batching queue.
BATCHED_OPS = ("predict", "rollout", "solve")
#: ops answered inline by the connection handler (never queued, so they
#: answer in milliseconds even when the compute thread is saturated).
INLINE_OPS = ("ping", "stats", "health", "shutdown")

#: one request line is a scenario spec plus a design batch; 64 MiB is
#: far above any sane request and far below "peer can OOM the daemon".
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame (oversized line, invalid JSON, non-object)."""


def json_default(value: Any) -> Any:
    """``default`` hook: ``ndarray`` to ``tolist()``, numpy scalar to ``item()``.

    Dict keys are not converted: payloads build them as ``str``.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=json_default)


def encode_frame(message: Dict) -> bytes:
    """One protocol frame: compact JSON + newline, UTF-8."""
    return (_ENCODER.encode(message) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict:
    """Parse one received line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("a frame must be a JSON object")
    return message


def read_frame(stream) -> Optional[Dict]:
    """Read one frame from a file-like stream; ``None`` on clean EOF."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("unterminated frame (peer hung up mid-line "
                            "or exceeded the size limit)")
    return decode_frame(line)


# ----------------------------------------------------------------------
# Response constructors
# ----------------------------------------------------------------------
def ok_response(request_id: Any, result: Dict) -> Dict:
    """A success frame carrying ``result``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> Dict:
    """A failure frame: ``code``, ``message``, optional ``retry_after``."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = float(retry_after)
    return {"id": request_id, "ok": False, "error": error}


def overloaded_response(request_id: Any, retry_after: float,
                        depth: int) -> Dict:
    """The backpressure answer: rejected *before* enqueueing.

    Bounded queue + reject-with-retry-after is what keeps a traffic
    spike from growing the daemon's memory without bound; the client's
    contract is to back off ``retry_after`` seconds and resend.
    """
    return error_response(
        request_id,
        "overloaded",
        f"request queue is full ({depth} pending); retry later",
        retry_after=retry_after,
    )
