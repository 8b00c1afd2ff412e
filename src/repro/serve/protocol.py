"""Wire protocol of the serving daemon: JSON frames and array frames.

Two frame kinds share one socket, one request and one response per
frame:

* **JSON frame** — one line of compact UTF-8 JSON.  Trivially
  scriptable (``nc localhost 7070``) and language-neutral.  Arrays are
  encoded inside the C JSON encoder (:func:`json_default` hands it each
  ``ndarray`` as ``tolist()``), with no Python pass over a field first;
  frames are byte-identical to converting numpy values up front.
* **Array frame** — what :class:`~repro.serve.client.ThermalClient`
  sends.  A header line, then raw bytes::

      #<payload bytes> <JSON message>\n<payload>

  In the JSON message every float64 ``ndarray`` is replaced by a
  descriptor ``{"__ndarray__": "<f8", "shape": [...], "offset": o,
  "nbytes": n}``; its little-endian ``tobytes()`` sit at ``payload[o:o +
  n]``.  Arrays tile the payload back to back in the order they appear
  in the message.  Other values (numbers, strings, non-float64 arrays)
  stay JSON exactly as in a JSON frame, so a ``"__ndarray__"`` key is
  reserved inside array frames.

The daemon answers in the kind of the request: an array frame gets an
array frame back, a JSON line gets the same JSON line as always.  Both
kinds round-trip float64 exactly (``repr``-exact float literals, raw
bytes), so an answer read through the socket is bitwise the array the
daemon computed.  A header line and a payload are each bounded by
:data:`MAX_LINE_BYTES`; a malformed or oversized frame of either kind
is answered ``bad_request`` and the connection closed.

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
enqueued), ``bad_request`` (malformed frame / unknown op / invalid
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
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ops that carry designs through the micro-batching queue.
BATCHED_OPS = ("predict", "rollout", "solve")
#: ops answered inline by the connection handler (never queued, so they
#: answer in milliseconds even when the compute thread is saturated).
INLINE_OPS = ("ping", "stats", "health", "shutdown")

#: one request line is a scenario spec plus a design batch; 64 MiB is
#: far above any sane request and far below "peer can OOM the daemon".
#: An array frame's payload has the same bound.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: first byte of an array frame (a JSON frame is an object: ``{``).
_ARRAY_TAG = b"#"
#: the key of an array descriptor; its value is the dtype.
_ARRAY_KEY = "__ndarray__"
_ARRAY_DTYPE = "<f8"
_DESCRIPTOR_KEYS = frozenset({_ARRAY_KEY, "shape", "offset", "nbytes"})


class ProtocolError(ValueError):
    """A malformed frame (oversized, invalid JSON, non-object, bad array)."""


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


def encode_frame(message: Dict, binary: bool = False) -> bytes:
    """One protocol frame: a compact JSON line, or with ``binary`` an array frame.

    An array frame carries every float64 ``ndarray`` (any byte order or
    memory layout) as raw little-endian bytes after the header line;
    everything else is encoded as in a JSON frame.
    """
    if not binary:
        return (_ENCODER.encode(message) + "\n").encode("utf-8")
    chunks: List[bytes] = []
    size = 0

    def default(value: Any) -> Any:
        nonlocal size
        if (isinstance(value, np.ndarray) and value.dtype.kind == "f"
                and value.dtype.itemsize == 8):
            raw = value.astype(_ARRAY_DTYPE, copy=False).tobytes()
            descriptor = {_ARRAY_KEY: _ARRAY_DTYPE, "shape": list(value.shape),
                          "offset": size, "nbytes": len(raw)}
            chunks.append(raw)
            size += len(raw)
            return descriptor
        return json_default(value)

    header = json.JSONEncoder(separators=(",", ":"),
                              default=default).encode(message)
    return b"".join([b"%s%d %s\n" % (_ARRAY_TAG, size,
                                      header.encode("utf-8")), *chunks])


def _loads(text: bytes, object_hook: Optional[Callable] = None) -> Dict:
    try:
        message = json.loads(text.decode("utf-8"), object_hook=object_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("a frame must be a JSON object")
    return message


def decode_frame(line: bytes) -> Dict:
    """Parse one received JSON line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    return _loads(line)


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _decode_array_frame(header: bytes, payload: bytearray) -> Dict:
    """The message of an array frame, its descriptors replaced by arrays.

    The arrays are writable views of ``payload``.  Their bytes must tile
    it exactly, in the order the descriptors appear.
    """
    end = 0

    def restore(obj: Dict) -> Any:
        nonlocal end
        if _ARRAY_KEY not in obj:
            return obj
        if obj.keys() != _DESCRIPTOR_KEYS:
            raise ProtocolError(f"array descriptor keys {sorted(obj)}; "
                                f"expected {sorted(_DESCRIPTOR_KEYS)}")
        shape, offset, nbytes = obj["shape"], obj["offset"], obj["nbytes"]
        if obj[_ARRAY_KEY] != _ARRAY_DTYPE:
            raise ProtocolError(f"unknown array dtype {obj[_ARRAY_KEY]!r}; "
                                f"expected {_ARRAY_DTYPE!r}")
        if not (isinstance(shape, list) and all(map(_is_count, shape))
                and _is_count(offset) and _is_count(nbytes)):
            raise ProtocolError("array shape, offset and nbytes must be "
                                "non-negative integers")
        if math.prod(shape) * 8 != nbytes:
            raise ProtocolError(f"array of shape {shape} needs "
                                f"{math.prod(shape) * 8} bytes, not {nbytes}")
        if offset + nbytes > len(payload):
            raise ProtocolError(f"array bytes [{offset}, {offset + nbytes}) lie "
                                f"outside the {len(payload)}-byte payload")
        if offset != end:
            raise ProtocolError(f"array at offset {offset} does not start "
                                f"where the previous one ends ({end})")
        end = offset + nbytes
        return np.frombuffer(payload, dtype=_ARRAY_DTYPE, count=nbytes // 8,
                             offset=offset).reshape(shape)

    message = _loads(header, restore)
    if end != len(payload):
        raise ProtocolError(f"{len(payload) - end} payload byte(s) belong "
                            f"to no array")
    return message


def read_message(stream) -> Optional[Tuple[Dict, bool]]:
    """Read one frame of either kind: ``(message, binary)``.

    ``None`` on clean EOF.  ``binary`` is whether it was an array frame,
    which is the kind the answer must take.
    """
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("unterminated frame (peer hung up mid-line "
                            "or exceeded the size limit)")
    if not line.startswith(_ARRAY_TAG):
        return decode_frame(line), False
    size_text, _, header = line[len(_ARRAY_TAG):].partition(b" ")
    if not size_text.isdigit():
        raise ProtocolError("an array frame starts with "
                            "'#<payload bytes> <JSON message>'")
    size = int(size_text)
    if size > MAX_LINE_BYTES:
        raise ProtocolError(f"array payload of {size} bytes exceeds "
                            f"{MAX_LINE_BYTES} bytes")
    # bytearray, not bytes: the arrays handed out are writable views.
    payload = bytearray(size)
    with memoryview(payload) as view:
        filled = 0
        while filled < size:
            count = stream.readinto(view[filled:])
            if not count:
                raise ProtocolError(f"array payload cut short: {filled} of "
                                    f"{size} bytes arrived")
            filled += count
    return _decode_array_frame(header, payload), True


def read_frame(stream) -> Optional[Dict]:
    """Read one frame of either kind; ``None`` on clean EOF."""
    received = read_message(stream)
    return None if received is None else received[0]


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
