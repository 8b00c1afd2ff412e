"""Serving daemon with cross-request micro-batching.

The engine's batched-arrival speedups only reach independent clients if
something manufactures the batches.  This package is that something:

* :mod:`~repro.serve.protocol` — JSON lines and binary array frames,
  each answered in kind; both round-trip float64 exactly;
* :class:`MicroBatcher` — bounded async queue that coalesces requests
  sharing a fuse key (op + scenario content digest + query-point
  identity) into one fused engine call, with backpressure-by-rejection;
* :class:`ThermalServer` — the daemon: socket front end, warm-started
  checkpoint registry, byte-budgeted caches, drain-on-SIGTERM;
* :class:`ThermalClient` — blocking client with ``retry_after``-driven
  backoff.

CLI: ``repro serve --scenario spec.json --port 7070``.
"""

from .batcher import MicroBatcher, QueuedRequest, fuse_key_for
from .client import ServerError, ThermalClient
from .daemon import RequestError, ThermalServer, serve_main
from .protocol import (
    BATCHED_OPS,
    INLINE_OPS,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    overloaded_response,
    read_frame,
)

__all__ = [
    "BATCHED_OPS",
    "INLINE_OPS",
    "MAX_LINE_BYTES",
    "MicroBatcher",
    "ProtocolError",
    "QueuedRequest",
    "RequestError",
    "ServerError",
    "ThermalClient",
    "ThermalServer",
    "decode_frame",
    "encode_frame",
    "error_response",
    "fuse_key_for",
    "ok_response",
    "overloaded_response",
    "read_frame",
    "serve_main",
]
