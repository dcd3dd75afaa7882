"""Graph service mode: a multi-tenant query server over preloaded graphs.

``python -m repro serve --graphs manifest.json`` boots the stack in this
package:

=============  ========================================================
module         role
=============  ========================================================
`protocol`     line-JSON wire format, eager validation, error codes
`registry`     named preloaded graphs (manifest loader, prewarming)
`admission`    the batching queue: compatible requests fuse into one
               multi-source run under a per-request deadline budget
`server`       threaded TCP front end with live ``health``/``stats``
=============  ========================================================

This module also owns the service's **deterministic counters** —
requests, batches, batched requests, fusion totals, the batch-size
histogram, timeouts, and error tallies — mirroring the module-level
``stats()`` / ``reset_stats()`` convention of :mod:`repro.schedule`
and :mod:`repro.guard` so ``repro stats``,
``repro doctor``, and ``benchmarks/collect_bench.py`` can gate on them.
"""

from __future__ import annotations

import threading

from .admission import AdmissionController, solo_reference
from .protocol import ALGORITHMS, ProtocolError, RunRequest
from .registry import GraphRegistry, load_manifest
from .server import GraphServer

__all__ = [
    "ALGORITHMS",
    "AdmissionController",
    "GraphRegistry",
    "GraphServer",
    "ProtocolError",
    "RunRequest",
    "load_manifest",
    "solo_reference",
    "serve",
    "stats",
    "reset_stats",
]

_LOCK = threading.Lock()

_HIST_BUCKETS = ("1", "2_4", "5_8", "9_plus")


def _fresh() -> dict:
    return {
        "requests": 0,
        "batches": 0,
        "batched_requests": 0,
        "fused_runs": 0,
        "fused_sources": 0,
        "timeouts": 0,
        "errors": 0,
        "protocol_errors": 0,
        "disconnects": 0,
        "batch_hist": dict.fromkeys(_HIST_BUCKETS, 0),
    }


_COUNTERS = _fresh()


def _hist_bucket(size: int) -> str:
    if size <= 1:
        return "1"
    if size <= 4:
        return "2_4"
    if size <= 8:
        return "5_8"
    return "9_plus"


def note_request(graph: str, algorithm: str) -> None:
    with _LOCK:
        _COUNTERS["requests"] += 1


def note_batch(graph: str, algorithm: str, size: int, fused: bool) -> None:
    with _LOCK:
        _COUNTERS["batches"] += 1
        _COUNTERS["batch_hist"][_hist_bucket(size)] += 1
        if size > 1:
            _COUNTERS["batched_requests"] += size
        if fused:
            _COUNTERS["fused_runs"] += 1
            _COUNTERS["fused_sources"] += size


def note_timeout(size: int) -> None:
    with _LOCK:
        _COUNTERS["timeouts"] += size


def note_error(size: int) -> None:
    with _LOCK:
        _COUNTERS["errors"] += size


def note_protocol_error() -> None:
    with _LOCK:
        _COUNTERS["protocol_errors"] += 1


def note_disconnect() -> None:
    with _LOCK:
        _COUNTERS["disconnects"] += 1


def stats() -> dict:
    """Deterministic service counters since import (or the last
    :func:`reset_stats`).  Values depend only on the admitted request
    mix and formed batches, never on wall-clock timing."""
    with _LOCK:
        out = dict(_COUNTERS)
        out["batch_hist"] = dict(_COUNTERS["batch_hist"])
        return out


def reset_stats() -> None:
    """Zero the counters (benchmark and test isolation)."""
    global _COUNTERS
    with _LOCK:
        _COUNTERS = _fresh()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: GraphRegistry | None = None,
) -> GraphServer:
    """Convenience constructor: build a :class:`GraphServer` over
    *registry* (empty by default) without starting it."""
    return GraphServer(registry if registry is not None else GraphRegistry(),
                       host=host, port=port)
