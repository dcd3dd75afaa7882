"""Admission control: the batching queue between protocol and engine.

Every validated ``run`` request joins the group of its
:attr:`RunRequest.batch_key` (graph + algorithm + canonical params);
groups queue in arrival order and the worker threads pull from that
queue.  A free worker takes the oldest group at once — an idle server
adds no wait; while all are busy, compatible requests accumulate and
the next free worker takes up to ``$PYGB_BATCH_MAX`` of them, the rest
going to the back so a hot key cannot starve the others.  No timer: a
batch is what queued while the workers were occupied, run as **one**:

* source-parameterised algorithms (bfs, sssp) fuse k pending sources
  into one multi-source traversal — k rows of one Matrix frontier
  (:mod:`repro.algorithms.multisource`), demultiplexed per client;
* whole-graph algorithms (pagerank, components, triangles) deduplicate —
  one execution, every waiting client gets the same payload.

Each batch runs under a per-request execution context: a fresh
nonblocking scope (its statements batch through the lazy queue and flush
on observation, isolated per worker thread) inside a ``gb.deadline``
budget when ``$PYGB_REQUEST_TIMEOUT`` is set.  A blown budget surfaces
as a structured ``timeout`` error on every request of the batch — the
connection stays up.

``hold()`` parks the queue so tests, the replay harness, and the bench
collector can submit a known set of requests and release them as
deterministic batches (batch sizes otherwise depend on arrival timing).
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from .. import obs
from ..config import current as _config
from ..core.nonblocking import nonblocking
from ..exceptions import GraphBLASError, OperationCancelled, OperationTimeout
from ..guard import deadline
from ..obs.stats import HIST_BUCKETS, hist_bucket, quantiles_ms
from .protocol import ProtocolError, error_response, ok_response
from .registry import GraphRegistry

__all__ = [
    "AdmissionController",
    "request_timeout",
    "batch_max",
    "serve_workers",
    "solo_reference",
    "run_requests",
]


def request_timeout() -> float | None:
    """Per-request wall-clock budget from ``$PYGB_REQUEST_TIMEOUT`` in
    seconds (unset/falsey disables)."""
    return _config().request_timeout


def batch_max() -> int:
    """Most requests one batch takes (``$PYGB_BATCH_MAX``, default 16)."""
    return _config().batch_max


def serve_workers() -> int:
    """Worker threads executing admitted batches (``$PYGB_SERVE_WORKERS``,
    default 2)."""
    return _config().serve_workers


# ----------------------------------------------------------------------
# algorithm execution (shared by the service and the test oracles)
# ----------------------------------------------------------------------


def _coo_result(algorithm: str, graph_name: str, indices, values, source=None) -> dict:
    out_values = np.asarray(values).tolist()
    result = {
        "algorithm": algorithm,
        "graph": graph_name,
        "nvals": len(out_values),
        "indices": np.asarray(indices).tolist(),
        "values": out_values,
    }
    if source is not None:
        result["source"] = int(source)
    return result


def _run_whole(graph, graph_name: str, algorithm: str, params: dict) -> dict:
    from .. import core
    from ..algorithms import (
        connected_components,
        lower_triangle,
        pagerank,
        triangle_count,
    )

    if algorithm == "pagerank":
        ranks = core.Vector(shape=(graph.nrows,), dtype=float)
        pagerank(
            graph,
            ranks,
            damping_factor=params.get("damping", 0.85),
            threshold=params.get("tol", 1.0e-8),
            max_iters=params.get("max_iters", 100000),
        )
        return {
            "algorithm": "pagerank",
            "graph": graph_name,
            "ranks": ranks.to_numpy().tolist(),
        }
    if algorithm == "components":
        labels = connected_components(graph)
        idx, vals = labels.to_coo()
        return _coo_result("components", graph_name, idx, vals)
    if algorithm == "triangles":
        count = triangle_count(lower_triangle(graph))
        return {"algorithm": "triangles", "graph": graph_name, "count": int(count)}
    raise ProtocolError("unknown-algorithm", f"unknown algorithm {algorithm!r}")


def run_requests(graph, graph_name: str, algorithm: str, params: dict, sources) -> list[dict]:
    """Execute one admitted batch: *sources* is the per-request source
    list for fusable algorithms (``[None]*k`` for whole-graph ones).
    Returns one result dict per request, in order."""
    from ..algorithms.multisource import bfs_levels_multi, sssp_distances_multi

    if algorithm in ("bfs", "sssp"):
        runner = bfs_levels_multi if algorithm == "bfs" else sssp_distances_multi
        rows, cols, vals = runner(graph, sources).to_coo()
        # row-major: request k's answer is the slice where rows == k
        cuts = np.searchsorted(rows, np.arange(len(sources) + 1)).tolist()
        return [
            _coo_result(algorithm, graph_name, cols[lo:hi], vals[lo:hi], source)
            for lo, hi, source in zip(cuts, cuts[1:], sources)
        ]
    shared = _run_whole(graph, graph_name, algorithm, params)
    return [shared] * len(sources)


def solo_reference(graph, graph_name: str, algorithm: str, source, params: dict) -> dict:
    """The oracle: run one request through the public **single-source**
    algorithm API, no service machinery.  The replay harness and the
    protocol tests compare every batched response against this — fusion
    must be invisible, bit for bit."""
    from ..algorithms import bfs_levels, sssp_distances

    if algorithm == "bfs":
        levels = bfs_levels(graph, int(source))
        idx, vals = levels.to_coo()
        return _coo_result("bfs", graph_name, idx, vals, source)
    if algorithm == "sssp":
        dist = sssp_distances(graph, int(source))
        idx, vals = dist.to_coo()
        return _coo_result("sssp", graph_name, idx, vals, source)
    return _run_whole(graph, graph_name, algorithm, params)


# ----------------------------------------------------------------------
# the pending queue
# ----------------------------------------------------------------------


class _Pending:
    """One admitted request waiting for its batch to execute."""

    __slots__ = ("request", "event", "response", "submitted_ns")

    def __init__(self, request):
        self.request = request
        self.event = threading.Event()
        self.response: dict | None = None
        self.submitted_ns = time.perf_counter_ns()

    def resolve(self, response: dict) -> None:
        self.response = response
        self.event.set()

    def wait(self, timeout: float | None = None) -> dict:
        if not self.event.wait(timeout):
            return error_response(
                self.request.id, "timeout",
                "the service did not produce a response in time",
            )
        return self.response


class _Group:
    """Pending requests sharing one batch key, oldest first."""

    __slots__ = ("pendings",)

    def __init__(self):
        self.pendings: list[_Pending] = []


class AdmissionController:
    """The batching queue.  ``submit()`` is called from connection
    handler threads; the worker threads pull batches from it."""

    def __init__(
        self,
        registry: GraphRegistry,
        max_batch: int | None = None,
        workers: int | None = None,
    ):
        self.registry = registry
        self._max_batch = max_batch
        self._cond = threading.Condition()
        #: dict order is queue order: a key enters at the back
        self._groups: dict[tuple, _Group] = {}
        self._held = 0
        self._closed = False
        #: algorithm -> (queue-wait, execute) log2 histograms of ns
        self._latency: dict[str, tuple[list[int], list[int]]] = {}
        self._workers = [
            threading.Thread(target=self._work, name=f"pygb-serve_{k}", daemon=True)
            for k in range(workers if workers is not None else serve_workers())
        ]
        for worker in self._workers:
            worker.start()

    def max_batch(self) -> int:
        """The constructor override, else ``$PYGB_BATCH_MAX``."""
        return self._max_batch if self._max_batch is not None else batch_max()

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def hold(self):
        """Park the queue for the block — submitted requests wait even
        while workers idle and release as deterministic batches on exit."""
        with self._cond:
            self._held += 1
        try:
            yield self
        finally:
            with self._cond:
                self._held -= 1
                self._cond.notify_all()

    def submit(self, request) -> _Pending:
        """Admit a validated :class:`RunRequest`; returns the pending
        slot its connection thread waits on."""
        from . import note_request

        if self.registry.get(request.graph) is None:
            raise ProtocolError(
                "unknown-graph",
                f"unknown graph {request.graph!r} "
                f"(loaded: {', '.join(self.registry.names()) or 'none'})",
            )
        source = request.source
        if source is not None:
            n = self.registry.get(request.graph).nrows
            if not 0 <= int(source) < n:
                raise ProtocolError(
                    "bad-source",
                    f"source {source} out of range for {n} vertices",
                )
        pending = _Pending(request)
        with self._cond:
            if self._closed:
                raise ProtocolError("shutting-down", "the service is shutting down")
            group = self._groups.get(request.batch_key)
            if group is None:
                group = self._groups[request.batch_key] = _Group()
            group.pendings.append(pending)
            self._cond.notify()
        note_request(request.graph, request.algorithm)
        if obs.ACTIVE:
            obs.record_event(
                "service.request", "service",
                graph=request.graph, algorithm=request.algorithm,
            )
        return pending

    def close(self) -> None:
        """Fail any still-parked requests and join the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            leftovers = [p for g in self._groups.values() for p in g.pendings]
            self._groups.clear()
            self._cond.notify_all()
        for pending in leftovers:
            pending.resolve(
                error_response(
                    pending.request.id, "shutting-down",
                    "the service is shutting down",
                )
            )
        for worker in self._workers:
            worker.join()

    def latency(self) -> dict:
        """``{algorithm: {"queue_wait_ms" | "execute_ms": {p50, p95, p99,
        n}}}`` over every request served so far: how long it queued
        (submit to dequeue) and how long its batch then ran.  Under load
        the first grows and the second does not."""
        with self._cond:
            return {
                algorithm: {"queue_wait_ms": quantiles_ms(waits), "execute_ms": quantiles_ms(runs)}
                for algorithm, (waits, runs) in sorted(self._latency.items())
            }

    # ------------------------------------------------------------------
    # the queue (worker threads)
    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            with self._cond:
                while self._held or not self._groups:
                    if self._closed:
                        return
                    self._cond.wait()
                key = next(iter(self._groups))  # the oldest group
                group = self._groups.pop(key)
                cap = self.max_batch()
                batch = group.pendings[:cap]
                if len(group.pendings) > cap:
                    # the rest queues behind the keys already waiting
                    del group.pendings[:cap]
                    self._groups[key] = group
            start = time.perf_counter_ns()
            self._run_batch(batch)
            self._record_latency(batch, start, time.perf_counter_ns() - start)

    def _record_latency(self, batch: list[_Pending], start: int, ran_ns: int) -> None:
        algorithm = batch[0].request.algorithm
        with self._cond:
            waits, runs = self._latency.setdefault(
                algorithm, ([0] * HIST_BUCKETS, [0] * HIST_BUCKETS)
            )
            for pending in batch:
                waits[hist_bucket(start - pending.submitted_ns)] += 1
            runs[hist_bucket(ran_ns)] += len(batch)
        if obs.ACTIVE:
            obs.record_span(
                "service.execute", "service", start, ran_ns,
                algorithm=algorithm, size=len(batch),
                wait_ns=start - batch[0].submitted_ns,
            )

    # ------------------------------------------------------------------
    # batch execution (worker threads)
    # ------------------------------------------------------------------
    def _run_batch(self, pendings: list[_Pending]) -> None:
        from . import note_batch, note_error, note_timeout

        first = pendings[0].request
        graph_name, algorithm, _params_key = first.batch_key
        size = len(pendings)
        fused = size > 1 and first.source is not None
        note_batch(graph_name, algorithm, size, fused)
        if obs.ACTIVE:
            obs.record_event(
                "service.batch", "service",
                graph=graph_name, algorithm=algorithm, size=size, fused=fused,
            )
        graph = self.registry.get(graph_name)
        sources = [p.request.source for p in pendings]
        budget = request_timeout()
        scope = deadline(seconds=budget) if budget is not None else contextlib.nullcontext()
        try:
            with scope, nonblocking():
                results = run_requests(
                    graph, graph_name, algorithm, first.params, sources
                )
            for pending, result in zip(pendings, results):
                pending.resolve(ok_response(pending.request.id, result))
        except OperationTimeout as exc:
            note_timeout(size)
            if obs.ACTIVE:
                obs.record_event(
                    "service.timeout", "service",
                    graph=graph_name, algorithm=algorithm, size=size,
                )
            self._fail(pendings, "timeout", f"request budget exhausted: {exc}")
        except OperationCancelled as exc:
            note_timeout(size)
            self._fail(pendings, "cancelled", f"request cancelled: {exc}")
        except ProtocolError as exc:
            note_error(size)
            self._fail(pendings, exc.code, str(exc))
        except GraphBLASError as exc:
            note_error(size)
            if obs.ACTIVE:
                obs.record_event(
                    "service.error", "service",
                    graph=graph_name, algorithm=algorithm, size=size,
                )
            self._fail(pendings, "internal", f"execution failed: {exc}")
        except BaseException as exc:  # a worker must never strand its clients
            note_error(size)
            if obs.ACTIVE:
                obs.record_event(
                    "service.error", "service",
                    graph=graph_name, algorithm=algorithm, size=size,
                )
            self._fail(pendings, "internal", f"unexpected failure: {exc!r}")

    @staticmethod
    def _fail(pendings: list[_Pending], code: str, message: str) -> None:
        for pending in pendings:
            pending.resolve(error_response(pending.request.id, code, message))
