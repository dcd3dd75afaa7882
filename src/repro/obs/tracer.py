"""Monotonic-clock span recording and the engine tracing wrapper.

The paper's evaluation (Figs. 5–8) decomposes every DSL call into Python
overhead vs. kernel time; this module is the live counterpart.  A
:class:`Tracer` collects **spans** — one per engine dispatch, JIT module
retrieval, or C++ FFI call — timed with ``time.perf_counter_ns`` (the
monotonic clock), plus instant **events** for cache outcomes.  Sinks:

* ``chrome`` — Chrome ``trace_event`` JSON (load in ``chrome://tracing``
  or Perfetto) written on flush;
* ``log`` — one line per span on stderr as it happens;
* stats — every tracer folds spans into a
  :class:`~repro.obs.stats.StatsAggregator` for ``python -m repro stats``.

The off path costs one predicated branch per operation: dispatch sites
test ``obs.ACTIVE`` (a module-level bool) and never touch this module
while it is False.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from .stats import StatsAggregator, persist_stats

__all__ = ["Tracer", "TracingEngine"]

def _payload(args) -> tuple[int, int]:
    """(nvals, bytes) summed over the backend containers in *args* —
    the stored-entry count and the buffer footprint the op touched."""
    nvals = 0
    nbytes = 0
    for a in args:
        vals = getattr(a, "values", None)
        if isinstance(vals, np.ndarray):
            nvals += vals.size
            nbytes += vals.nbytes
            idx = getattr(a, "indices", None)
            if isinstance(idx, np.ndarray):
                nbytes += idx.nbytes
            ptr = getattr(a, "indptr", None)
            if isinstance(ptr, np.ndarray):
                nbytes += ptr.nbytes
    return int(nvals), int(nbytes)


class Tracer:
    """Span/event collector with optional Chrome-trace and log sinks."""

    def __init__(
        self,
        chrome_path: str | os.PathLike | None = None,
        log: bool = False,
        stats_path: str | os.PathLike | None = None,
        persist: bool = False,
    ):
        self.chrome_path = Path(chrome_path) if chrome_path else None
        self.log = log
        self.stats = StatsAggregator()
        self.stats_path = Path(stats_path) if stats_path else None
        self.persist = persist or stats_path is not None
        self._events: list[dict] | None = [] if self.chrome_path else None
        self._lock = threading.Lock()
        self._flushed = False
        self._wrapped: dict[int, tuple[object, TracingEngine]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, name: str, cat: str, t0_ns: int, dur_ns: int, attrs: dict) -> None:
        """A completed span: *t0_ns* from ``perf_counter_ns``."""
        self.stats.note_span(name, cat, dur_ns, attrs)
        if self._events is not None:
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": t0_ns / 1e3,  # Chrome wants microseconds
                "dur": dur_ns / 1e3,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": {k: v for k, v in attrs.items() if v is not None},
            }
            with self._lock:
                self._events.append(event)
        if self.log:
            rendered = " ".join(
                f"{k}={v}" for k, v in attrs.items() if v is not None
            )
            print(
                f"pygb-trace [{cat}] {name} {dur_ns / 1e3:.1f}us {rendered}",
                file=sys.stderr,
            )

    def instant(self, name: str, cat: str, attrs: dict) -> None:
        """A zero-duration event (cache hit/miss/compile/quarantine)."""
        self.stats.note_event(name, cat, attrs)
        if self._events is not None:
            event = {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": time.perf_counter_ns() / 1e3,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": {k: v for k, v in attrs.items() if v is not None},
            }
            with self._lock:
                self._events.append(event)
        if self.log:
            rendered = " ".join(f"{k}={v}" for k, v in attrs.items() if v is not None)
            print(f"pygb-trace [{cat}] {name} {rendered}", file=sys.stderr)

    # ------------------------------------------------------------------
    # engine wrapping (the dispatch hook)
    # ------------------------------------------------------------------
    def wrap_engine(self, engine):
        """A :class:`TracingEngine` around *engine*, memoised per engine
        instance so hot loops reuse one wrapper (and its cached bound
        methods)."""
        if isinstance(engine, TracingEngine):
            return engine
        entry = self._wrapped.get(id(engine))
        if entry is not None and entry[0] is engine:
            return entry[1]
        wrapper = TracingEngine(engine, self)
        self._wrapped[id(engine)] = (engine, wrapper)
        return wrapper

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write the Chrome trace file and persist aggregated stats.
        Idempotent — the atexit hook and an explicit ``tracing()`` exit
        may both land here."""
        if self._flushed:
            return
        self._flushed = True
        if self.chrome_path is not None and self._events is not None:
            with self._lock:
                events = list(self._events)
            payload = {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"producer": "pygb", "pid": os.getpid()},
            }
            try:
                self.chrome_path.parent.mkdir(parents=True, exist_ok=True)
                self.chrome_path.write_text(json.dumps(payload))
            except OSError as exc:  # never let tracing take the workload down
                print(
                    f"pygb-trace: cannot write {self.chrome_path}: {exc}",
                    file=sys.stderr,
                )
        if self.persist:
            persist_stats(self.stats.snapshot(), self.stats_path)


class TracingEngine:
    """Engine wrapper recording one span per dispatch method call —
    same shape as ``dispatch.CountingEngine``, but feeding a tracer.
    Only used while tracing is active; bound wrappers are cached in the
    instance ``__dict__`` so ``__getattr__`` runs once per method."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = getattr(inner, "name", "?")
        self.supports_fusion = getattr(inner, "supports_fusion", False)

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr.startswith("_") or not callable(value):
            return value
        from ..backend.kernels import FUSED_KERNELS
        from ..core.dispatch import _DISPATCH_METHODS

        if attr not in _DISPATCH_METHODS:
            return value
        tracer = self._tracer
        engine_name = self.name
        fused = attr in FUSED_KERNELS

        def traced(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return value(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                nvals, nbytes = _payload(args)
                attrs = {
                    "engine": engine_name,
                    "fused": fused,
                    "nvals": nvals,
                    "bytes": nbytes,
                }
                sched = kwargs.get("sched")
                if sched is not None:
                    # schedule-layer annotation (PR 6): which traversal
                    # direction ran and what picked it
                    attrs["direction"] = sched.direction
                    attrs["frontier"] = sched.frontier
                    attrs["chosen_by"] = sched.chosen_by
                tracer.record(attr, "op", t0, dur, attrs)

        traced.__name__ = attr
        self.__dict__[attr] = traced
        return traced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracingEngine({self._inner!r})"
