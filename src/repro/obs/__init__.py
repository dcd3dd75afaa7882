"""``repro.obs`` — the op-level observability layer.

Zero-cost-when-off instrumentation threaded through dispatch, both JIT
engines, the C++ FFI boundary, and the JIT cache:

* ``PYGB_TRACE=chrome:<path>`` — export a Chrome ``trace_event`` JSON
  for the whole process (load in ``chrome://tracing`` / Perfetto);
* ``PYGB_TRACE=log`` — one line per op on stderr;
* ``PYGB_STATS=<path>|1`` — persist aggregated counters + latency
  histograms at exit for ``python -m repro stats``;
* ``pygb.tracing("chrome:/tmp/t.json")`` — the same, scoped to a
  ``with`` block.

Hot-path contract: instrumented call sites test the module-level
:data:`ACTIVE` bool and pay exactly one predicated branch per operation
while tracing is off (asserted by ``benchmarks/check_overhead.py``).
"""

from __future__ import annotations

import atexit
import os

from .. import config
from .stats import (
    StatsAggregator,
    default_stats_path,
    load_stats,
    merge_stats,
    persist_stats,
    quantile_ns,
    render_stats,
)
from .tracer import Tracer, TracingEngine

__all__ = [
    "ACTIVE",
    "Tracer",
    "TracingEngine",
    "StatsAggregator",
    "tracing",
    "active_tracer",
    "wrap_engine",
    "record_event",
    "record_span",
    "default_stats_path",
    "load_stats",
    "merge_stats",
    "persist_stats",
    "quantile_ns",
    "render_stats",
]

#: the one flag dispatch hot paths read.  False ⇒ no tracer exists and no
#: instrumentation code beyond the flag test runs.
ACTIVE = False

_TRACER: Tracer | None = None


def active_tracer() -> Tracer | None:
    return _TRACER


def wrap_engine(engine):
    """Tracing wrapper for *engine* (dispatch hook target; only called
    when :data:`ACTIVE` is True)."""
    tracer = _TRACER
    if tracer is None:  # racing a tracer teardown: fall through untraced
        return engine
    return tracer.wrap_engine(engine)


def record_event(name: str, cat: str, **attrs) -> None:
    """Instant event (cache hit/miss/compile/quarantine); caller guards
    with ``obs.ACTIVE``."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, cat, attrs)


def record_span(name: str, cat: str, t0_ns: int, dur_ns: int, **attrs) -> None:
    """Complete span with explicit start/duration (service batch spans
    and other non-engine work); caller guards with ``obs.ACTIVE``."""
    tracer = _TRACER
    if tracer is not None:
        tracer.record(name, cat, t0_ns, dur_ns, attrs)


def _install(tracer: Tracer | None) -> Tracer | None:
    """Swap the process tracer; returns the previous one."""
    global ACTIVE, _TRACER
    previous = _TRACER
    _TRACER = tracer
    ACTIVE = tracer is not None
    return previous


def _parse_trace_spec(spec: str) -> dict:
    """``chrome:<path>`` / ``log`` / comma-joined combinations → Tracer
    kwargs.  Unknown parts are ignored (a typo'd env var must not crash
    the workload at import)."""
    kwargs: dict = {}
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("chrome:"):
            kwargs["chrome_path"] = part[len("chrome:") :]
        elif part == "log":
            kwargs["log"] = True
        elif part == "stats":
            kwargs["persist"] = True
    return kwargs


class tracing:
    """``with pygb.tracing("chrome:/tmp/t.json"): ...`` — scoped tracing.

    Accepts the same spec strings as ``$PYGB_TRACE`` or explicit
    keywords::

        with gb.tracing(chrome="/tmp/t.json"):  ...
        with gb.tracing("log"):                 ...
        with gb.tracing(stats=True) as tr:      ...; tr.stats.snapshot()

    On exit the previous tracer (usually none) is restored and sinks are
    flushed.  ``stats=True`` persists aggregates to the default stats
    file; ``stats="<path>"`` to a specific one.
    """

    def __init__(
        self,
        spec: str | None = None,
        *,
        chrome: str | os.PathLike | None = None,
        log: bool = False,
        stats: bool | str | os.PathLike | None = None,
    ):
        kwargs = _parse_trace_spec(spec) if spec else {}
        if chrome is not None:
            kwargs["chrome_path"] = chrome
        if log:
            kwargs["log"] = True
        if stats:
            kwargs["persist"] = True
            if not isinstance(stats, bool):
                kwargs["stats_path"] = stats
        self._kwargs = kwargs
        self._tracer: Tracer | None = None
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._tracer = Tracer(**self._kwargs)
        self._previous = _install(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> bool:
        _install(self._previous)
        if self._tracer is not None:
            self._tracer.flush()
            self._tracer = None
        return False


def _init_from_env() -> None:
    """Install a process-wide tracer when ``$PYGB_TRACE``/``$PYGB_STATS``
    ask for one; flushed by atexit so the trace file and stats are
    written however the workload terminates normally."""
    cfg = config.current()
    kwargs = _parse_trace_spec(cfg.trace) if cfg.trace else {}
    if cfg.stats and cfg.stats.lower() not in ("0", "false", "off", "no"):
        kwargs["persist"] = True
        if cfg.stats.lower() not in ("1", "true", "yes", "on"):
            kwargs["stats_path"] = cfg.stats
    elif kwargs:
        # a traced run always persists its aggregates too, so
        # `python -m repro stats` works after a chrome/log session
        kwargs["persist"] = True
    if not kwargs:
        return
    tracer = Tracer(**kwargs)
    _install(tracer)
    atexit.register(tracer.flush)


_init_from_env()
