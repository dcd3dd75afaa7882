"""Outside-in tracing for the per-layer run.

Nothing under ``src/`` is instrumented for this benchmark.  The traced
run installs, through the public ``gb.use_engine(obj)``, the very stack
``make_engine("cpp")`` builds, with a forwarding :class:`Probe` between
every pair of layers::

    Probe(GuardedEngine(Probe(PartitionedEngine(Probe(ResilientEngine(
        [Probe(CppJitEngine()), PyJitEngine, InterpretedEngine]))))))

Each probe records one span ``(layer, op, thread, start, end)`` around
every Engine-interface call.  The program's own spans (``module_lookup``,
``ffi_call`` with the C++ side's ``kernel_ns``, the ``TracingEngine``
op spans) come from the Chrome trace that ``gb.tracing(chrome=...)``
writes — same clock (``perf_counter_ns``), so both sets merge into one
tree: parent = the innermost span that contains a span's interval, on
its own thread first and on the dispatching thread for the root spans
of tile workers.

A layer's self time is its span minus the part its children cover.
Where children of one span overlap (tile workers running in parallel)
their subtrees are weighted by ``covered / summed`` so that attributed
self times always add up to the unit's wall clock.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: layer of the spans the worker itself records around each unit; its
#: self time is everything above the engine stack — the DSL frontend
UNIT = "core"

#: op family of an Engine-interface method, for the ``op.<family>_us`` means
FAMILIES = ("mxv", "vxm", "mxm", "ewise", "apply", "assign", "reduce")


def op_family(op: str) -> str | None:
    for family in FAMILIES:
        if op.startswith(family):
            return family
    return None


def engine_methods() -> frozenset:
    """The Engine interface: the public callables of the reference
    engine, derived the way ``core.dispatch`` derives its own table."""
    from repro.core.dispatch import InterpretedEngine

    return frozenset(
        name
        for name, value in vars(InterpretedEngine).items()
        if callable(value) and not name.startswith("_")
    )


class Probe:
    """Forwards everything to *inner*; times Engine-interface calls."""

    def __init__(self, layer: str, inner, spans: list, methods: frozenset):
        self._layer = layer
        self._inner = inner
        self._spans = spans
        self._methods = methods

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr not in self._methods or not callable(value):
            return value
        layer, spans = self._layer, self._spans
        clock, ident = time.perf_counter_ns, threading.get_ident

        def probed(*args, **kwargs):
            t0 = clock()
            try:
                return value(*args, **kwargs)
            finally:
                # list.append is atomic under the GIL: tile workers share it
                spans.append((layer, attr, ident(), t0, clock()))

        self.__dict__[attr] = probed
        return probed

    def __repr__(self) -> str:
        return f"Probe[{self._layer}]({self._inner!r})"


def probed_cpp_stack(spans: list, cache=None):
    """``make_engine("cpp")``'s stack with a probe under every layer.
    Returns ``(engine, cpp)`` — *cpp* is the bare ``CppJitEngine`` whose
    ``cache.stats`` the cache counters are read from."""
    from repro.core.dispatch import InterpretedEngine, PartitionedEngine, ResilientEngine
    from repro.guard import GuardedEngine
    from repro.jit.cppengine import CppJitEngine
    from repro.jit.pyengine import PyJitEngine

    methods = engine_methods()
    cpp = CppJitEngine(cache)
    chain = [Probe("jit", cpp, spans, methods), PyJitEngine(cpp.cache), InterpretedEngine()]
    resilient = Probe("resilient", ResilientEngine(chain), spans, methods)
    partitioned = Probe("partitioned", PartitionedEngine(resilient), spans, methods)
    return Probe("guard", GuardedEngine(partitioned), spans, methods), cpp


def probed_default_stack(spans: list):
    """The default (pyjit) stack under one probe — ``pyjit.engine_ms``."""
    from repro.core.dispatch import make_engine

    return Probe("pyjit", make_engine("pyjit"), spans, engine_methods())


# ----------------------------------------------------------------------
# span tree
# ----------------------------------------------------------------------


@dataclass
class Span:
    layer: str
    op: str
    tid: int
    t0: int
    t1: int
    kernel_ns: int = 0
    cat: str = "probe"
    children: list = field(default_factory=list)
    parent: "Span | None" = None

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


#: (category, name) of a program span -> layer it is charged to; program
#: spans not named here (e.g. ``nb.flush``) are frontend work
_PROGRAM_LAYERS = {("jit", "module_lookup"): "jit.lookup", ("ffi", "ffi_call"): "jit.ffi"}


def load_program_spans(chrome_path) -> list[Span]:
    """Complete spans of a ``gb.tracing(chrome=...)`` export."""
    with open(chrome_path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        cat, name = ev["cat"], ev["name"]
        layer = "obs" if cat == "op" else _PROGRAM_LAYERS.get((cat, name), UNIT)
        t0 = round(ev["ts"] * 1e3)
        kernel = ev.get("args", {}).get("kernel_ns") or 0
        spans.append(
            Span(layer, name, ev["tid"], t0, t0 + round(ev["dur"] * 1e3), max(int(kernel), 0), cat)
        )
    return spans


def from_probe(records) -> list[Span]:
    return [Span(layer, op, tid & 0xFFFFFFFF, t0, t1) for layer, op, tid, t0, t1 in records]


class NestingError(Exception):
    """A span partially overlaps its enclosing span, or lies outside
    every unit: the self-time split would not add up."""


def build_forest(spans: list[Span], units: list[Span]) -> list[Span]:
    """Attach every span to the innermost span containing it; returns
    *units* (the roots).  Spans that end before the first unit starts or
    start after the last one ends (warm-up, teardown) are dropped."""
    if not units:
        raise NestingError("no unit spans recorded")
    lo, hi = units[0].t0, units[-1].t1
    main = units[0].tid
    everything = units + [s for s in spans if s.t1 > lo and s.t0 < hi]
    # on equal start the longer span is the outer one
    everything.sort(key=lambda s: (s.t0, -s.t1))
    stacks: dict[int, list[Span]] = defaultdict(list)
    for s in everything:
        stack = stacks[s.tid]
        while stack and s.t0 >= stack[-1].t1:
            stack.pop()
        if stack:
            parent = stack[-1]
            if s.t1 > parent.t1 + 1000:  # 1 us: Chrome timestamps are rounded
                raise NestingError(
                    f"{s.layer}.{s.op} [{s.t0}, {s.t1}] partially overlaps "
                    f"{parent.layer}.{parent.op} [{parent.t0}, {parent.t1}]"
                )
        elif s.cat == "unit":
            parent = None
        else:
            # root span of a tile worker: its parent is whatever the
            # dispatching thread had open when the worker started
            outer = stacks[main]
            while outer and s.t0 >= outer[-1].t1:
                outer.pop()
            parent = next((p for p in reversed(outer) if p.t1 + 1000 >= s.t1), None)
            if parent is None:
                raise NestingError(f"{s.layer}.{s.op} [{s.t0}, {s.t1}] lies outside every unit")
        if parent is not None:
            s.parent = parent
            parent.children.append(s)
        stack.append(s)
    return units


def _covered(span: Span) -> tuple[int, int]:
    """(union, sum) of the children's intervals, clipped to *span*."""
    union = total = 0
    end = span.t0
    for c in sorted(span.children, key=lambda c: c.t0):
        a, b = max(c.t0, span.t0), min(c.t1, span.t1)
        if b <= a:
            continue
        total += b - a
        if b > end:
            union += b - max(a, end)
            end = b
    return union, total


def self_times(units: list[Span]) -> dict[str, float]:
    """Attributed self time in ns per layer, summed over *units*."""
    out: dict[str, float] = defaultdict(float)
    todo = [(u, 1.0) for u in units]
    while todo:
        span, weight = todo.pop()
        union, total = _covered(span)
        own = span.dur - union
        if span.layer == "jit.ffi":
            kernel = min(span.kernel_ns, own)
            out["jit.kernel"] += weight * kernel
            own -= kernel
        out[span.layer] += weight * own
        share = weight * union / total if total else weight
        todo.extend((c, share) for c in span.children)
    return dict(out)


def chrome_events(spans: list[Span], pid: int) -> list[dict]:
    """*spans* as Chrome ``trace_event`` complete events."""
    return [
        {
            "name": f"{s.layer}.{s.op}" if s.cat != "unit" else s.op,
            "cat": s.cat,
            "ph": "X",
            "ts": s.t0 / 1e3,
            "dur": s.dur / 1e3,
            "pid": pid,
            "tid": s.tid,
            "args": {"layer": s.layer},
        }
        for s in spans
    ]
