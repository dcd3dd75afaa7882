"""Execution-engine abstraction — the paper's Fig. 9 dispatch stage.

Every DSL operation funnels through an *engine* exposing one method per
GraphBLAS operation on backend containers.  Three engines implement the
interface:

``interpreted``
    Calls :mod:`repro.backend.kernels` directly, resolving operator names
    through the operator table on **every** call.  This is the "union
    type / generic interpreter" design the paper rejects in Sec. V, kept
    here as the ablation baseline.
``pyjit``  (default)
    The Fig. 9 pipeline with Python code generation: on first use of an
    ``(operation, dtypes, operators, flags)`` combination a specialised
    module is generated, written to the disk cache, and dynamically
    imported; later calls hit the in-memory module cache.
``cpp``
    Identical pipeline, but the generated module is a C++ translation
    unit compiled with ``g++`` against the bundled mini-GBTL header and
    loaded through ``ctypes`` — the paper's actual design.
"""

from __future__ import annotations

from .. import guard
from ..backend import kernels as K
from ..exceptions import BackendUnavailable, CompilationError, KernelExecutionError
from ..testing.faults import FAULTS

__all__ = [
    "InterpretedEngine",
    "CountingEngine",
    "ResilientEngine",
    "make_engine",
]


class InterpretedEngine:
    """Direct kernel calls with per-call operator resolution (no JIT)."""

    name = "interpreted"
    #: ``gb.reduce`` never folds its operand into the reduction on this
    #: engine — it is the unfused baseline the differential tests compare
    #: against
    supports_fusion = False

    # -- multiplication ------------------------------------------------
    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        return K.mxm(out, a, b, add, mult, desc, ta, tb)

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        return K.mxv(out, a, u, add, mult, desc, ta, sched)

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        return K.vxm(out, u, a, add, mult, desc, ta, sched)

    # -- elementwise ---------------------------------------------------
    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return K.ewise_add_mat(out, a, b, op, desc, ta, tb)

    def ewise_add_vec(self, out, u, v, op, desc):
        return K.ewise_add_vec(out, u, v, op, desc)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return K.ewise_mult_mat(out, a, b, op, desc, ta, tb)

    def ewise_mult_vec(self, out, u, v, op, desc):
        return K.ewise_mult_vec(out, u, v, op, desc)

    # -- apply / reduce / transpose -------------------------------------
    def apply_mat(self, out, a, op_spec, desc, ta=False):
        return K.apply_mat(out, a, op_spec, desc, ta)

    def apply_vec(self, out, u, op_spec, desc):
        return K.apply_vec(out, u, op_spec, desc)

    def reduce_mat_scalar(self, a, op, identity):
        return K.reduce_mat_scalar(a, op, identity)

    def reduce_vec_scalar(self, u, op, identity):
        return K.reduce_vec_scalar(u, op, identity)

    def reduce_rows(self, out, a, op, desc, ta=False):
        return K.reduce_rows(out, a, op, desc, ta)

    def transpose(self, out, a, desc):
        return K.transpose(out, a, desc)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        return K.select_mat(out, a, op, thunk, desc, ta)

    def select_vec(self, out, u, op, thunk, desc):
        return K.select_vec(out, u, op, thunk, desc)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        return K.kronecker(out, a, b, op, desc, ta, tb)

    # -- extract / assign ------------------------------------------------
    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        return K.extract_mat(out, a, rows, cols, desc, ta)

    def extract_vec(self, out, u, idx, desc):
        return K.extract_vec(out, u, idx, desc)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        return K.assign_mat(out, a, rows, cols, desc, ta)

    def assign_vec(self, out, u, idx, desc):
        return K.assign_vec(out, u, idx, desc)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        return K.assign_mat_scalar(out, value, rows, cols, desc)

    def assign_vec_scalar(self, out, value, idx, desc):
        return K.assign_vec_scalar(out, value, idx, desc)

    # -- the reduce-site fused pair ---------------------------------------
    # The two-step reference compositions: what the JIT engines' one-pass
    # kernels are checked against, and the last link of the fallback
    # chain.  ``functions.reduce`` itself skips this engine
    # (supports_fusion is False).
    def ewise_add_vec_reduce_scalar(self, u, v, op, rop, identity):
        return K.ewise_add_vec_reduce_scalar(u, v, op, rop, identity)

    def ewise_mult_vec_reduce_scalar(self, u, v, op, rop, identity):
        return K.ewise_mult_vec_reduce_scalar(u, v, op, rop, identity)

    # -- whole k-source traversals: one dispatch per served batch ---------
    def bfs_multi(self, graph, sources):
        return K.bfs_multi(graph, sources)

    def sssp_multi(self, graph, sources):
        return K.sssp_multi(graph, sources)


class CountingEngine:
    """Wraps any engine, counting calls per method name — the measurement
    device behind the dispatch-count tests and benchmarks."""

    def __init__(self, inner):
        self._inner = inner
        self.counts: dict = {}
        self.name = f"counting({inner.name})"
        self.supports_fusion = getattr(inner, "supports_fusion", False)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if not callable(value):
            return value
        counts = self.counts

        def counted(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return value(*args, **kwargs)

        return counted


#: the full engine interface (InterpretedEngine implements every method,
#: including the two fused reference kernels and the two traversal
#: loops) — only these are wrapped with
#: fallback logic; any other attribute forwards to the primary engine
_DISPATCH_METHODS = frozenset(
    name
    for name, value in vars(InterpretedEngine).items()
    if callable(value) and not name.startswith("_")
)


class ResilientEngine:
    """Fallback chain around the JIT engines: no compile/load failure may
    break a program the interpreter could run.

    Wraps an ordered engine chain (``cpp → pyjit → interpreted`` or
    ``pyjit → interpreted``).  A dispatch method that raises
    :class:`CompilationError` (including the quarantine fast-fail),
    :class:`BackendUnavailable`, or a runtime
    :class:`KernelExecutionError` on one engine is retried verbatim on
    the next; the per-spec circuit breaker lives below, in the engines'
    module-retrieval step, so retries after the first failure skip the
    doomed compile entirely.  With no fault rule armed a dispatch is the
    loop's first iteration: one attribute test and the primary engine's
    method.

    The ``kernel_fail`` and ``slow_kernel`` runtime faults hook in here,
    per engine attempt — inside the chain loop, so an injected crash on
    the primary engine exercises exactly the fallback path a real kernel
    crash would take.
    """

    def __init__(self, chain):
        self._chain = list(chain)
        self.primary = self._chain[0]
        self.name = self.primary.name

    @property
    def supports_fusion(self) -> bool:
        return getattr(self.primary, "supports_fusion", False)

    def __getattr__(self, attr):
        value = getattr(self.primary, attr)  # AttributeError propagates
        if attr not in _DISPATCH_METHODS or not callable(value):
            return value
        chain = self._chain

        def dispatch(*args, **kwargs):
            last_exc = None
            for engine in chain:
                # looked up per call: a monkeypatched engine method or a
                # probe in the chain is honoured at once
                method = getattr(engine, attr, None)
                if method is None:
                    continue
                if last_exc is not None:
                    cache = getattr(engine, "cache", None) or getattr(
                        chain[0], "cache", None
                    )
                    if cache is not None:
                        cache.note_fallback()
                try:
                    if FAULTS.armed:
                        if FAULTS.fire("kernel_fail"):
                            raise KernelExecutionError(
                                f"injected kernel failure in {engine.name}.{attr}"
                            )
                        if FAULTS.fire("slow_kernel"):
                            guard.cooperative_sleep(guard.fault_sleep_seconds())
                    return method(*args, **kwargs)
                except (CompilationError, BackendUnavailable, KernelExecutionError) as exc:
                    last_exc = exc
            raise last_exc

        dispatch.__name__ = attr
        self.__dict__[attr] = dispatch  # one closure per op, not per dispatch
        return dispatch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResilientEngine({' -> '.join(e.name for e in self._chain)})"


class PartitionedEngine:
    """Forwards every attribute to *inner*; ``make_engine`` never builds one."""

    # kept for bench_e2e/probe.py's traced stack until ROADMAP 3a deletes it
    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def make_engine(name: str):
    """Instantiate an engine by name (``interpreted``, ``pyjit``, ``cpp``).

    Every engine comes wrapped, outermost, in the runtime-guardrail layer
    (:class:`~repro.guard.GuardedEngine`, inert until a
    ``gb.deadline(...)`` scope arms it) — with tracing on, the full stack
    is ``Tracing(Guard(Resilient(jit)))``.  The wrapper stays outside the
    per-dispatch hot path the overhead guards measure.  The JIT engines
    additionally sit in the :class:`ResilientEngine` fallback chain, whose
    degradations warn with :class:`~repro.exceptions.JitFallbackWarning`
    (a warnings filter set to ``"error"`` makes them raise); ``cpp`` still
    raises :class:`BackendUnavailable` **eagerly** when no compiler
    exists — an explicitly requested engine that can never work is a
    configuration error, not a degradation case.
    """
    from ..guard import GuardedEngine

    if name == "interpreted":
        return GuardedEngine(InterpretedEngine())
    if name == "pyjit":
        from ..jit.pyengine import PyJitEngine

        return GuardedEngine(ResilientEngine([PyJitEngine(), InterpretedEngine()]))
    if name == "cpp":
        from ..jit.cppengine import CppJitEngine
        from ..jit.pyengine import PyJitEngine

        engine = CppJitEngine()
        return GuardedEngine(
            ResilientEngine([engine, PyJitEngine(engine.cache), InterpretedEngine()])
        )
    raise BackendUnavailable(
        f"unknown engine {name!r}; valid: interpreted, pyjit, cpp"
    )
