"""The operator context stack (paper Sec. IV).

``with Semiring(PlusMonoid, "Times"): C = A @ B`` works by pushing the
semiring onto a stack; when an operation later needs an operator it walks
the stack from the innermost entry outward and takes the first object it
can use ("an operation will use the corresponding operator with the
highest precedence, i.e. lowest nested with block with a matching
operator").

The paper notes multi-threading would require one stack per thread; we
store the stack in ``threading.local`` so each thread transparently gets
its own, which is strictly more permissive than the paper's
single-threaded assumption and costs nothing.
"""

from __future__ import annotations

import threading

from .. import obs
from ..config import current as _config

__all__ = [
    "push",
    "pop",
    "stack_snapshot",
    "innermost",
    "Replace",
    "replace_active",
    "use_engine",
    "current_backend_engine",
    "current_raw_engine",
]

_state = threading.local()


def _stack() -> list:
    try:
        return _state.stack
    except AttributeError:
        _state.stack = []
        return _state.stack


def push(obj) -> None:
    """Push an operator (or flag) for the duration of a ``with`` block."""
    _stack().append(obj)


def pop(obj) -> None:
    """Pop *obj*; context managers unwind strictly LIFO, so *obj* must be
    on top (a mismatch indicates interleaved, non-nested ``with`` blocks)."""
    stack = _stack()
    if not stack or stack[-1] is not obj:
        raise RuntimeError(
            "operator context stack corrupted: __exit__ out of LIFO order"
        )
    stack.pop()


def stack_snapshot() -> tuple:
    """The current stack, innermost last (for diagnostics and tests)."""
    return tuple(_stack())


def innermost(kind):
    """Innermost stack entry that is an instance of *kind* (a class or a
    tuple of classes), or None; nothing is walked, or allocated, on the
    empty stack most statements see."""
    stack = getattr(_state, "stack", None)
    if stack:
        for obj in reversed(stack):
            if isinstance(obj, kind):
                return obj
    return None


class _ReplaceFlag:
    """The ``z`` (replace) output flag as a context manager.

    ``with gb.LogicalSemiring, gb.Replace:`` (paper Fig. 2b) clears masked
    output containers before assignment instead of merging.
    """

    def __enter__(self):
        push(self)
        return self

    def __exit__(self, *exc):
        pop(self)
        return False

    def __repr__(self) -> str:
        return "Replace"


Replace = _ReplaceFlag()


def replace_active() -> bool:
    """True when a ``with gb.Replace`` block encloses the call site."""
    return innermost(_ReplaceFlag) is not None


# ----------------------------------------------------------------------
# execution-engine selection (interpreted / Python JIT / C++ JIT)
# ----------------------------------------------------------------------

_engine_state = threading.local()


#: where an *environment-selected* engine degrades to when it cannot even
#: be constructed (e.g. ``PYGB_BACKEND=cpp`` on a machine with no
#: compiler).  An engine requested explicitly through :func:`use_engine`
#: never degrades — that is a configuration error and raises eagerly.
_ENGINE_DEGRADATION = {"cpp": "pyjit"}


def current_backend_engine():
    """The engine executing GraphBLAS operations for this thread.

    Resolved lazily from ``$PYGB_BACKEND`` (``interpreted``, ``pyjit`` —
    the default — or ``cpp``); override per-scope with :func:`use_engine`.
    When the env-selected engine is unavailable on this machine (no C++
    toolchain) the thread degrades to the next engine down with a warning
    instead of failing the first operation — unless ``PYGB_JIT_STRICT``
    is set.
    """
    engine = getattr(_engine_state, "engine", None)
    if engine is None:
        from ..exceptions import BackendUnavailable, JitFallbackWarning
        from ..jit.health import jit_strict
        from .dispatch import make_engine

        name = _config().backend
        try:
            engine = make_engine(name)
        except BackendUnavailable as exc:
            fallback = _ENGINE_DEGRADATION.get(name)
            if fallback is None or jit_strict():
                raise
            import warnings

            warnings.warn(
                f"pygb: $PYGB_BACKEND={name} is unavailable ({exc}); "
                f"using the {fallback} engine instead "
                "(set PYGB_JIT_STRICT=1 to raise)",
                JitFallbackWarning,
                stacklevel=2,
            )
            engine = make_engine(fallback)
        _engine_state.engine = engine
    # the observability hook: one predicated branch per operation when
    # tracing is off (the layer's zero-cost contract; see repro/obs)
    if obs.ACTIVE:
        return obs.wrap_engine(engine)
    return engine


def current_raw_engine():
    """The thread's engine *without* the observability wrapper.

    The nonblocking queue captures this per entry so deferred statements
    replay on the engine that was current when they were issued; the
    flush re-enters through :func:`current_backend_engine`, which applies
    the tracing wrapper exactly once."""
    engine = getattr(_engine_state, "engine", None)
    if engine is None:
        current_backend_engine()  # resolve (and possibly degrade) once
        engine = _engine_state.engine
    return engine


class use_engine:
    """Context manager (and direct setter) for the execution engine.

    ``use_engine("cpp")`` switches permanently; ``with use_engine("cpp"):``
    switches for a block.  Used by benchmarks to compare the paper's three
    execution versions.
    """

    def __init__(self, name_or_engine):
        from .dispatch import make_engine

        self._previous = getattr(_engine_state, "engine", None)
        if isinstance(name_or_engine, str):
            _engine_state.engine = make_engine(name_or_engine)
        else:
            _engine_state.engine = name_or_engine

    def __enter__(self):
        return _engine_state.engine

    def __exit__(self, *exc):
        _engine_state.engine = self._previous
        return False
