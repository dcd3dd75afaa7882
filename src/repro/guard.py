"""Runtime guardrails: operation deadlines and cooperative cancellation.

The JIT layer made *compilation* fault tolerant (fallback chain,
quarantine, compile timeouts); this module bounds *execution*.  It is
the robustness substrate the query server sits on: a hung kernel must
fail a single operation, never wedge the process.

The engine stack is ``Tracing(Guard(Resilient(...)))``:

* :class:`GuardedEngine` wraps every dispatch method.  With no deadline
  scope active the wrapper is a single predicated branch (the same
  zero-cost-when-off contract as ``obs``, held to <=2% by
  ``benchmarks/check_guard_overhead.py``).
* ``with gb.deadline(seconds=...)`` establishes a per-scope budget
  (scopes nest; the effective deadline is the minimum).  A lazy watchdog
  thread arms one timer per guarded op; expiry raises the op's thread's
  cancel cell and the op raises a catchable
  :class:`~repro.exceptions.OperationTimeout` carrying op/engine/elapsed.
* Cancellation is **cooperative** at every layer, through one signal
  per thread: each Python thread owns a cancel cell (an ``int64``) that
  is up exactly while an op on that thread is in flight whose guard
  fired or whose scope was cancelled.  pyjit kernels call
  :func:`check_cancelled` on entry, and every C++ kernel gets the cell's
  address as the first argument of ``pygb_run`` and polls it; a raised
  cell makes the kernel return the ``-2`` sentinel instead of unwinding
  C++ exceptions across OpenMP regions or ``extern "C"`` frames, which
  would be undefined behaviour.  A cell belongs to one thread, so no
  other thread's cancel can reach its kernels.

Every guard intervention (timeout, cancel) is a deterministic counter
in :func:`stats` and — when tracing is active — an ``obs`` instant
event in the ``guard`` category, rolled up by
``python -m repro stats`` and ``python -m repro doctor``.
"""

from __future__ import annotations

import ctypes
import heapq
import threading
import time

from .config import current as _config
from .exceptions import OperationCancelled, OperationTimeout

__all__ = [
    "deadline",
    "current_scope",
    "check_cancelled",
    "cooperative_sleep",
    "GuardedEngine",
    "guarded_call",
    "stats",
    "reset_stats",
]


class _ThreadState(threading.local):
    """Per-thread guard state.  The class-level defaults answer a thread
    that never opened a scope without a thread-local miss; ``__init__``
    runs once per thread and creates its cancel cell, whose address
    every C++ kernel call on that thread passes."""

    scopes = ()
    op_guard = None

    def __init__(self):
        self.cancel = ctypes.c_int64(0)
        self.cancel_addr = ctypes.addressof(self.cancel)


_TLS = _ThreadState()

#: number of currently armed guards, process-wide.  ``check_cancelled``
#: (called from every pyjit kernel) returns on a single
#: global read when nothing is armed; only the guarded slow path touches
#: it, under the watchdog lock.
_ACTIVE = 0


# ----------------------------------------------------------------------
# the chaos harness's one knob
# ----------------------------------------------------------------------


def fault_sleep_seconds() -> float:
    """Sleep injected by the ``slow_kernel`` fault (``$PYGB_FAULT_SLEEP``,
    default 0.05s — long enough to trip sub-50ms deadlines, short enough
    for chaos CI)."""
    return _config().fault_sleep


# ----------------------------------------------------------------------
# deadline scopes
# ----------------------------------------------------------------------


def _scope_stack() -> list:
    stack = _TLS.scopes
    if stack == ():  # the class default: the first push on this thread
        stack = _TLS.scopes = []
    return stack


def current_scope():
    """The innermost active :class:`deadline` scope on this thread."""
    stack = _TLS.scopes
    return stack[-1] if stack else None


class deadline:
    """Establish a wall-clock budget for every operation in a block::

        with gb.deadline(seconds=0.5) as dl:
            ranks = pagerank(graph)      # raises OperationTimeout if late

    Scopes nest; the effective deadline is the minimum of the block's own
    budget and any enclosing scope.  ``seconds=None`` creates a pure
    cancellation scope: no timer, but :meth:`cancel` (callable from any
    thread) makes the in-flight and all subsequent operations raise
    :class:`~repro.exceptions.OperationCancelled`.

    A scope that expires or is cancelled stays that way — later ops in
    the block fail fast instead of running on a blown budget — but the
    process remains fully functional once the block exits."""

    def __init__(self, seconds: float | None = None):
        if seconds is not None:
            seconds = float(seconds)
            if seconds <= 0:
                raise ValueError(f"deadline(seconds={seconds}): budget must be > 0")
        self.seconds = seconds
        self.deadline_at: float | None = None
        self.cancelled = False
        self.expired = False
        self.parent = None
        self._entered = False

    def __enter__(self):
        stack = _scope_stack()
        parent = stack[-1] if stack else None
        if self.seconds is not None:
            self.deadline_at = time.monotonic() + self.seconds
        if parent is not None and parent.deadline_at is not None:
            if self.deadline_at is None or parent.deadline_at < self.deadline_at:
                self.deadline_at = parent.deadline_at
        self.parent = parent
        stack.append(self)
        self._entered = True
        return self

    def __exit__(self, *exc):
        stack = _scope_stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # defensive: tolerate out-of-order exits
            try:
                stack.remove(self)
            except ValueError:
                pass
        return False

    def cancel(self) -> None:
        """Cancel the scope (thread-safe, idempotent).  The operation
        currently running under it sees its thread's cancel cell raised
        at its next checkpoint and raises ``OperationCancelled``;
        operations started afterwards fail fast at dispatch entry — also
        those under a nested scope."""
        self.cancelled = True
        _cancel_ops_under(self)

    def remaining(self) -> float | None:
        """Seconds left on the budget (``None`` for pure-cancel scopes)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("expired" if self.expired else "active")
        return f"deadline(seconds={self.seconds!r}, {state})"


# ----------------------------------------------------------------------
# per-op guards + the watchdog
# ----------------------------------------------------------------------


class _OpGuard:
    """One armed operation: what the watchdog times and what
    :func:`check_cancelled` consults.  ``cell`` is the cancel cell of the
    thread that started the op; ``raised`` whether this op raised it."""

    __slots__ = (
        "op", "engine", "scope", "cell", "deadline_at", "budget", "t0", "done", "fired",
        "raised",
    )

    def __init__(self, op, engine, scope, t0):
        self.op = op
        self.engine = engine
        self.scope = scope
        self.cell = _TLS.cancel
        self.deadline_at = scope.deadline_at
        self.budget = scope.seconds
        self.t0 = t0
        self.done = False
        self.fired = False
        self.raised = False


class _Watchdog:
    """Singleton timer thread.  Guards are pushed on a heap keyed by
    deadline; the (lazily started, daemon) thread sleeps until the
    earliest one and fires it.  Disarm is lazy — done guards are skipped
    when they surface at the top of the heap — so the per-op cost is one
    push and one notify."""

    def __init__(self):
        self._cond = threading.Condition()
        self._heap: list = []
        self._seq = 0
        self._thread: threading.Thread | None = None

    def arm(self, og: _OpGuard) -> None:
        global _ACTIVE
        with self._cond:
            _ACTIVE += 1
            if og.deadline_at is not None:
                self._seq += 1
                heapq.heappush(self._heap, (og.deadline_at, self._seq, og))
                if self._thread is None or not self._thread.is_alive():
                    self._thread = threading.Thread(
                        target=self._run, name="pygb-guard-watchdog", daemon=True
                    )
                    self._thread.start()
                self._cond.notify()

    def disarm(self, og: _OpGuard) -> None:
        global _ACTIVE
        og.done = True
        with self._cond:
            _ACTIVE -= 1
            self._cond.notify()

    def _run(self) -> None:
        while True:
            fire = None
            with self._cond:
                while True:
                    while self._heap and self._heap[0][2].done:
                        heapq.heappop(self._heap)
                    if not self._heap:
                        self._cond.wait()
                        continue
                    delay = self._heap[0][0] - time.monotonic()
                    if delay <= 0:
                        fire = heapq.heappop(self._heap)[2]
                        break
                    self._cond.wait(timeout=delay)
            if fire is not None and not fire.done:
                _fire(fire)


_WATCHDOG = _Watchdog()


def _fire(og: _OpGuard) -> None:
    """Deadline expiry: raise the cancel cell the running op watches."""
    og.fired = True
    og.scope.expired = True
    with _CANCEL_LOCK:
        _raise_cell(og)


def _cancelled(scope) -> bool:
    """Whether *scope* or a scope it is nested in was cancelled."""
    while scope is not None:
        if scope.cancelled:
            return True
        scope = scope.parent
    return False


def check_cancelled() -> None:
    """Cooperative checkpoint: raise ``OperationCancelled`` when the
    current op's scope was cancelled or its deadline has passed.  Called
    from generated pyjit kernels; a single global read
    when no guard is armed anywhere in the process."""
    if not _ACTIVE:
        return
    og = _TLS.op_guard
    if og is None or og.done:
        return
    scope = og.scope
    if _cancelled(scope):
        raise OperationCancelled(
            f"operation {og.op!r} cancelled",
            op=og.op, engine=og.engine, elapsed=time.monotonic() - og.t0,
        )
    if og.cell.value or (
        og.deadline_at is not None and time.monotonic() >= og.deadline_at
    ):
        # mark the expiry so the guard wrapper converts this to
        # OperationTimeout even if the watchdog has not fired yet
        og.fired = True
        scope.expired = True
        raise OperationCancelled(
            f"operation {og.op!r} cancelled (deadline reached)",
            op=og.op, engine=og.engine, elapsed=time.monotonic() - og.t0,
        )


def cooperative_sleep(seconds: float) -> None:
    """Sleep in small slices, honouring cancellation at each slice
    (raises through :func:`check_cancelled`).  The ``slow_kernel`` fault
    stalls through here so its injected delay stays interruptible."""
    end = time.monotonic() + seconds
    while True:
        check_cancelled()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(0.01, remaining))


# ----------------------------------------------------------------------
# the per-thread cancel cells
# ----------------------------------------------------------------------

# A cell counts the ops in flight on its thread that raised it, so with
# nested guarded ops it falls only when the op that raised it ends.  It
# is raised only for an op in flight, under this lock, and lowered when
# that op ends, under the same lock: a fire that arrives after the end
# finds ``og.done`` set and raises nothing.  A scope cancelled between
# ops raises nothing either — its later ops fail fast at entry.
_CANCEL_LOCK = threading.Lock()
_LIVE: set = set()  # guarded ops in flight, on every thread


def _raise_cell(og: _OpGuard) -> None:
    """Raise *og*'s thread's cell for it (caller holds ``_CANCEL_LOCK``)."""
    if og.done or og.raised:
        return
    og.raised = True
    og.cell.value += 1


def _cancel_ops_under(scope) -> None:
    """``deadline.cancel()``: raise the cells of the ops in flight under
    *scope* (directly or in a nested scope)."""
    with _CANCEL_LOCK:
        for og in list(_LIVE):
            s = og.scope
            while s is not None and s is not scope:
                s = s.parent
            if s is scope:
                _raise_cell(og)


def _op_started(og: _OpGuard) -> None:
    with _CANCEL_LOCK:
        _LIVE.add(og)
        if _cancelled(og.scope):
            # cancel() ran between the entry check and here
            _raise_cell(og)


def _op_ended(og: _OpGuard) -> None:
    with _CANCEL_LOCK:
        og.done = True
        _LIVE.discard(og)
        if og.raised:
            og.cell.value -= 1


# ----------------------------------------------------------------------
# deterministic guard counters
# ----------------------------------------------------------------------


class _GuardStats:
    __slots__ = ("timeouts", "cancels")

    def __init__(self):
        self.reset()

    def reset(self):
        self.timeouts = {}
        self.cancels = {}


_STATS = _GuardStats()
_STATS_LOCK = threading.Lock()


def _bump(table: dict, op: str) -> None:
    with _STATS_LOCK:
        table[op] = table.get(op, 0) + 1


def _note_timeout(op: str, engine: str, elapsed: float, budget) -> None:
    _bump(_STATS.timeouts, op)
    from . import obs

    if obs.ACTIVE:
        obs.record_event(
            "guard.timeout", "guard", op=op, engine=engine,
            elapsed=round(elapsed, 6), budget=budget,
        )


def _note_cancel(op: str, engine: str, elapsed: float) -> None:
    _bump(_STATS.cancels, op)
    from . import obs

    if obs.ACTIVE:
        obs.record_event(
            "guard.cancel", "guard", op=op, engine=engine, elapsed=round(elapsed, 6)
        )


def stats() -> dict:
    """Snapshot of the deterministic guard counters (per-op dicts plus
    totals), mirroring ``schedule.stats()``."""
    with _STATS_LOCK:
        return {
            "timeouts": dict(_STATS.timeouts),
            "timeouts_total": sum(_STATS.timeouts.values()),
            "cancels": dict(_STATS.cancels),
            "cancels_total": sum(_STATS.cancels.values()),
        }


def reset_stats() -> None:
    """Zero the guard counters."""
    with _STATS_LOCK:
        _STATS.reset()


# ----------------------------------------------------------------------
# the engine wrapper
# ----------------------------------------------------------------------

_METHODS = None


def _dispatch_methods():
    global _METHODS
    if _METHODS is None:
        from .core.dispatch import _DISPATCH_METHODS

        _METHODS = _DISPATCH_METHODS
    return _METHODS


def _run_guarded(op, engine_name, scope, method, args, kwargs):
    now = time.monotonic()
    if _cancelled(scope):
        _note_cancel(op, engine_name, 0.0)
        raise OperationCancelled(
            f"operation {op!r} cancelled before it started "
            "(enclosing deadline scope was cancelled)",
            op=op, engine=engine_name, elapsed=0.0,
        )
    og = _OpGuard(op, engine_name, scope, now)
    deadline_at, budget = og.deadline_at, og.budget
    if deadline_at is not None and now >= deadline_at:
        scope.expired = True
        _note_timeout(op, engine_name, 0.0, budget)
        raise OperationTimeout(
            f"operation {op!r} not started: deadline budget already exhausted",
            op=op, engine=engine_name, elapsed=0.0, budget=budget,
        )
    _WATCHDOG.arm(og)
    _op_started(og)
    prev = _TLS.op_guard
    try:
        _TLS.op_guard = og
        try:
            result = method(*args, **kwargs)
        finally:
            _TLS.op_guard = prev
    except OperationCancelled as exc:
        elapsed = time.monotonic() - og.t0
        if og.fired or scope.expired:
            _note_timeout(op, engine_name, elapsed, budget)
            raise OperationTimeout(
                f"operation {op!r} on engine {engine_name!r} exceeded its "
                f"deadline budget of {budget}s (elapsed {elapsed:.3f}s)",
                op=op, engine=engine_name, elapsed=elapsed, budget=budget,
            ) from exc
        _note_cancel(op, engine_name, elapsed)
        if exc.op is None:
            exc.op, exc.engine, exc.elapsed = op, engine_name, elapsed
        raise
    finally:
        _WATCHDOG.disarm(og)
        _op_ended(og)
    elapsed = time.monotonic() - og.t0
    if og.fired or (deadline_at is not None and time.monotonic() >= deadline_at):
        # the kernel finished, but past its budget: the result is
        # discarded so deadline semantics stay deterministic for callers
        scope.expired = True
        _note_timeout(op, engine_name, elapsed, budget)
        raise OperationTimeout(
            f"operation {op!r} on engine {engine_name!r} finished after its "
            f"deadline budget of {budget}s (elapsed {elapsed:.3f}s); "
            "result discarded",
            op=op, engine=engine_name, elapsed=elapsed, budget=budget,
        )
    if _cancelled(scope):
        _note_cancel(op, engine_name, elapsed)
        raise OperationCancelled(
            f"operation {op!r} cancelled",
            op=op, engine=engine_name, elapsed=elapsed,
        )
    return result


def guarded_call(op: str, engine: str, method, *args):
    """``method(*args)`` as one op *op* on *engine*, guarded as
    :class:`GuardedEngine` guards a dispatch method: by the thread's
    innermost deadline scope, when one is open.  The compiled whole
    algorithms (:mod:`repro.algorithms.compiled`) run through it."""
    scopes = _TLS.scopes
    if not scopes:
        return method(*args)
    return _run_guarded(op, engine, scopes[-1], method, args, {})


class GuardedEngine:
    """Deadline/cancellation wrapper around the engine stack.

    Dispatch methods are wrapped lazily (first use) and the wrapper is
    cached on the instance; each call looks at the thread's scope stack,
    so guards engage mid-program.  With no scope open, the wrapper costs
    one thread-local read and the call it bound."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def supports_fusion(self) -> bool:
        return getattr(self._inner, "supports_fusion", False)

    def __getattr__(self, attr):
        inner = object.__getattribute__(self, "_inner")
        value = getattr(inner, attr)
        if attr.startswith("_") or attr not in _dispatch_methods() or not callable(value):
            return value

        def guarded(*args, __method=value, __op=attr, __inner=inner, **kwargs):
            scopes = _TLS.scopes
            if not scopes:
                return __method(*args, **kwargs)
            return _run_guarded(__op, __inner.name, scopes[-1], __method, args, kwargs)

        guarded.__name__ = attr
        guarded.__qualname__ = f"GuardedEngine.{attr}"
        self.__dict__[attr] = guarded
        return guarded

    def __repr__(self) -> str:
        return f"GuardedEngine({self._inner!r})"
