"""Runtime guardrails: operation deadlines, cooperative cancellation,
and the degradation ladder.

PR 3 made *compilation* fault tolerant (fallback chain, quarantine,
compile timeouts); this module does the same for *execution*.  It is the
robustness substrate the serve-mode roadmap item sits on: a hung kernel,
a crashed tile worker, or a runaway nonblocking queue must degrade a
single operation, never wedge the process.

The engine stack becomes ``Tracing(Guard(Partitioned(Resilient(...))))``:

* :class:`GuardedEngine` wraps every dispatch method.  With no deadline
  scope active and no ``$PYGB_OP_TIMEOUT`` set, the wrapper is a single
  predicated branch (the same zero-cost-when-off contract as ``obs``,
  held to <=2% by ``benchmarks/check_guard_overhead.py``).
* ``with gb.deadline(seconds=...)`` establishes a per-scope budget
  (scopes nest; the effective deadline is the minimum).  A lazy watchdog
  thread arms one timer per guarded op; expiry flips the cooperative
  cancellation signals and the op raises a catchable
  :class:`~repro.exceptions.OperationTimeout` carrying op/engine/elapsed.
* Cancellation is **cooperative** at every layer: pyjit kernels call
  :func:`check_cancelled` on entry, the tile executor checks between
  tiles and bounds its future waits, and C++ kernels poll an atomic flag
  exported over the FFI boundary (``pygb_request_cancel`` /
  ``pygb_cancel_requested`` externs; the kernel returns the ``-2``
  sentinel instead of unwinding C++ exceptions across OpenMP regions or
  ``extern "C"`` frames, which would be undefined behaviour).
* The **degradation ladder** for the tiled plane: a tile worker that
  raises or hangs cancels the remaining futures, discards partials, and
  transparently re-executes the op monolithically; repeated failures
  quarantine tiling for that op signature through the
  ``jit/health.py`` circuit breaker (exponential backoff,
  doctor-visible).

Every guard intervention (timeout, cancel, degrade, quarantine) is a
deterministic counter in :func:`stats` and — when tracing is active — an
``obs`` instant event in the ``guard`` category, rolled up by
``python -m repro stats`` and ``python -m repro doctor``.
"""

from __future__ import annotations

import heapq
import threading
import time

from .config import Config, current as _config
from .exceptions import OperationCancelled, OperationTimeout

__all__ = [
    "deadline",
    "current_scope",
    "op_timeout",
    "worker_timeout",
    "check_cancelled",
    "cooperative_sleep",
    "bound_op",
    "current_op",
    "op_deadline_at",
    "GuardedEngine",
    "register_cancel_lib",
    "tiling_health",
    "tiling_quarantined",
    "note_tile_failure",
    "stats",
    "reset_stats",
    "DEFAULT_WORKER_TIMEOUT",
]

#: ceiling on how long the tile executor waits for a single worker before
#: declaring it hung (``$PYGB_WORKER_TIMEOUT`` overrides; falsey disables)
DEFAULT_WORKER_TIMEOUT = Config.worker_timeout

_TLS = threading.local()

#: number of currently armed guards, process-wide.  ``check_cancelled``
#: (called from every pyjit kernel and between tiles) returns on a single
#: global read when nothing is armed; only the guarded slow path touches
#: it, under the watchdog lock.
_ACTIVE = 0


# ----------------------------------------------------------------------
# configuration knobs
# ----------------------------------------------------------------------


def op_timeout() -> float | None:
    """The per-operation budget from ``$PYGB_OP_TIMEOUT`` in seconds, or
    ``None`` when unset/falsey."""
    return _config().op_timeout


def worker_timeout() -> float | None:
    """How long the tile executor waits on one worker future before
    treating it as hung (``$PYGB_WORKER_TIMEOUT``, default
    :data:`DEFAULT_WORKER_TIMEOUT`; ``0``/falsey disables the bound)."""
    return _config().worker_timeout


def fault_sleep_seconds() -> float:
    """Sleep injected by the ``slow_kernel`` fault (``$PYGB_FAULT_SLEEP``,
    default 0.05s — long enough to trip sub-50ms deadlines, short enough
    for chaos CI)."""
    return _config().fault_sleep


# ----------------------------------------------------------------------
# deadline scopes
# ----------------------------------------------------------------------


def _scope_stack() -> list:
    stack = getattr(_TLS, "scopes", None)
    if stack is None:
        stack = _TLS.scopes = []
    return stack


def current_scope():
    """The innermost active :class:`deadline` scope on this thread."""
    stack = getattr(_TLS, "scopes", None)
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
        self._entered = False

    def __enter__(self):
        stack = _scope_stack()
        parent = stack[-1] if stack else None
        if self.seconds is not None:
            self.deadline_at = time.monotonic() + self.seconds
        if parent is not None and parent.deadline_at is not None:
            if self.deadline_at is None or parent.deadline_at < self.deadline_at:
                self.deadline_at = parent.deadline_at
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
        _clear_cancel(self)
        return False

    def cancel(self) -> None:
        """Cancel the scope (thread-safe, idempotent).  The operation
        currently running under it observes the flag at its next
        checkpoint and raises ``OperationCancelled``; operations started
        afterwards fail fast at dispatch entry."""
        self.cancelled = True
        _assert_cancel(self)

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
    """One armed operation: what the watchdog times and what worker
    threads consult through :func:`check_cancelled`."""

    __slots__ = (
        "op", "engine", "scope", "event", "deadline_at", "from_scope",
        "budget", "t0", "done", "fired",
    )

    def __init__(self, op, engine, scope, deadline_at, from_scope, budget, t0):
        self.op = op
        self.engine = engine
        self.scope = scope
        self.event = threading.Event()
        self.deadline_at = deadline_at
        self.from_scope = from_scope
        self.budget = budget
        self.t0 = t0
        self.done = False
        self.fired = False


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
    """Deadline expiry: flip every cooperative cancellation signal the
    running op might be watching."""
    og.fired = True
    if og.from_scope and og.scope is not None:
        og.scope.expired = True
    og.event.set()
    _assert_cancel(og)


def current_op() -> _OpGuard | None:
    """The guard armed for the operation running on this thread."""
    return getattr(_TLS, "op_guard", None)


def op_deadline_at() -> float | None:
    """Monotonic deadline of the current guarded op (``None`` unguarded).
    The tile executor uses this to bound its future waits."""
    og = getattr(_TLS, "op_guard", None)
    return og.deadline_at if og is not None else None


class bound_op:
    """Propagate the dispatching thread's guard into a worker thread::

        og = guard.current_op()
        pool.submit(lambda: run_with(bound_op(og)))

    so checkpoints inside per-tile kernels observe the same deadline and
    cancellation state as the op that fanned them out."""

    def __init__(self, og: _OpGuard | None):
        self._og = og
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_TLS, "op_guard", None)
        _TLS.op_guard = self._og
        return self._og

    def __exit__(self, *exc):
        _TLS.op_guard = self._prev
        return False


def check_cancelled() -> None:
    """Cooperative checkpoint: raise ``OperationCancelled`` when the
    current op's scope was cancelled or its deadline has passed.  Called
    from generated pyjit kernels and between tiles; a single global read
    when no guard is armed anywhere in the process."""
    if not _ACTIVE:
        return
    og = getattr(_TLS, "op_guard", None)
    if og is None or og.done:
        return
    scope = og.scope
    if scope is not None and scope.cancelled:
        raise OperationCancelled(
            f"operation {og.op!r} cancelled",
            op=og.op, engine=og.engine, elapsed=time.monotonic() - og.t0,
        )
    if og.event.is_set() or (
        og.deadline_at is not None and time.monotonic() >= og.deadline_at
    ):
        # mark the expiry so the guard wrapper converts this to
        # OperationTimeout even if the watchdog has not fired yet
        og.fired = True
        if og.from_scope and scope is not None:
            scope.expired = True
        raise OperationCancelled(
            f"operation {og.op!r} cancelled (deadline reached)",
            op=og.op, engine=og.engine, elapsed=time.monotonic() - og.t0,
        )


def cooperative_sleep(seconds: float, extra_event: threading.Event | None = None) -> bool:
    """Sleep in small slices, honouring cancellation at each slice.
    Returns ``True`` after a full sleep, ``False`` when *extra_event* was
    set first; raises through :func:`check_cancelled` on cancellation.
    Fault hooks (``slow_kernel``, ``worker_hang``) stall through here so
    injected delays stay interruptible."""
    end = time.monotonic() + seconds
    while True:
        check_cancelled()
        if extra_event is not None and extra_event.is_set():
            return False
        remaining = end - time.monotonic()
        if remaining <= 0:
            return True
        time.sleep(min(0.01, remaining))


# ----------------------------------------------------------------------
# the C++ cancellation flag registry
# ----------------------------------------------------------------------

# ctypes loads each kernel .so RTLD_LOCAL, so every library carries its
# own `static std::atomic` flag; asserting a cancel means setting it on
# every loaded library.  Tokens (the scope or guard that asserted) are
# tracked so concurrent guards don't clobber each other's flag: the flag
# drops to 0 only when the last asserter clears.
_CANCEL_LOCK = threading.Lock()
_CANCEL_LIBS: list = []
_ASSERTED: set = set()


def register_cancel_lib(lib) -> None:
    """Register a loaded kernel library exporting ``pygb_request_cancel``
    (cppengine calls this at dlopen time) so watchdog fires reach it."""
    with _CANCEL_LOCK:
        if any(existing is lib for existing in _CANCEL_LIBS):
            return
        _CANCEL_LIBS.append(lib)
        try:
            lib.pygb_request_cancel(1 if _ASSERTED else 0)
        except Exception:
            pass


def _assert_cancel(token) -> None:
    with _CANCEL_LOCK:
        _ASSERTED.add(token)
        for lib in _CANCEL_LIBS:
            try:
                lib.pygb_request_cancel(1)
            except Exception:
                pass


def _clear_cancel(token) -> None:
    with _CANCEL_LOCK:
        _ASSERTED.discard(token)
        if _ASSERTED:
            return
        for lib in _CANCEL_LIBS:
            try:
                lib.pygb_request_cancel(0)
            except Exception:
                pass


# ----------------------------------------------------------------------
# deterministic guard counters
# ----------------------------------------------------------------------


class _GuardStats:
    __slots__ = ("timeouts", "cancels", "degrades", "quarantines")

    def __init__(self):
        self.reset()

    def reset(self):
        self.timeouts = {}
        self.cancels = {}
        self.degrades = {}
        self.quarantines = {}


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
    totals), mirroring ``tiling.stats()`` / ``schedule.stats()``."""
    with _STATS_LOCK:
        return {
            "timeouts": dict(_STATS.timeouts),
            "timeouts_total": sum(_STATS.timeouts.values()),
            "cancels": dict(_STATS.cancels),
            "cancels_total": sum(_STATS.cancels.values()),
            "degrades": dict(_STATS.degrades),
            "degrades_total": sum(_STATS.degrades.values()),
            "quarantines": dict(_STATS.quarantines),
            "quarantines_total": sum(_STATS.quarantines.values()),
        }


def reset_stats() -> None:
    """Zero the guard counters."""
    with _STATS_LOCK:
        _STATS.reset()


# ----------------------------------------------------------------------
# tiling quarantine: the degradation ladder's circuit breaker
# ----------------------------------------------------------------------

_TILING_HEALTH = None
_TILING_HEALTH_LOCK = threading.Lock()

_TILING_WARN = (
    "pygb: tiled execution of {key} failed ({error}); degraded to "
    "monolithic execution and quarantined with backoff "
    "(see `python -m repro doctor`)"
)


def tiling_health():
    """The circuit breaker quarantining tiled fan-out per op signature
    (lazy singleton; same exponential-backoff machinery as the JIT
    quarantine, keyed under the pseudo-engine name ``tiling``)."""
    global _TILING_HEALTH
    if _TILING_HEALTH is None:
        with _TILING_HEALTH_LOCK:
            if _TILING_HEALTH is None:
                from .jit.health import EngineHealth

                _TILING_HEALTH = EngineHealth(
                    warn_template=_TILING_WARN,
                    event_name="guard.quarantine",
                    event_cat="guard",
                )
    return _TILING_HEALTH


def tiling_quarantined(op: str) -> bool:
    """Whether tiled fan-out for *op* is currently circuit-broken (the
    partitioned executor then forwards the op monolithically without
    paying for another doomed fan-out)."""
    if _TILING_HEALTH is None:
        return False
    return _TILING_HEALTH.quarantined("tiling", op)


def note_tile_failure(op: str, error: BaseException) -> None:
    """A tiled fan-out failed and the op is being re-executed
    monolithically: count the degrade, trace it, and advance the
    quarantine circuit breaker."""
    _bump(_STATS.degrades, op)
    from . import obs

    if obs.ACTIVE:
        obs.record_event(
            "guard.degrade", "guard", op=op,
            error=str(error).splitlines()[0][:200] if str(error) else type(error).__name__,
        )
    newly = tiling_health().record_failure("tiling", op, error)
    if newly:
        _bump(_STATS.quarantines, op)


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


def _run_guarded(op, engine_name, scope, timeout, method, args, kwargs):
    now = time.monotonic()
    deadline_at = None
    from_scope = False
    budget = None
    if scope is not None:
        if scope.cancelled:
            _note_cancel(op, engine_name, 0.0)
            raise OperationCancelled(
                f"operation {op!r} cancelled before it started "
                "(enclosing deadline scope was cancelled)",
                op=op, engine=engine_name, elapsed=0.0,
            )
        if scope.deadline_at is not None:
            deadline_at = scope.deadline_at
            from_scope = True
            budget = scope.seconds
    if timeout is not None and (deadline_at is None or now + timeout < deadline_at):
        deadline_at = now + timeout
        from_scope = False
        budget = timeout
    if deadline_at is not None and now >= deadline_at:
        if from_scope:
            scope.expired = True
        _note_timeout(op, engine_name, 0.0, budget)
        raise OperationTimeout(
            f"operation {op!r} not started: deadline budget already exhausted",
            op=op, engine=engine_name, elapsed=0.0, budget=budget,
        )
    og = _OpGuard(op, engine_name, scope, deadline_at, from_scope, budget, now)
    _WATCHDOG.arm(og)
    binder = bound_op(og)
    try:
        binder.__enter__()
        try:
            result = method(*args, **kwargs)
        finally:
            binder.__exit__()
    except OperationCancelled as exc:
        elapsed = time.monotonic() - og.t0
        if og.fired or (scope is not None and scope.expired):
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
        _clear_cancel(og)
    elapsed = time.monotonic() - og.t0
    if og.fired or (deadline_at is not None and time.monotonic() >= deadline_at):
        # the kernel finished, but past its budget: the result is
        # discarded so deadline semantics stay deterministic for callers
        if from_scope:
            scope.expired = True
        _note_timeout(op, engine_name, elapsed, budget)
        raise OperationTimeout(
            f"operation {op!r} on engine {engine_name!r} finished after its "
            f"deadline budget of {budget}s (elapsed {elapsed:.3f}s); "
            "result discarded",
            op=op, engine=engine_name, elapsed=elapsed, budget=budget,
        )
    if scope is not None and scope.cancelled:
        _note_cancel(op, engine_name, elapsed)
        raise OperationCancelled(
            f"operation {op!r} cancelled",
            op=op, engine=engine_name, elapsed=elapsed,
        )
    return result


class GuardedEngine:
    """Deadline/cancellation wrapper around the partitioned engine stack.

    Dispatch methods are wrapped lazily (first use) and the wrapper is
    cached on the instance; each call looks at the thread's scope stack
    and the configuration snapshot, so guards engage mid-program.  With
    neither armed, the wrapper costs one thread-local read, one global
    read and the call it bound."""

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
            scopes = getattr(_TLS, "scopes", None)
            timeout = _config().op_timeout
            if not scopes and timeout is None:
                return __method(*args, **kwargs)
            return _run_guarded(
                __op, __inner.name, scopes[-1] if scopes else None, timeout,
                __method, args, kwargs,
            )

        guarded.__name__ = attr
        guarded.__qualname__ = f"GuardedEngine.{attr}"
        self.__dict__[attr] = guarded
        return guarded

    def __repr__(self) -> str:
        return f"GuardedEngine({self._inner!r})"
