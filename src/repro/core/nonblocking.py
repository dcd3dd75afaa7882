"""Nonblocking execution mode (GraphBLAS ``GrB_NONBLOCKING``).

In blocking mode every ``C[...] = expr`` statement dispatches kernels
before returning.  Under ``with gb.nonblocking():`` (or
``PYGB_MODE=nonblocking``) assignments *enqueue* instead: each statement
becomes an entry in a per-thread :class:`LazyQueue`, and nothing executes
until the queue flushes.  Flushes happen

* on **observation** — any read of a pending container's store (``nvals``,
  ``to_numpy``, ``to_coo``, ``get``, extraction, ``isequal``, use as a
  mask, export, …) goes through the ``Container._store`` property, which
  flushes first;
* on explicit :func:`wait`;
* on ``nonblocking()`` context exit;
* when the queue reaches :data:`QUEUE_MAX` entries.

What the queue buys over per-statement dispatch:

* **dead-store elimination** — a full overwrite whose value is never
  read is dropped entirely;
* **copy elision** — ``w[:] = u`` / ``C[None] = A`` with no mask or
  accumulator becomes a store aliasing at flush (backend stores are
  immutable-by-convention: kernels always return new stores), costing
  zero dispatches;
* **compile prefetch** — on the cpp engine, enqueueing starts background
  JIT compilation for the kernel specs the flush will need, so the
  compile latency overlaps with Python-side queue building.

Hazard rules (all verified by ``tests/test_nonblocking.py``):

* entries execute **in program order** at flush and operands are
  late-bound (a container's store is read when its reader replays), so
  RAW and WAR hazards resolve naturally: a statement that reads a
  pending temporary registers the read (``store_needed``), the producer
  runs at its own position, and an overwrite of the temporary enqueued
  after the reader lands after it;
* WAW: a full unmasked overwrite marks the previous full overwrite of
  the same container dead (unless a later statement reads its store);
* statements the queue cannot represent exactly (extractions with
  late-binding closures, expressions shared across statements, scalar
  observations) fall back to the blocking path, whose operand reads
  auto-flush — correctness never depends on a statement being deferrable.

Results are bit-identical to blocking mode: deferred entries replay the
same kernels with the same descriptors in the same order, minus the
work that blocking mode would have thrown away.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .. import obs
from ..backend.kernels import OpDesc
from ..config import current as _config
from ..testing.faults import FAULTS
from .context import current_raw_engine, use_engine
from .expressions import (
    Apply,
    EWiseAdd,
    EWiseMult,
    Expression,
    ExtractMat,
    Kronecker,
    MXM,
    MXV,
    ReduceRows,
    Select,
    TransposeExpr,
    VXM,
)

__all__ = ["nonblocking", "wait", "enabled", "flush", "stats", "reset_stats", "set_mode"]


#: expression types the queue can hold: every operand slot contains either
#: a DSL container (late-bound: its store is read at flush time, in
#: program order) or another deferrable expression.  ``ExtractVec`` is
#: excluded — it captures its source in a closure the queue cannot
#: introspect, so extraction statements take the auto-flushing blocking
#: path instead.
_DEFERRABLE = frozenset(
    {MXM, MXV, VXM, EWiseAdd, EWiseMult, Apply, ReduceRows, ExtractMat, Select,
     Kronecker, TransposeExpr}
)

#: queue length that triggers an automatic flush
QUEUE_MAX = 256

_COUNTER_KEYS = (
    "enqueued", "flushes", "dead_stores", "copy_elisions",
    "prefetch_submitted", "flush_errors",
)


class _Entry:
    """One deferred statement.

    kind:
      ``expr``  — full unmasked overwrite ``C[None] = expression``;
      ``copy``  — full unmasked overwrite by a plain container (elided to
                  a store aliasing at flush);
      ``thunk`` — anything opaque (masked / accumulated / sub-indexed
                  writes), replayed verbatim at flush with a frozen
                  descriptor.  A scalar written at a scalar index replays
                  as an append to the target's element buffer
                  (``Container._buffer_write``), not as a dispatch.
    """

    __slots__ = (
        "target", "kind", "expr", "desc", "thunk", "source", "engine",
        "store_needed", "dead", "read_refs", "seq",
    )

    def __init__(self, target, kind):
        self.target = target
        self.kind = kind
        self.expr = None
        self.desc = None
        self.thunk = None
        self.source = None
        self.engine = None
        self.store_needed = False  #: a later statement reads target's store
        self.dead = False       #: overwritten before any store read
        self.read_refs = []     #: the containers read (late-bound)
        self.seq = -1           #: queue position


class LazyQueue:
    """Per-thread deferred-statement queue."""

    __slots__ = ("entries", "expr_ids", "counters", "flushing", "max_len")

    def __init__(self, max_len: int):
        self.entries: list[_Entry] = []
        self.expr_ids: set[int] = set()  #: id() of every enqueued expression node
        self.counters = dict.fromkeys(_COUNTER_KEYS, 0)
        self.flushing = False
        self.max_len = max_len


class _State:
    __slots__ = ("depth", "default_on", "queue")

    def __init__(self):
        self.depth = 0
        self.default_on = _config().mode == "nonblocking"
        self.queue = LazyQueue(QUEUE_MAX)


_tls = threading.local()


def _st() -> _State:
    st = getattr(_tls, "st", None)
    if st is None:
        st = _State()
        _tls.st = st
    return st


def enabled() -> bool:
    """True when the current thread is in nonblocking mode (and not
    currently replaying a flush)."""
    st = _st()
    if st.depth == 0 and not st.default_on:
        return False
    return not st.queue.flushing


def set_mode(mode: str) -> None:
    """Set the thread's default execution mode (``blocking`` /
    ``nonblocking``); the CLI's ``--mode`` flag lands here.  Switching to
    blocking flushes any pending work first."""
    if mode not in ("blocking", "nonblocking"):
        raise ValueError(f"unknown execution mode {mode!r}")
    st = _st()
    if mode == "blocking" and (st.default_on or st.depth):
        flush("mode-switch")
    st.default_on = mode == "nonblocking"


class nonblocking:
    """``with gb.nonblocking(): ...`` — defer dispatch inside the block;
    the queue flushes on exit (and on any observation inside)."""

    def __enter__(self):
        _st().depth += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        st = _st()
        st.depth -= 1
        # flush even when unwinding an exception: the statements before
        # the raise were issued, and blocking mode would have run them
        flush("context-exit")
        return False


def wait() -> None:
    """Execute every pending operation (``GrB_wait`` for the thread)."""
    flush("wait")


# ----------------------------------------------------------------------
# enqueue: called from Container._set_masked / _assign when enabled()
# ----------------------------------------------------------------------

def enqueue_set(target, setkey, value, accum) -> bool:
    """Try to defer ``target[setkey] = value``; False ⇒ take the blocking
    path (whose operand reads auto-flush, keeping order correct)."""
    from . import operators
    from .base import Container
    from .expressions import TransposeView

    q = _st().queue
    if isinstance(value, TransposeView):
        value = TransposeExpr(value.parent)
    elif isinstance(value, Container):
        if (
            setkey.mask is None
            and accum is None
            and _enqueue_copy(q, target, value)
        ):
            return True
        value = Apply(value, operators.UnaryOp("Identity"))
    if not isinstance(value, Expression):
        from .base import _is_scalar

        if _is_scalar(value):
            # same routing blocking mode uses: a masked constant fill is a
            # full-extent assign
            return enqueue_assign(target, setkey, target._full_slice(), value, accum)
        return False  # invalid value: let the blocking path raise eagerly
    if not _deferrable(value, q, set()):
        return False
    if setkey.mask is None and accum is None:
        return _enqueue_expr(q, target, value, setkey)
    return _enqueue_thunk_set(q, target, value, setkey, accum)


def enqueue_assign(target, setkey, index_key, value, accum) -> bool:
    """Try to defer ``target[setkey][index_key] = value``."""
    from .base import Container, _is_scalar
    from .expressions import TransposeView

    q = _st().queue
    if (
        setkey.mask is None
        and accum is None
        and isinstance(value, Container)
        and _is_full_slice(index_key, target)
        and _enqueue_copy(q, target, value)
    ):
        return True

    entry = _Entry(target, "thunk")
    if isinstance(value, Expression):
        if value._materialized is None and not _deferrable(value, q, set()):
            return False
        _register_reads(value, q, entry, set())
    elif isinstance(value, TransposeView):
        _register_read(value.parent, entry)
    elif isinstance(value, Container):
        _register_read(value, entry)
    elif not _is_scalar(value):
        return False  # invalid value: let the blocking path raise eagerly
    frozen = setkey.frozen()
    index_key = _freeze_index(index_key)
    # bounds-check eagerly: blocking mode raises IndexOutOfBounds at the
    # statement, and a poisoned entry must never sit in the queue waiting
    # to detonate under an unrelated observation
    target._validate_index(index_key)
    _register_read(target, entry)  # read-modify-write
    if frozen.mask is not None:
        _register_read(frozen.mask, entry)
    entry.engine = current_raw_engine()
    entry.thunk = lambda: target._assign_exec(frozen, index_key, value, accum)
    _commit(q, target, entry, kill=False)
    return True


def _enqueue_copy(q, target, source) -> bool:
    """Full unmasked container copy → store aliasing at flush.  Only taken
    for equal dtypes: a cross-dtype copy must replay blocking mode's cast
    kernel to stay bit-identical, so it falls through to the identity-apply
    path (return False)."""
    from .base import Container

    if not isinstance(source, Container) or source.is_vector != target.is_vector:
        return False
    if not _same_extent(source, target):
        return False  # dimension mismatch: let the blocking path raise now
    if source._backing.dtype != target._backing.dtype:
        return False
    entry = _Entry(target, "copy")
    _register_read(source, entry)
    entry.source = source
    entry.engine = current_raw_engine()
    _commit(q, target, entry)
    q.counters["copy_elisions"] += 1
    return True


def _enqueue_expr(q, target, expr, setkey) -> bool:
    if expr._materialized is not None:
        # re-assigning an already-materialised expression: blocking mode
        # re-dispatches; keep dispatch parity by not short-circuiting
        return False
    entry = _Entry(target, "expr")
    _register_reads(expr, q, entry, set())
    entry.expr = expr
    entry.desc = OpDesc(replace=setkey.resolved_replace())
    entry.engine = current_raw_engine()
    _commit(q, target, entry)
    _maybe_prefetch(q, entry)
    return True


def _enqueue_thunk_set(q, target, expr, setkey, accum) -> bool:
    entry = _Entry(target, "thunk")
    _register_reads(expr, q, entry, set())
    frozen = setkey.frozen()
    _register_read(target, entry)  # masked/accumulated writes merge into target
    if frozen.mask is not None:
        _register_read(frozen.mask, entry)
    entry.engine = current_raw_engine()
    entry.thunk = lambda: target._set_masked_exec(frozen, expr, accum)
    _commit(q, target, entry, kill=False)
    return True


# ----------------------------------------------------------------------
# expression walking: validation, read registration
# ----------------------------------------------------------------------

def _deferrable(expr, q, seen) -> bool:
    """Pure check (no mutation): can the queue hold this expression?"""
    if expr._materialized is not None:
        # the program already observed this node: blocking mode dispatches
        # the rest of the tree against the cached value right away, so
        # deferring here would move dispatches out of the statement's
        # engine/tracing scope — keep parity by taking the eager path
        return False
    if type(expr) not in _DEFERRABLE:
        return False
    if id(expr) in q.expr_ids:
        return False  # same node already enqueued by an earlier statement
    if id(expr) in seen:
        return True  # diamond inside one statement: new() evaluates it once
    seen.add(id(expr))
    for slot in expr.operand_slots:
        child = getattr(expr, slot)
        if isinstance(child, Expression) and not _deferrable(child, q, seen):
            return False
    return True


def _register_reads(expr, q, entry, seen) -> None:
    """Register the late-bound container reads of *expr*'s tree.  Only
    called after :func:`_deferrable` passed, so it cannot fail midway."""
    if expr._materialized is not None or id(expr) in seen:
        return
    seen.add(id(expr))
    q.expr_ids.add(id(expr))
    for slot in expr.operand_slots:
        child = getattr(expr, slot)
        if isinstance(child, Expression):
            _register_reads(child, q, entry, seen)
        else:
            _register_read(child, entry)


def _register_read(container, entry) -> None:
    entry.read_refs.append(container)
    pending = container._nb_entry
    if pending is not None:
        pending.store_needed = True


def _commit(q, target, entry, kill: bool = True) -> None:
    entry.seq = len(q.entries)
    prev = target._nb_entry
    if prev is not None and kill and prev.kind in ("expr", "copy") and not prev.store_needed:
        # WAW: full overwrite of a value nobody read — drop the old write
        prev.dead = True
        q.counters["dead_stores"] += 1
    q.entries.append(entry)
    target._nb_entry = entry
    q.counters["enqueued"] += 1
    if obs.ACTIVE:
        obs.record_event(
            "nb.enqueue", "queue", kind=entry.kind, depth=len(q.entries)
        )
    if len(q.entries) >= q.max_len:
        flush("queue-cap")
    elif FAULTS.fire("queue_overflow"):
        # injected overflow: exercise the cap-flush path deterministically
        # without QUEUE_MAX statements
        flush("overflow")


def _is_full_slice(index_key, target) -> bool:
    full = slice(None)
    if target.is_vector:
        return index_key == full
    return (
        isinstance(index_key, tuple)
        and len(index_key) == 2
        and index_key[0] == full
        and index_key[1] == full
    )


def _same_extent(source, target) -> bool:
    a, b = source._backing, target._backing
    if target.is_vector:
        return a.size == b.size
    return a.shape == b.shape


def _freeze_index(index_key):
    """Snapshot mutable index containers so a caller mutating its index
    array after the statement cannot retroactively change it."""
    if isinstance(index_key, (list, np.ndarray)):
        return np.array(index_key)
    if isinstance(index_key, tuple):
        return tuple(_freeze_index(k) for k in index_key)
    return index_key


# ----------------------------------------------------------------------
# flush
# ----------------------------------------------------------------------

def flush(reason: str = "explicit") -> None:
    """Execute every pending entry in program order, skipping dead stores.

    Replay is failure-isolated: an entry that raises (a runtime kernel
    fault, a deadline expiry, ...) is counted in ``flush_errors`` and its
    target simply keeps its pre-statement value, but the remaining
    entries still replay in order — one poisoned statement must not drop
    or double-apply the stores queued after it.  The first exception is
    re-raised once the queue is fully drained, so nonblocking code sees
    the same error eager code would (just later, per the nonblocking
    contract)."""
    st = _st()
    q = st.queue
    if q.flushing or not q.entries:
        return
    t0 = time.perf_counter_ns()
    entries = q.entries
    q.flushing = True
    executed = 0
    errors = 0
    first_exc = None
    try:
        # detach first: store reads during replay must not re-enter
        for e in entries:
            if e.target._nb_entry is e:
                e.target._nb_entry = None
        q.entries = []
        q.expr_ids = set()
        for e in entries:
            if e.dead:
                continue
            executed += 1
            try:
                with use_engine(e.engine):
                    _execute(e)
            except Exception as exc:
                errors += 1
                q.counters["flush_errors"] += 1
                if first_exc is None:
                    first_exc = exc
        q.counters["flushes"] += 1
    finally:
        q.flushing = False
    if obs.ACTIVE:
        obs.record_span(
            "nb.flush",
            "queue",
            t0,
            time.perf_counter_ns() - t0,
            reason=reason,
            entries=len(entries),
            executed=executed,
            errors=errors,
        )
    if first_exc is not None:
        raise first_exc


def _execute(entry: _Entry) -> None:
    from .plan import evaluate

    if entry.kind == "copy":
        # store aliasing instead of an identity-apply dispatch: backend
        # stores are immutable-by-convention (kernels return new stores)
        store = entry.source._store
        target_dtype = entry.target._backing.dtype
        if store.dtype != target_dtype:
            store = store.astype(target_dtype)
        entry.target._rebind(store)
    elif entry.kind == "expr":
        evaluate(entry.expr, entry.target, entry.desc)
    else:
        entry.thunk()


# ----------------------------------------------------------------------
# background JIT prefetch (cpp engine)
# ----------------------------------------------------------------------

_prefetch_pool = None
_prefetch_seen: set[str] = set()
_prefetch_lock = threading.Lock()


def _maybe_prefetch(q, entry: _Entry) -> None:
    """Start compiling the kernel specs this entry will need, so the g++
    latency overlaps with queue building instead of stalling the flush."""
    engine = getattr(entry.engine, "primary", entry.engine)
    jobs_fn = getattr(engine, "prefetch_jobs", None)
    if jobs_fn is None:
        return
    try:
        jobs = [
            job
            for job in jobs_fn(entry.expr, entry.target._backing.dtype, entry.desc)
            if job[0].key not in _prefetch_seen
        ]
        if not jobs:
            return
        with _prefetch_lock:
            jobs = [j for j in jobs if j[0].key not in _prefetch_seen]
            _prefetch_seen.update(j[0].key for j in jobs)
        _submit_prefetch(engine, jobs)
        q.counters["prefetch_submitted"] += len(jobs)
    except Exception:  # best-effort: a prefetch failure must never surface
        pass


def _submit_prefetch(engine, jobs) -> None:
    global _prefetch_pool
    with _prefetch_lock:
        if _prefetch_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _prefetch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="pygb-prefetch"
            )
        pool = _prefetch_pool

    def _run():
        try:
            engine.cache.precompile(jobs, max_workers=1)
        except Exception:
            pass

    pool.submit(_run)


# ----------------------------------------------------------------------
# introspection (tests, `python -m repro stats`)
# ----------------------------------------------------------------------

def stats() -> dict:
    """This thread's cumulative queue counters."""
    return dict(_st().queue.counters)


def reset_stats() -> None:
    q = _st().queue
    for key in _COUNTER_KEYS:
        q.counters[key] = 0


def pending() -> int:
    """Number of enqueued-but-unflushed entries (diagnostics)."""
    return len(_st().queue.entries)
