"""Tiled data-plane configuration, counters, and the worker pool.

This module is the control plane for row-block tiling (the storage side
lives in ``backend/tiled.py``, the executor in ``core.dispatch``'s
``PartitionedEngine``).  Mirroring ``schedule.py``, it exposes:

* two knobs read from the configuration snapshot — ``$PYGB_TILES``
  (``auto`` | ``1`` | ``<n>``) and ``$PYGB_WORKERS`` (worker-thread
  count, default the CPU count);
* a :class:`tiled` context manager whose innermost block overrides
  them (the DSL-level ``gb.tiled(...)``);
* deterministic process-wide counters (:func:`stats` /
  :func:`reset_stats`) that the benchmark harness and ``repro doctor``
  report — tiles created, partitioned/forwarded dispatches per op, tile
  tasks executed, merges per kind;
* a lazily built ``ThreadPoolExecutor`` shared by all partitioned
  dispatches.  Kernels are reentrant (they only read their operands and
  allocate fresh outputs), so plain threads suffice; tasks are submitted
  and collected in tile order to keep execution deterministic.

``auto`` mode only tiles when there is real parallelism to win:
multiple workers, at least :data:`AUTO_TILE_MIN_NNZ` stored values, and
at least two rows per worker.  Small graphs therefore stay monolithic
and the default configuration is machine-independent in CI.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from .backend.smatrix import SparseMatrix
from .backend.tiled import TiledMatrix
from .config import current as _config

__all__ = [
    "AUTO_TILE_MIN_NNZ",
    "tiled",
    "tiles_mode",
    "workers_count",
    "maybe_tile",
    "partition_for",
    "wants_partition",
    "exact_fold",
    "fold_scalars",
    "run_tile_tasks",
    "note_partition",
    "note_forward",
    "note_merge",
    "reset_stats",
    "stats",
]

#: auto mode leaves matrices below this nnz monolithic — per-tile Python
#: dispatch overhead swamps any bandwidth win on small operands
AUTO_TILE_MIN_NNZ = 65536


# ----------------------------------------------------------------------
# configuration: env vars + context-manager overrides
# ----------------------------------------------------------------------


class tiled:
    """Force a tiling configuration for a block::

        with gb.tiled(tiles=4, workers=2):
            w[mask] = graph @ frontier

    ``tiles`` accepts ``"auto"``, ``1`` (monolithic — the ablation
    setting), or an explicit tile count; ``workers`` caps the pool for
    dispatches inside the block.  ``None`` leaves the corresponding env
    var (``$PYGB_TILES`` / ``$PYGB_WORKERS``) in charge; the innermost
    block wins."""

    def __init__(self, tiles=None, workers=None):
        if tiles is not None and not (
            isinstance(tiles, str) and tiles.strip().lower() == "auto"
        ):
            tiles = int(tiles)
            if tiles < 1:
                raise ValueError(f"tiled(tiles={tiles}): tile count must be >= 1")
        elif isinstance(tiles, str):
            tiles = "auto"
        if workers is not None:
            workers = int(workers)
            if workers < 1:
                raise ValueError(f"tiled(workers={workers}): worker count must be >= 1")
        self.tiles = tiles
        self.workers = workers

    def __enter__(self):
        from .core import context

        context.push(self)
        return self

    def __exit__(self, *exc):
        from .core import context

        context.pop(self)
        return False

    def __repr__(self) -> str:
        return f"tiled(tiles={self.tiles!r}, workers={self.workers!r})"


_context = None


def _settings() -> tuple:
    """``(tiles mode, worker count)`` in force: the innermost
    ``gb.tiled(...)`` block's values — one context lookup serves both —
    over the configuration snapshot."""
    global _context
    if _context is None:
        from .core import context as _context  # on first use: core imports this module
    cfg = _config()
    ctx = _context.innermost(tiled)
    if ctx is None:
        return cfg.tiles, cfg.workers
    return (
        cfg.tiles if ctx.tiles is None else ctx.tiles,
        cfg.workers if ctx.workers is None else ctx.workers,
    )


def tiles_mode():
    """The active tile count: ``"auto"`` or an int ``>= 1``.  Innermost
    ``gb.tiled(...)`` block wins over ``$PYGB_TILES``."""
    return _settings()[0]


def workers_count() -> int:
    """The worker-pool size: innermost ``gb.tiled(workers=...)`` block,
    else ``$PYGB_WORKERS``, else the CPU count."""
    return _settings()[1]


# ----------------------------------------------------------------------
# deterministic counters
# ----------------------------------------------------------------------


class _TilingStats:
    """Process-wide deterministic tiling counters (no timing)."""

    __slots__ = ("tiles_created", "partitioned", "forwarded", "tile_tasks", "merges")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.tiles_created = 0
        self.partitioned = {}
        self.forwarded = {}
        self.tile_tasks = 0
        self.merges = {}


STATS = _TilingStats()

#: tile tasks increment ``STATS.tile_tasks`` from worker threads, so the
#: read-modify-write needs a lock to stay exact (all other counters are
#: dispatch-thread-only)
_TASK_COUNT_LOCK = threading.Lock()

#: stall injected by the ``worker_hang`` fault: far past any worker
#: timeout in use, so the hang is always detected rather than waited out
_HANG_SECONDS = 30.0


def note_partition(op: str, ntiles: int, workers: int) -> None:
    """Record one dispatch fanned out over *ntiles* row blocks."""
    STATS.partitioned[op] = STATS.partitioned.get(op, 0) + 1
    from . import obs

    if obs.ACTIVE:
        obs.record_event(
            "tiling.partition", "tiling", op=op, tiles=int(ntiles), workers=int(workers)
        )


def note_forward(op: str) -> None:
    """Record one dispatch on a tiled operand executed monolithically
    (pinned push/pull schedule, inexact reduction fold, hazard-bearing
    assign, or a partition below the threshold)."""
    STATS.forwarded[op] = STATS.forwarded.get(op, 0) + 1
    from . import obs

    if obs.ACTIVE:
        obs.record_event("tiling.forward", "tiling", op=op)


def note_merge(kind: str) -> None:
    """Record one partial-result merge (``concat`` or ``fold``)."""
    STATS.merges[kind] = STATS.merges.get(kind, 0) + 1


def reset_stats() -> None:
    """Zero the tiling counters."""
    STATS.reset()


def stats() -> dict:
    """Snapshot of the deterministic tiling counters."""
    return {
        "tiles_created": STATS.tiles_created,
        "partitioned": dict(STATS.partitioned),
        "partitioned_total": sum(STATS.partitioned.values()),
        "forwarded": dict(STATS.forwarded),
        "forwarded_total": sum(STATS.forwarded.values()),
        "tile_tasks": STATS.tile_tasks,
        "merges": dict(STATS.merges),
        "merges_total": sum(STATS.merges.values()),
    }


# ----------------------------------------------------------------------
# partition decisions
# ----------------------------------------------------------------------


def wants_partition(a: SparseMatrix) -> bool:
    """Cheap pre-check: could a dispatch on *a* possibly partition?

    Called before any transpose is materialised — ``nvals`` is invariant
    under transposition, so the expensive thresholds can be tested on the
    un-transposed operand; the row-count checks happen later in
    :func:`partition_for` on the effective matrix."""
    if isinstance(a, TiledMatrix):
        return a.ntiles > 1
    mode, n = _settings()
    if mode == "auto":
        return n > 1 and a.nvals >= AUTO_TILE_MIN_NNZ
    return mode > 1


def partition_for(g: SparseMatrix):
    """The :class:`TiledMatrix` partition driving one dispatch whose
    output rows follow *g*'s rows, or ``None`` to stay monolithic.

    Already-tiled operands reuse their stored splits; plain operands get
    a transient partition when the active configuration asks for one
    (this is how ``gb.tiled(...)`` applies to containers built outside
    the block)."""
    if isinstance(g, TiledMatrix):
        return g if g.ntiles > 1 else None
    mode, n = _settings()
    if mode == "auto":
        if n <= 1 or g.nvals < AUTO_TILE_MIN_NNZ or g.nrows < 2 * n:
            return None
    else:
        n = mode
        if n <= 1 or g.nrows < n:
            return None
    t = TiledMatrix.from_monolithic(g, n)
    if t.ntiles <= 1:
        return None
    STATS.tiles_created += t.ntiles
    return t


def maybe_tile(store):
    """Wrap a plain matrix store in a :class:`TiledMatrix` when the
    active configuration calls for it (no-op on vectors, on already
    tiled stores, and below the thresholds).  Containers route every
    newly adopted matrix store through here."""
    if type(store) is not SparseMatrix:
        return store
    mode, n = _settings()
    if mode == "auto":
        if n <= 1 or store.nvals < AUTO_TILE_MIN_NNZ or store.nrows < 2 * n:
            return store
    else:
        n = mode
        if n <= 1 or store.nrows < n:
            return store
    t = TiledMatrix.from_monolithic(store, n)
    if t.ntiles <= 1:
        return store
    STATS.tiles_created += t.ntiles
    return t


# ----------------------------------------------------------------------
# scalar-reduction merge semantics
# ----------------------------------------------------------------------

#: float folds that are exactly associative, so per-tile partials merge
#: bit-identically; float Plus/Times are NOT here because NumPy's pairwise
#: summation would be reassociated by the tile boundaries
_EXACT_FOLD_FLOAT_OPS = frozenset({"Min", "Max", "LogicalOr", "LogicalAnd", "LogicalXor"})


def exact_fold(op: str, dtype) -> bool:
    """Whether a per-tile reduction with monoid *op* on *dtype* folds to
    the bit-identical monolithic result (ints/bools always; floats only
    for the order-insensitive monoids)."""
    if np.dtype(dtype).kind in "biu":
        return True
    return str(op) in _EXACT_FOLD_FLOAT_OPS


def fold_scalars(op: str, parts, dtype):
    """Left-fold per-tile reduction partials with the monoid function and
    cast to the container dtype (matching the kernel's scalar contract)."""
    from .backend.ops_table import binary_def

    f = binary_def(op).func
    acc = parts[0]
    for p in parts[1:]:
        acc = f(acc, p)
    return np.dtype(dtype).type(acc)


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------

_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0


def _executor(n: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < n:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = ThreadPoolExecutor(max_workers=n, thread_name_prefix="pygb-tile")
        _POOL_SIZE = n
    return _POOL


def _discard_pool() -> None:
    """Abandon the shared executor (a worker is wedged in it).  The old
    pool's threads drain on their own — daemon-style shutdown without
    waiting — and the next partitioned dispatch builds a fresh pool, so
    one hung kernel never poisons later ops."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = None
    _POOL_SIZE = 0


def run_tile_tasks(tasks):
    """Execute the per-tile thunks and return their results in tile
    order.  With one effective worker this is a plain loop (no pool, no
    thread hop); otherwise tasks are submitted and gathered in order so
    the merge — and therefore the result — is deterministic regardless
    of completion order.

    Guardrails (``repro/guard.py``) thread through here:

    * each worker task runs under the dispatching op's guard, so
      deadline/cancellation checkpoints fire inside per-tile kernels;
    * the ``worker_crash``/``worker_hang`` faults inject at task entry;
    * gathering is bounded by the op deadline and ``$PYGB_WORKER_TIMEOUT``
      — a worker that never returns raises ``KernelExecutionError``
      (hang detected) instead of blocking forever;
    * on ANY failure — including ``KeyboardInterrupt`` mid-gather — the
      remaining futures are cancelled and signalled to abort, already
      running ones are drained briefly, and a pool with a still-wedged
      worker is discarded, so the next op starts from a consistent
      executor and the partial results are never observable.

    ``STATS.tile_tasks`` counts tasks actually *started*, so an aborted
    fan-out does not inflate the counter with never-run tiles.
    """
    from . import guard
    from .exceptions import KernelExecutionError
    from .testing.faults import FAULTS

    n = min(workers_count(), len(tasks))
    abort = threading.Event()
    og = guard.current_op()

    def run_task(t):
        with guard.bound_op(og):
            if abort.is_set():
                raise KernelExecutionError("tile task aborted (sibling failed)")
            guard.check_cancelled()
            if FAULTS.fire("worker_crash"):
                raise KernelExecutionError("injected tile-worker crash")
            if FAULTS.fire("worker_hang"):
                guard.cooperative_sleep(_HANG_SECONDS, extra_event=abort)
                raise KernelExecutionError("injected tile-worker hang")
            with _TASK_COUNT_LOCK:
                STATS.tile_tasks += 1
            return t()

    if n <= 1:
        return [run_task(t) for t in tasks]

    pool = _executor(n)
    futures = []
    try:
        futures = [pool.submit(run_task, t) for t in tasks]
        wt = guard.worker_timeout()
        results = []
        for f in futures:
            budget = None
            dl = guard.op_deadline_at()
            if dl is not None:
                budget = max(0.0, dl - time.monotonic()) + 0.25
            if wt is not None and (budget is None or wt < budget):
                budget = wt
            try:
                results.append(f.result(timeout=budget))
            except FuturesTimeoutError:
                raise KernelExecutionError(
                    f"tile worker did not finish within {budget:.1f}s "
                    "(hang detected); fan-out aborted"
                ) from None
        return results
    except BaseException:
        # cancel-and-drain: nothing from this fan-out may leak into the
        # pool or the next dispatch
        abort.set()
        for f in futures:
            f.cancel()
        if futures and wait(futures, timeout=1.0).not_done:
            _discard_pool()
        raise
