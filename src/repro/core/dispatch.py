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

from .. import guard, schedule, tiling
from ..backend import kernels as K
from ..backend import tiled as T
from ..backend.tiled import TiledMatrix
from ..exceptions import (
    BackendUnavailable,
    CompilationError,
    KernelExecutionError,
    OperationCancelled,
    OperationTimeout,
)
from ..testing.faults import FAULTS

__all__ = [
    "InterpretedEngine",
    "CountingEngine",
    "PartitionedEngine",
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
#: including the two fused reference kernels) — only these are wrapped with
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
    doomed compile entirely.  ``$PYGB_JIT_STRICT=1`` bypasses this
    wrapper (``make_engine`` returns the bare engine).  With no fault
    rule armed a dispatch is the loop's first iteration: one attribute
    test and the primary engine's method.

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


def _vec_mask_ok(desc, out) -> bool:
    """Mask either absent or conformant — nonconformant masks forward to
    the monolithic kernel so its canonical error surfaces."""
    m = desc.mask
    return m is None or getattr(m, "size", None) == out.size


def _mat_mask_ok(desc, out) -> bool:
    m = desc.mask
    return m is None or getattr(m, "shape", None) == out.shape


class PartitionedEngine:
    """Row-tile fan-out around any engine — the tiled data plane's
    executor (``make_engine`` wraps every engine it builds, so the full
    runtime stack is ``Tracing(Partitioned(Resilient(jit)))``).

    A dispatch whose output rows follow a matrix operand's rows is
    *partitionable*: each row block computes independently on a worker
    thread (the kernels are reentrant — they only read operands and
    allocate fresh outputs) and the per-block partials merge by
    row-disjoint concatenation.  ``finalize_vec``/``finalize_mat`` are
    positionwise, so slicing the output, the mask, and the descriptor to
    the block's row range commutes with finalize — the merged result is
    bit-identical to the monolithic call.  Scalar reductions merge by a
    monoid fold instead, and only when the fold is exactly associative
    for the dtype (ints/bools always; floats only for order-insensitive
    monoids) — otherwise the dispatch forwards monolithically.  Assigns
    carry read-after-write hazards across arbitrary target rows, so they
    always execute monolithically, in program order, on the dispatch
    thread (the "hazard-aware ordering" policy).  The streaming matrix
    maps (eWise, apply, select) forward too: they move each entry once,
    and stitching tiles would move them all again.

    Everything not explicitly partitioned here forwards untouched via
    ``__getattr__`` — including ``primary``/``cache``/``prefetch_jobs``,
    which the nonblocking queue and resilience layer reach through this
    wrapper.
    """

    def __init__(self, inner):
        self._inner = inner
        self.name = getattr(inner, "name", "?")

    @property
    def supports_fusion(self) -> bool:
        return getattr(self._inner, "supports_fusion", False)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionedEngine({self._inner!r})"

    # -- fan-out / merge internals --------------------------------------
    def _note_forward_if_tiled(self, op: str, a) -> None:
        if isinstance(a, TiledMatrix) and a.ntiles > 1:
            tiling.note_forward(op)

    def _fan_vec(self, op, part, out, desc, call, mono, sched=None, edges=None):
        """Fan a vector-output dispatch over *part*'s row blocks.

        Each task slices the output vector and the mask down to its row
        range, runs the per-tile kernel, and the partials concatenate
        with rebased indices.  When a (dense-direction) schedule rides
        along, the examined-edge counter is credited once, on the
        dispatch thread, with exactly the monolithic count, and the tile
        and worker choices are annotated on the schedule for the tracer.

        *mono* re-executes the dispatch monolithically with its original
        arguments: the degradation path when tiling is quarantined for
        this op or a tile worker crashes/hangs mid-fan-out.  Deadline
        expiry and cancellation re-raise instead — re-running a blown
        budget monolithically would only waste more of it.
        """
        if guard.tiling_quarantined(op):
            tiling.note_forward(op)
            return mono()
        splits = part.splits
        tiles = part.tiles()
        workers = min(tiling.workers_count(), len(tiles))
        tiling.note_partition(op, len(tiles), workers)

        def task(k, tile):
            r0, r1 = int(splits[k]), int(splits[k + 1])
            return call(tile, T.slice_vec_rows(out, r0, r1), T.slice_desc_rows(desc, r0, r1))

        try:
            parts = tiling.run_tile_tasks(
                [lambda k=k, tile=tile: task(k, tile) for k, tile in enumerate(tiles)]
            )
        except (OperationCancelled, OperationTimeout):
            raise
        except Exception as exc:
            guard.note_tile_failure(op, exc)
            return mono()
        tiling.note_merge("concat")
        w = T.concat_vec_parts(parts, out.size, splits)
        if sched is not None:
            schedule.note_edges("dense", edges)
            sched.tiles = len(tiles)
            sched.workers = workers
        return w

    def _fan_mat(self, op, part, out, desc, call, mono):
        """Fan a matrix-output dispatch over *part*'s row blocks and
        merge by CSR stacking; the merged store re-tiles under the
        active configuration so tiling persists across ops.  *mono* is
        the monolithic degradation path (see :meth:`_fan_vec`); its
        result re-tiles the same way the forwarded paths do."""
        if guard.tiling_quarantined(op):
            tiling.note_forward(op)
            return tiling.maybe_tile(mono())
        splits = part.splits
        tiles = part.tiles()
        workers = min(tiling.workers_count(), len(tiles))
        tiling.note_partition(op, len(tiles), workers)

        def task(k, tile):
            r0, r1 = int(splits[k]), int(splits[k + 1])
            return call(tile, T.row_block(out, r0, r1), T.slice_desc_rows(desc, r0, r1))

        try:
            parts = tiling.run_tile_tasks(
                [lambda k=k, tile=tile: task(k, tile) for k, tile in enumerate(tiles)]
            )
        except (OperationCancelled, OperationTimeout):
            raise
        except Exception as exc:
            guard.note_tile_failure(op, exc)
            return tiling.maybe_tile(mono())
        tiling.note_merge("concat")
        return tiling.maybe_tile(T.concat_mat_parts(parts, out.ncols))

    # -- matrix-vector multiplication -----------------------------------
    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        inner = self._inner
        if sched is not None and sched.direction in ("push", "pull"):
            # push/pull kernels walk frontier-driven row sets, not row
            # blocks — pinned directions stay monolithic (and skip any
            # transpose build the monolithic kernel would also skip)
            self._note_forward_if_tiled("mxv", a)
            return inner.mxv(out, a, u, add, mult, desc, ta, sched)
        if not tiling.wants_partition(a):
            return inner.mxv(out, a, u, add, mult, desc, ta, sched)
        g = a.transposed() if ta else a  # the gather matrix: output rows = g rows
        part = None
        if u.size == g.ncols and out.size == g.nrows and _vec_mask_ok(desc, out):
            part = tiling.partition_for(g)
        if part is None:
            self._note_forward_if_tiled("mxv", a)
            return inner.mxv(out, a, u, add, mult, desc, ta, sched)
        u.dense_lookup()  # warm the shared gather memo on the dispatch thread
        return self._fan_vec(
            "mxv", part, out, desc,
            lambda tile, w, d: inner.mxv(w, tile, u, add, mult, d, False, None),
            lambda: inner.mxv(out, a, u, add, mult, desc, ta, sched),
            sched=sched, edges=int(g.indices.size),
        )

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        inner = self._inner
        if sched is not None and sched.direction in ("push", "pull"):
            self._note_forward_if_tiled("vxm", a)
            return inner.vxm(out, u, a, add, mult, desc, ta, sched)
        if not tiling.wants_partition(a):
            return inner.vxm(out, u, a, add, mult, desc, ta, sched)
        g = a if ta else a.transposed()  # vxm gathers along the transpose
        part = None
        if u.size == g.ncols and out.size == g.nrows and _vec_mask_ok(desc, out):
            part = tiling.partition_for(g)
        if part is None:
            self._note_forward_if_tiled("vxm", a)
            return inner.vxm(out, u, a, add, mult, desc, ta, sched)
        u.dense_lookup()
        return self._fan_vec(
            "vxm", part, out, desc,
            # a row block of g is a column block of the vxm operand, so
            # the per-tile call flips to the ta=True orientation whose
            # gather matrix is the tile itself — no per-tile transposes
            lambda tile, w, d: inner.vxm(w, u, tile, add, mult, d, True, None),
            lambda: inner.vxm(out, u, a, add, mult, desc, ta, sched),
            sched=sched, edges=int(g.indices.size),
        )

    # -- matrix-matrix multiplication -----------------------------------
    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        inner = self._inner
        if not tiling.wants_partition(a):
            return tiling.maybe_tile(inner.mxm(out, a, b, add, mult, desc, ta, tb))
        g = a.transposed() if ta else a
        bshape = (b.ncols, b.nrows) if tb else b.shape
        part = None
        if (
            g.ncols == bshape[0]
            and out.shape == (g.nrows, bshape[1])
            and _mat_mask_ok(desc, out)
        ):
            part = tiling.partition_for(g)
        if part is None:
            self._note_forward_if_tiled("mxm", a)
            return tiling.maybe_tile(inner.mxm(out, a, b, add, mult, desc, ta, tb))
        if tb:
            b.transposed()  # materialise once before the fan-out
        return self._fan_mat(
            "mxm", part, out, desc,
            lambda tile, c, d: inner.mxm(c, tile, b, add, mult, d, False, tb),
            lambda: inner.mxm(out, a, b, add, mult, desc, ta, tb),
        )

    # -- streaming maps: monolithic, with re-tiled outputs ----------------
    # eWise, apply and select move each stored entry once; stitching row
    # tiles would move them all again, so a fan-out cannot win on any
    # core count.  The C++ kernels' in-kernel OpenMP loops are this
    # family's one parallel mechanism.
    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        self._note_forward_if_tiled("ewise_add_mat", a)
        return tiling.maybe_tile(self._inner.ewise_add_mat(out, a, b, op, desc, ta, tb))

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        self._note_forward_if_tiled("ewise_mult_mat", a)
        return tiling.maybe_tile(self._inner.ewise_mult_mat(out, a, b, op, desc, ta, tb))

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        self._note_forward_if_tiled("apply_mat", a)
        return tiling.maybe_tile(self._inner.apply_mat(out, a, op_spec, desc, ta))

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        self._note_forward_if_tiled("select_mat", a)
        return tiling.maybe_tile(self._inner.select_mat(out, a, op, thunk, desc, ta))

    # -- reductions -------------------------------------------------------
    def reduce_rows(self, out, a, op, desc, ta=False):
        inner = self._inner
        if not tiling.wants_partition(a):
            return inner.reduce_rows(out, a, op, desc, ta)
        g = a.transposed() if ta else a
        part = None
        if out.size == g.nrows and _vec_mask_ok(desc, out):
            part = tiling.partition_for(g)
        if part is None:
            self._note_forward_if_tiled("reduce_rows", a)
            return inner.reduce_rows(out, a, op, desc, ta)
        return self._fan_vec(
            "reduce_rows", part, out, desc,
            lambda tile, w, d: inner.reduce_rows(w, tile, op, d, False),
            lambda: inner.reduce_rows(out, a, op, desc, ta),
        )

    def reduce_mat_scalar(self, a, op, identity):
        inner = self._inner
        if not tiling.wants_partition(a):
            return inner.reduce_mat_scalar(a, op, identity)
        if not tiling.exact_fold(op, a.dtype):
            # float Plus/Times would be reassociated by the tile
            # boundaries (NumPy reduces pairwise) — forward for
            # bit-identity with the monolithic path
            self._note_forward_if_tiled("reduce_mat_scalar", a)
            return inner.reduce_mat_scalar(a, op, identity)
        part = tiling.partition_for(a)
        if part is None:
            self._note_forward_if_tiled("reduce_mat_scalar", a)
            return inner.reduce_mat_scalar(a, op, identity)
        if guard.tiling_quarantined("reduce_mat_scalar"):
            tiling.note_forward("reduce_mat_scalar")
            return inner.reduce_mat_scalar(a, op, identity)
        live = [t for t in part.tiles() if t.nvals]
        if not live:
            return inner.reduce_mat_scalar(a, op, identity)
        workers = min(tiling.workers_count(), len(live))
        tiling.note_partition("reduce_mat_scalar", part.ntiles, workers)
        try:
            partials = tiling.run_tile_tasks(
                [lambda t=t: inner.reduce_mat_scalar(t, op, identity) for t in live]
            )
        except (OperationCancelled, OperationTimeout):
            raise
        except Exception as exc:
            guard.note_tile_failure("reduce_mat_scalar", exc)
            return inner.reduce_mat_scalar(a, op, identity)
        tiling.note_merge("fold")
        return tiling.fold_scalars(op, partials, a.dtype)

    # -- structure-changing ops: monolithic, with re-tiled outputs -------
    def transpose(self, out, a, desc):
        return tiling.maybe_tile(self._inner.transpose(out, a, desc))

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        return tiling.maybe_tile(self._inner.kronecker(out, a, b, op, desc, ta, tb))

    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        return tiling.maybe_tile(self._inner.extract_mat(out, a, rows, cols, desc, ta))

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        # assigns scatter into arbitrary target rows — cross-block
        # read-after-write hazards — so they run monolithically, in
        # program order, on the dispatch thread
        self._note_forward_if_tiled("assign_mat", out)
        return tiling.maybe_tile(self._inner.assign_mat(out, a, rows, cols, desc, ta))

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        self._note_forward_if_tiled("assign_mat_scalar", out)
        return tiling.maybe_tile(
            self._inner.assign_mat_scalar(out, value, rows, cols, desc)
        )


def make_engine(name: str):
    """Instantiate an engine by name (``interpreted``, ``pyjit``, ``cpp``).

    Every engine comes wrapped in the :class:`PartitionedEngine` tiled
    data plane (inert until ``$PYGB_TILES``/``gb.tiled`` ask for tiles)
    and, outermost, the runtime-guardrail layer
    (:class:`~repro.guard.GuardedEngine`, inert until a
    ``gb.deadline(...)`` scope or ``$PYGB_OP_TIMEOUT`` arms it) — with
    tracing on, the full stack is
    ``Tracing(Guard(Partitioned(Resilient(jit))))``.  Both wrappers stay
    outside the per-dispatch hot path the overhead guards measure.
    The JIT engines additionally sit in the :class:`ResilientEngine`
    fallback chain unless ``$PYGB_JIT_STRICT`` is set; ``cpp`` still raises
    :class:`BackendUnavailable` **eagerly** when no compiler exists —
    an explicitly requested engine that can never work is a configuration
    error, not a degradation case.
    """
    from ..guard import GuardedEngine
    from ..jit.health import jit_strict

    if name == "interpreted":
        return GuardedEngine(PartitionedEngine(InterpretedEngine()))
    if name == "pyjit":
        from ..jit.pyengine import PyJitEngine

        engine = PyJitEngine()
        if jit_strict():
            return GuardedEngine(PartitionedEngine(engine))
        return GuardedEngine(
            PartitionedEngine(ResilientEngine([engine, InterpretedEngine()]))
        )
    if name == "cpp":
        from ..jit.cppengine import CppJitEngine
        from ..jit.pyengine import PyJitEngine

        engine = CppJitEngine()
        if jit_strict():
            return GuardedEngine(PartitionedEngine(engine))
        return GuardedEngine(
            PartitionedEngine(
                ResilientEngine([engine, PyJitEngine(engine.cache), InterpretedEngine()])
            )
        )
    raise BackendUnavailable(
        f"unknown engine {name!r}; valid: interpreted, pyjit, cpp"
    )
