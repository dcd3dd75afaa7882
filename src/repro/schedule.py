"""The schedule layer: direction-optimizing traversal dispatch.

PyGB's paper-level design executes every ``mxv``/``vxm`` the same way
regardless of frontier density.  GraphIt separates *algorithm* from
*schedule* — traversal direction (push vs pull), frontier representation
(sparse index list vs dense bitmap), adaptive switching — and GraphBLAST
shows direction optimization is the single biggest lever in a
linear-algebra graph framework.  This module adds that dimension to the
execution stack without touching algorithm code:

``dense``
    The legacy strategy: gather over **every** row of the (effective)
    matrix, examining all ``nnz`` stored entries.  Optimal for dense
    operand vectors; the only strategy previous releases had.
``push``
    Frontier-driven scatter: walk only the adjacency rows of the stored
    entries of ``u``, examining ``Σ out-degree(frontier)`` edges.  Wins
    while the frontier is sparse (early BFS/SSSP iterations).
``pull``
    Mask-candidate-driven gather (Beamer's bottom-up step): compute the
    output only at positions the write mask can accept, examining
    ``Σ in-degree(candidates)`` edges — with a per-row **early exit**
    when the add monoid is ``LogicalOr`` (a row is done at its first
    true product).  Only valid when the operation is masked, because the
    unmasked region of ``t`` is never computed.

All three produce **bit-identical** results: per output position the
semiring products are combined in ascending inner-index order under
every strategy (CSR column indices are sorted; the push scatter expands
frontier rows in ascending order and coalesces with a stable sort; the
pull gather scans rows in storage order), so even non-commutative or
floating-point reductions agree exactly.  ``tests/test_schedule.py``
pins this cross-engine and cross-mode.

Selection is controlled by ``$PYGB_SCHEDULE``:

* ``auto`` (default) — the cheapest direction under the cost model
  below, a pure function of the operands;
* ``fixed`` — the legacy dense strategy everywhere (pre-schedule-layer
  behaviour, the ablation baseline);
* ``push`` / ``pull`` — force one direction (``pull`` degrades to
  ``dense`` for unmasked operations, where it is not defined).

A :class:`Scheduled` context manager overrides the environment for a
block, mirroring the operator-context idiom (``with Scheduled("pull")``).

The **cost model** charges each direction the stored entries it would
examine, plus the transpose it would have to build to run.  Push
scatters along one orientation of the matrix, dense and pull gather
along the other; the one that is not ``a`` itself is ``a.T``, memoised
on the store once built:

=========  ===================================  ===========================
direction  edges                                ``a.T`` needed, not at hand
=========  ===================================  ===========================
``dense``  ``nnz``                              ``+ nnz``: it would be built
                                                only to run this statement
``push``   ``Σ out-degree(frontier)``           frontier ≤ ¼ full: built to
                                                read the degrees (once per
                                                store); denser: not a
                                                candidate
``pull``   ``Σ in-degree(mask candidates)``;    built to read the degrees
           ``÷ 4 + |candidates|`` when the      (once per store; masked
           add monoid is ``LogicalOr``          statements only)
=========  ===================================  ===========================

Ties go to ``dense``, then ``push``, then ``pull``.  So a full frontier
is ``dense`` when its gather matrix is at hand and ``push`` when it is
not — PageRank's ``vxm`` on a freshly built matrix never transposes it.
No timing enters the choice: the same operands give the same direction
in every process.

Deterministic counters (:func:`stats`) track calls, examined edges per
direction, direction switches, and pull→dense fallbacks; the perf
trajectory gate (``benchmarks/collect_bench.py``) records them per
commit.
"""

from __future__ import annotations

import numpy as np

from . import obs
from .config import current as _config

__all__ = [
    "DIRECTIONS",
    "Schedule",
    "Scheduled",
    "schedule_mode",
    "note_edges",
    "reset_stats",
    "stats",
]

DIRECTIONS = ("dense", "push", "pull")

#: early-exit discount applied to the modeled pull cost when the add
#: monoid is LogicalOr (a candidate row stops at its first true product;
#: on BFS-like frontiers most candidates hit within a few neighbours)
_EARLY_EXIT_DISCOUNT = 4


def schedule_mode() -> str:
    """The ``$PYGB_SCHEDULE`` mode (``fixed`` | ``auto`` | ``push`` | ``pull``)."""
    return _config().schedule


# ----------------------------------------------------------------------
# deterministic counters
# ----------------------------------------------------------------------


class _ScheduleStats:
    """Process-wide deterministic schedule counters (no timing)."""

    __slots__ = ("calls", "edges", "switches", "fallbacks")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = {d: 0 for d in DIRECTIONS}
        self.edges = {d: 0 for d in DIRECTIONS}
        self.switches = 0
        self.fallbacks = 0


STATS = _ScheduleStats()

#: last direction chosen per call site, for switch detection — bounded
#: by the number of distinct (op, shape, nnz) sites in a process
_LAST_DIRECTION: dict = {}
_LAST_DIRECTION_CAP = 4096


def note_edges(direction: str, count: int) -> None:
    """Record *count* examined edges for *direction*.  Called by every
    engine's kernels (and generated modules) when a schedule is active."""
    STATS.edges[direction] += int(count)


def reset_stats() -> None:
    """Zero the counters and the switch tracker."""
    STATS.reset()
    _LAST_DIRECTION.clear()


def stats() -> dict:
    """Snapshot of the deterministic schedule counters."""
    return {
        "calls": dict(STATS.calls),
        "edges": dict(STATS.edges),
        "calls_total": sum(STATS.calls.values()),
        "edges_total": sum(STATS.edges.values()),
        "switches": STATS.switches,
        "fallbacks": STATS.fallbacks,
    }


# ----------------------------------------------------------------------
# the Schedule annotation
# ----------------------------------------------------------------------


class Schedule:
    """Per-operation schedule annotation, attached to the traversal-shaped
    expressions (``MXV``/``VXM``) and resolved against runtime densities
    just before dispatch.

    Two phases mirror expression lifetime: :meth:`capture` (expression
    construction) records the mode and any :class:`Scheduled` override;
    :meth:`resolve` (dispatch time, when operand stores and the write
    descriptor are in hand) fixes ``direction``, ``frontier`` and — for
    pull — the candidate row set.
    """

    __slots__ = (
        "mode",
        "forced",
        "direction",
        "frontier",
        "chosen_by",
        "candidates",
        "tiles",
        "workers",
    )

    def __init__(self, mode: str = "auto", forced: str | None = None):
        self.mode = mode
        self.forced = forced
        self.direction = None
        self.frontier = None
        self.chosen_by = None
        self.candidates = None
        # filled in by the PartitionedEngine when this dispatch fans out
        # over row tiles — surfaces in trace span attributes
        self.tiles = None
        self.workers = None

    @classmethod
    def capture(cls) -> "Schedule":
        """Snapshot the schedule controls at expression-construction
        time: an enclosing ``with Scheduled(...)`` wins over the
        environment mode."""
        ctx = _innermost_scheduled()
        return cls(_config().schedule, None if ctx is None else ctx.direction)

    # -- resolution ----------------------------------------------------

    def resolve(self, func: str, a, u, desc, ta: bool, add_op) -> "Schedule":
        """Fix the direction for one dispatch of *func* (``mxv`` or
        ``vxm``) given the operand stores and write descriptor.

        Feasibility: ``push`` always; ``pull`` only when ``desc.mask``
        is set (unmasked pull degrades to ``dense`` and counts as a
        fallback).  The effective matrix is ``A.T`` when *ta*; its
        gather form serves dense/pull, its transpose serves push — both
        memoized on the store, so repeated iterations pay the transpose
        build at most once.
        """
        mask = getattr(desc, "mask", None)
        mode = self.forced or self.mode
        pull_ok = mask is not None

        if mode == "fixed" or mode == "dense":
            direction, chosen_by = "dense", "mode"
        elif mode == "push":
            direction, chosen_by = "push", "mode"
        elif mode == "pull":
            if pull_ok:
                direction, chosen_by = "pull", "mode"
            else:
                direction, chosen_by = "dense", "fallback"
                STATS.fallbacks += 1
        else:  # auto
            direction, chosen_by = self._choose_auto(func, a, u, desc, ta, add_op)

        self.direction = direction
        if direction == "pull" and self.candidates is None:
            self.candidates = _pull_candidates(mask, desc)
        self.frontier = "bitmap" if direction == "pull" else "sparse"
        self.chosen_by = chosen_by

        STATS.calls[direction] += 1
        site = (func, a.nrows, a.ncols, int(a.indices.size), bool(ta))
        prev = _LAST_DIRECTION.get(site)
        if prev is not None and prev != direction:
            STATS.switches += 1
            if obs.ACTIVE:
                obs.record_event(
                    "schedule.switch",
                    "schedule",
                    op=func,
                    frm=prev,
                    to=direction,
                )
        if len(_LAST_DIRECTION) >= _LAST_DIRECTION_CAP:
            _LAST_DIRECTION.clear()
        _LAST_DIRECTION[site] = direction
        return self

    def _choose_auto(self, func, a, u, desc, ta, add_op):
        """The cheapest direction under the cost model (module
        docstring): examined edges plus the transpose a direction would
        have to build; ties go to the earlier of :data:`DIRECTIONS`."""
        nnz = int(a.indices.size)
        size = int(u.size)
        unnz = int(u.indices.size)
        mask = getattr(desc, "mask", None)
        # push scatters along `a` itself when scatter_ready, and then
        # dense and pull gather along `a.T`; otherwise the other way round
        scatter_ready = (func == "mxv") == bool(ta)
        transposed = a.transpose_memo() is not None

        # dense: scan every stored entry of the gather matrix, after
        # building it when it is `a.T` and not at hand
        candidates = [("dense", 2 * nnz if scatter_ready and not transposed else nnz)]

        # push: Σ out-degree(frontier) on the scatter matrix.  When the
        # frontier is dense the bound density * nnz already rules push
        # out without forcing a transpose build.
        if unnz == 0:
            candidates.append(("push", 0))
        elif scatter_ready or transposed or unnz * 4 <= size:
            s = a if scatter_ready else a.transposed()
            deg = s.row_lengths()[u.indices]
            candidates.append(("push", int(deg.sum())))

        # pull: Σ in-degree(candidates) on the gather matrix, discounted
        # when the LogicalOr early exit applies
        if mask is not None:
            cand = _pull_candidates(mask, desc)
            self.candidates = cand
            g = a.transposed() if scatter_ready else a
            pdeg = g.row_lengths()[cand]
            cost = int(pdeg.sum())
            if str(add_op) == "LogicalOr":
                cost = cost // _EARLY_EXIT_DISCOUNT + cand.size
            candidates.append(("pull", cost))

        # built in DIRECTIONS order, and min() keeps the first of a tie
        return min(candidates, key=lambda dc: dc[1])[0], "heuristic"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule(mode={self.mode}, direction={self.direction}, "
            f"frontier={self.frontier}, chosen_by={self.chosen_by})"
        )


def _pull_candidates(mask, desc) -> np.ndarray:
    """Row candidates the write mask can accept: the mask's true set, or
    its complement — as a sorted index array (derived from the cached
    dense-bitmap representation of the mask vector)."""
    if getattr(desc, "complement", False):
        return np.flatnonzero(~mask.true_bitmap()).astype(np.int64, copy=False)
    return mask.bool_indices().astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# the Scheduled context manager (DSL idiom, like Semiring/Replace)
# ----------------------------------------------------------------------


class Scheduled:
    """Force a traversal direction for a block::

        with Scheduled("pull"):
            frontier[~levels] = graph.T @ frontier

    Accepts ``auto``, ``fixed``/``dense``, ``push``, ``pull``; the
    innermost block wins over ``$PYGB_SCHEDULE`` (algorithms pass their
    ``schedule=`` argument through this)."""

    def __init__(self, direction: str):
        d = str(direction).strip().lower()
        if d == "fixed":
            d = "dense"
        if d not in ("auto", "dense", "push", "pull"):
            raise ValueError(
                f"bad schedule direction {direction!r}; "
                "valid: auto, fixed, dense, push, pull"
            )
        self.direction = d

    def __enter__(self):
        from .core import context

        context.push(self)
        return self

    def __exit__(self, *exc):
        from .core import context

        context.pop(self)
        return False

    def __repr__(self) -> str:
        return f"Scheduled({self.direction!r})"


_context = None


def _innermost_scheduled():
    global _context
    if _context is None:
        from .core import context as _context  # on first use: core imports this module
    return _context.innermost(Scheduled)
