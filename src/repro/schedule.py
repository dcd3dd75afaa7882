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

* ``auto`` (default) — per-operation cost model over deterministic
  density counters, refined by the online autotuner below;
* ``fixed`` — the legacy dense strategy everywhere (pre-schedule-layer
  behaviour, the ablation baseline);
* ``push`` / ``pull`` — force one direction (``pull`` degrades to
  ``dense`` for unmasked operations, where it is not defined).

A :class:`Scheduled` context manager overrides the environment for a
block, mirroring the operator-context idiom (``with Scheduled("pull")``).

The **online autotuner** (``auto`` mode) reuses the observability
layer's log2 latency histograms (``repro/obs/stats.py``): per call site
and frontier-density bucket it first *explores* — runs each cost-viable
direction a couple of times — then *exploits* the direction with the
lowest median observed latency.  The cost model bounds its freedom: only
directions within ``_TUNER_BAND``× of the modeled optimum are ever
tried, so a mistimed sample cannot pick a catastrophic schedule.
``PYGB_SCHEDULE_TUNER=0`` disables the timing feedback, leaving the pure
(deterministic) cost model — the benchmarks gate on that configuration.

Deterministic counters (:func:`stats`) track calls, examined edges per
direction, direction switches, and pull→dense fallbacks; the perf
trajectory gate (``benchmarks/collect_bench.py``) records them per
commit.
"""

from __future__ import annotations

import numpy as np

from . import obs
from .config import current as _config
from .obs.stats import HIST_BUCKETS, quantile_ns

__all__ = [
    "DIRECTIONS",
    "Schedule",
    "Scheduled",
    "AutoTuner",
    "schedule_mode",
    "tuner_enabled",
    "note_edges",
    "reset_stats",
    "stats",
]

DIRECTIONS = ("dense", "push", "pull")

#: early-exit discount applied to the modeled pull cost when the add
#: monoid is LogicalOr (a candidate row stops at its first true product;
#: on BFS-like frontiers most candidates hit within a few neighbours)
_EARLY_EXIT_DISCOUNT = 4

#: the autotuner may only choose among directions whose modeled cost is
#: within this factor of the cheapest — the cost model stays in charge
#: of the asymptotics, timing only breaks near-ties
_TUNER_BAND = 4.0

#: samples per (site, density-bucket, direction) before the tuner trusts
#: its latency data ("first iterations explore, rest exploit")
_TUNER_EXPLORE = 2


def schedule_mode() -> str:
    """The ``$PYGB_SCHEDULE`` mode (``fixed`` | ``auto`` | ``push`` |
    ``pull``)."""
    return _config().schedule


def tuner_enabled() -> bool:
    """``$PYGB_SCHEDULE_TUNER`` gate for the latency-feedback stage
    (``0/false/off/no`` leaves the deterministic cost model in charge)."""
    return _config().schedule_tuner


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
#: the same bound for the autotuner's (site, bucket, direction) table
_TUNER_HISTS_CAP = 4096


def note_edges(direction: str, count: int) -> None:
    """Record *count* examined edges for *direction*.  Called by every
    engine's kernels (and generated modules) when a schedule is active."""
    STATS.edges[direction] += int(count)


def reset_stats() -> None:
    """Zero the counters, the switch tracker, and the autotuner."""
    STATS.reset()
    _LAST_DIRECTION.clear()
    _TUNER.reset()


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
# the online autotuner
# ----------------------------------------------------------------------


def _log2_bucket(n: int) -> int:
    """Coarse density bucket: the bit length of *n* (0 for empty)."""
    return int(n).bit_length()


class AutoTuner:
    """Explore-then-exploit direction choice from observed latencies.

    Observations are stored as the same 64-bucket log2 latency
    histograms the obs layer aggregates (``repro/obs/stats.py``), keyed
    by ``(site, density bucket, direction)``; the exploit phase compares
    histogram medians (:func:`repro.obs.stats.quantile_ns`).  Sample
    count and median change only in :meth:`note`, so they are kept
    beside the histogram and :meth:`choose` is dictionary reads.
    """

    def __init__(self):
        #: key -> [histogram, samples, median_ns]
        self._hists: dict = {}

    def reset(self) -> None:
        self._hists.clear()

    def observations(self, site, bucket, direction) -> int:
        entry = self._hists.get((site, bucket, direction))
        return entry[1] if entry else 0

    def note(self, site, bucket, direction: str, dur_ns: int) -> None:
        key = (site, bucket, direction)
        entry = self._hists.get(key)
        if entry is None:
            # the site holds nnz: a long-lived process would otherwise
            # keep one entry set per graph it ever traversed
            if len(self._hists) >= _TUNER_HISTS_CAP:
                self._hists.clear()
            entry = self._hists[key] = [[0] * HIST_BUCKETS, 0, 0]
        hist = entry[0]
        hist[min(max(int(dur_ns), 0).bit_length(), HIST_BUCKETS - 1)] += 1
        entry[1] += 1
        entry[2] = quantile_ns(hist, 0.5)

    def choose(self, site, bucket, candidates) -> tuple[str, str]:
        """Pick from *candidates* (``[(direction, modeled_cost), ...]``,
        cheapest first).  Returns ``(direction, chosen_by)``."""
        best_cost = max(candidates[0][1], 1)
        band = [d for d, c in candidates if c <= best_cost * _TUNER_BAND]
        if len(band) == 1:
            return band[0], "heuristic"
        # explore: give every cost-viable direction its trial runs, in
        # deterministic (cost) order
        entries = [self._hists.get((site, bucket, d)) for d in band]
        for d, entry in zip(band, entries):
            if entry is None or entry[1] < _TUNER_EXPLORE:
                return d, "explore"
        # exploit: lowest median latency, cost order breaking ties
        _median, best = min((entry[2], i) for i, entry in enumerate(entries))
        return band[best], "tuner"


_TUNER = AutoTuner()


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
        "site",
        "bucket",
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
        self.site = None
        self.bucket = None
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
        site = self.site or (func, a.nrows, a.ncols, int(a.indices.size), bool(ta))
        self.site = site
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
        """Beamer-style density-adaptive choice via the cost model, with
        the banded autotuner breaking near-ties from observed latency."""
        nnz = int(a.indices.size)
        size = int(u.size)
        unnz = int(u.indices.size)
        mask = getattr(desc, "mask", None)

        # dense: scan every stored entry of the gather matrix
        candidates = [("dense", nnz)]

        # push: Σ out-degree(frontier) on the scatter matrix.  When the
        # frontier is dense the bound density * nnz already rules push
        # out without forcing a transpose build.
        scatter_ready = (func == "mxv") == bool(ta)
        if unnz == 0:
            candidates.append(("push", 0))
        elif scatter_ready or unnz * 4 <= size or a.transpose_memo() is not None:
            s = a if scatter_ready else a.transposed()
            deg = s.row_lengths()[u.indices]
            candidates.append(("push", int(deg.sum())))

        # pull: Σ in-degree(candidates) on the gather matrix, discounted
        # when the LogicalOr early exit applies
        if mask is not None:
            cand = _pull_candidates(mask, desc)
            self.candidates = cand
            # the gather matrix is `a` exactly when the scatter matrix
            # is its transpose, and vice versa
            g = a.transposed() if scatter_ready else a
            pdeg = g.row_lengths()[cand]
            cost = int(pdeg.sum())
            if str(add_op) == "LogicalOr":
                cost = cost // _EARLY_EXIT_DISCOUNT + cand.size
            candidates.append(("pull", cost))

        candidates.sort(key=lambda dc: (dc[1], DIRECTIONS.index(dc[0])))
        if not _config().schedule_tuner:
            return candidates[0][0], "heuristic"
        site = (func, a.nrows, a.ncols, nnz, bool(ta))
        self.site = site
        self.bucket = (_log2_bucket(unnz), _log2_bucket(size - unnz))
        return _TUNER.choose(site, self.bucket, candidates)

    def note_latency(self, dur_ns: int) -> None:
        """Feed one engine-call latency back to the autotuner (only
        meaningful for auto-mode schedules with a tuner site)."""
        if self.site is not None and self.bucket is not None:
            _TUNER.note(self.site, self.bucket, self.direction, dur_ns)

    @property
    def wants_timing(self) -> bool:
        """True when the dispatcher should time the engine call for the
        autotuner's benefit."""
        return self.bucket is not None

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
