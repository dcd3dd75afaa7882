"""Breadth-first search (paper Fig. 2).

``bfs`` is the PyGB listing of Fig. 2b essentially verbatim; ``bfs_native``
is the GBTL C++ of Fig. 2c transliterated to direct backend-kernel calls
(no DSL dispatch), the paper's "native" comparison point.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .. import core
from .. import schedule as _schedule
from ..backend import kernels as K
from ..backend.kernels import OpDesc
from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..core.predefined import LogicalSemiring

__all__ = ["bfs", "bfs_native"]


def _scheduled(schedule):
    """Context for an algorithm's ``schedule=`` knob: a ``Scheduled``
    override when given, a no-op otherwise (environment default)."""
    if schedule is None:
        return contextlib.nullcontext()
    return _schedule.Scheduled(schedule)


def bfs(
    graph: "core.Matrix",
    frontier: "core.Vector",
    levels: "core.Vector",
    schedule: str | None = None,
) -> "core.Vector":
    """Level-synchronous BFS: on return ``levels[v]`` is 1 + the hop
    distance from the seed(s) set in *frontier*; unreached vertices hold
    no entry.  (Paper Fig. 2b, plus an end test for an edge whose stored
    value is 0, which the Boolean semiring reads as no edge.)

    This is the canonical direction-optimizing traversal (Beamer et al.,
    SC'12): each ``graph.T @ frontier`` step is masked by the unvisited
    set, so under the default ``auto`` schedule sparse frontiers run the
    push (scatter) kernel and dense frontiers switch to the pull (masked
    gather) kernel with its LogicalOr early exit.  *schedule* overrides
    ``$PYGB_SCHEDULE`` for this call (``"auto"``, ``"fixed"``,
    ``"push"``, ``"pull"``); results are bit-identical either way.
    """
    gb = core
    depth, reached = 0, -1
    with _scheduled(schedule):
        while frontier.nvals > 0:
            depth += 1
            levels[frontier][:] = depth
            # a frontier holding only false entries (reached over edges
            # of stored value 0) levels no vertex: the traversal is over
            if levels.nvals == reached:
                break
            reached = levels.nvals
            with LogicalSemiring, gb.Replace:
                frontier[~levels] = graph.T @ frontier
    return levels


def bfs_levels(
    graph: "core.Matrix", source: int, schedule: str | None = None
) -> "core.Vector":
    """Convenience wrapper: run :func:`bfs` from a single source vertex."""
    n = graph.nrows
    frontier = core.Vector(([True], [source]), shape=(n,), dtype=bool)
    levels = core.Vector(shape=(n,), dtype=np.int64)
    return bfs(graph, frontier, levels, schedule=schedule)


def bfs_native(graph: SparseMatrix, source: int) -> SparseVector:
    """Fig. 2c transliterated: direct kernel calls, no DSL objects."""
    n = graph.nrows
    frontier = SparseVector.from_coo(n, [source], [True], np.bool_)
    levels = SparseVector.empty(n, np.int64)
    gt = graph.transposed()
    all_indices = np.arange(n, dtype=np.int64)
    depth = 0
    # false entries (reached over edges of stored value 0) level nothing
    while frontier.values.any():
        depth += 1
        levels = K.assign_vec_scalar(levels, depth, all_indices, OpDesc(mask=frontier))
        frontier = K.mxv(
            frontier,
            gt,
            frontier,
            "LogicalOr",
            "LogicalAnd",
            OpDesc(mask=levels, complement=True, replace=True),
        )
    return levels
