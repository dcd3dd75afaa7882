"""Reference k-source traversals: the ``bfs_multi`` / ``sssp_multi``
rows of the kernel table.

Each is the single-source listing lifted to a ``k×n`` state with one row
per source and transliterated to direct backend-kernel calls, the way
:func:`~repro.algorithms.bfs.bfs_native` and
:func:`~repro.algorithms.sssp.sssp_native` transliterate Fig. 2c and
Fig. 4b.  Row ``s`` of the state only ever combines with row ``s`` —
``(F ⊕.⊗ A)[s, j]`` folds ``F[s, i] ⊗ A[i, j]`` over ascending ``i``,
the terms and order of the solo ``Aᵀ ⊕.⊗ f`` — and masks and
accumulators act per entry, so every row is bit-identical to the
single-source listing run from its source.  The rounds are the
listing's: level-synchronous BFS, and at most ``|V|`` min-plus
relaxations that stop once no row changes (a round past a row's fixed
point cannot change it).

The ``interpreted`` engine runs these; the ``cpp`` engine runs the same
rounds generated into one translation unit (``cppcodegen._gen_bfs_multi``
/ ``_gen_sssp_multi``), row by row.  The cancellation checkpoint runs
once a round.
"""

from __future__ import annotations

import numpy as np

from ... import guard
from ...exceptions import DimensionMismatch, IndexOutOfBounds
from ..smatrix import SparseMatrix
from .assign_ import assign_mat_scalar
from .common import OpDesc
from .mxm import mxm

__all__ = ["bfs_multi", "sssp_multi", "check_traversal"]


def check_traversal(graph: SparseMatrix, sources) -> np.ndarray:
    """*sources* as a contiguous int64 array, after the checks every
    engine makes before it starts: a square graph, every source one of
    its vertices (a column of the ``k×n`` state)."""
    if graph.nrows != graph.ncols:
        raise DimensionMismatch(f"a traversal needs a square graph, got {graph.shape}")
    cols = np.ascontiguousarray(sources, np.int64)
    if cols.size and (cols.min() < 0 or cols.max() >= graph.ncols):
        raise IndexOutOfBounds(f"column index out of range (limit {graph.ncols})")
    return cols


def _seeded(graph: SparseMatrix, sources, value, dtype) -> SparseMatrix:
    """The ``k×n`` start state: *value* at ``(s, sources[s])``."""
    cols = check_traversal(graph, sources)
    k = cols.size
    rows = np.arange(k, dtype=np.int64)
    return SparseMatrix.from_coo(k, graph.ncols, rows, cols, np.full(k, value), dtype)


def bfs_multi(graph: SparseMatrix, sources) -> SparseMatrix:
    """``k×n`` int64 levels: row ``s`` holds 1 + the hop distance from
    ``sources[s]`` (no entry = unreached)."""
    frontier = _seeded(graph, sources, True, np.bool_)
    k, n = frontier.shape
    levels = SparseMatrix.empty(k, n, np.int64)
    all_rows, all_cols = np.arange(k, dtype=np.int64), np.arange(n, dtype=np.int64)
    depth = 0
    # a frontier of false entries only (reached over stored-zero edges)
    # levels nothing and stays false: the loop ends with the true ones
    while frontier.values.any():
        guard.check_cancelled()
        depth += 1
        # levels[frontier][:, :] = depth
        levels = assign_mat_scalar(levels, depth, all_rows, all_cols, OpDesc(mask=frontier))
        # frontier[~levels] = frontier @ graph  (LogicalSemiring, Replace)
        frontier = mxm(
            frontier, frontier, graph, "LogicalOr", "LogicalAnd",
            OpDesc(mask=levels, complement=True, replace=True),
        )
    return levels


def sssp_multi(graph: SparseMatrix, sources) -> SparseMatrix:
    """``k×n`` distances at the graph's dtype: row ``s`` holds the
    shortest weighted distance from ``sources[s]`` (no entry =
    unreachable)."""
    dist = _seeded(graph, sources, 0, graph.dtype)
    for _ in range(graph.nrows):
        guard.check_cancelled()
        # dist[None] += dist @ graph  (MinPlusSemiring, Accumulator("Min"))
        new = mxm(dist, dist, graph, "Min", "Plus", OpDesc(accum="Min"))
        settled = (
            np.array_equal(new.indptr, dist.indptr)
            and np.array_equal(new.indices, dist.indices)
            and np.array_equal(new.values, dist.values)
        )
        dist = new
        if settled:
            break
    return dist
