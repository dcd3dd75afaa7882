"""Fused multi-source traversals: k sources as k rows of a Matrix.

The service layer's admission controller batches compatible requests
(same graph, same algorithm) into **one** fused run: k single-vector
traversals become one matrix-level traversal whose frontier is a k×n
Matrix with one row per source.  This is the classic multi-source
BFS/Bellman-Ford formulation (GraphBLAST batches traversals the same
way; graphblas-algorithms' ``bellman_ford_path_lengths`` builds the
k-row ``Matrix`` from its source list).

Exactness: row ``s`` of the fused iteration state only ever combines
with row ``s`` of itself — ``(F @ A)[s, j]`` reduces over
``F[s, i] ⊗ A[i, j]``, exactly the terms ``(fₛ @ A)[j]`` of the solo
run, applied in the same ascending-``i`` kernel order.  Masks and
accumulators act elementwise per row.  So the fused run performs the
*same* floating-point operations in the *same* order per source, and
every row is bit-identical to its solo counterpart (asserted by
``tests/test_service.py`` and the replay harness).

Each traversal is **one** Engine-interface dispatch (``bfs_multi`` /
``sssp_multi``, rows of the kernel table): the interpreted and pyjit
engines run the backend-level reference loop
(:mod:`repro.backend.kernels.traversal`), the cpp engine the same loop
generated into one C++ call, during which ctypes releases the GIL.
"""

from __future__ import annotations

import numpy as np

from .. import core
from ..core.context import current_backend_engine
from ..exceptions import InvalidValue

__all__ = ["bfs_levels_multi", "sssp_distances_multi", "matrix_row"]


def _check_sources(sources, n: int) -> list[int]:
    srcs = [int(s) for s in sources]
    if not srcs:
        raise InvalidValue("multi-source traversal needs at least one source")
    for s in srcs:
        if not 0 <= s < n:
            raise InvalidValue(f"source {s} out of range for {n} vertices")
    return srcs


def _traverse(method: str, graph: "core.Matrix", sources) -> "core.Matrix":
    srcs = _check_sources(sources, graph.nrows)
    engine = current_backend_engine()
    return core.Matrix(getattr(engine, method)(graph._store, np.asarray(srcs, np.int64)))


def bfs_levels_multi(graph: "core.Matrix", sources) -> "core.Matrix":
    """Level-synchronous BFS from every vertex in *sources* at once.

    Returns a ``k×n`` Matrix whose row ``s`` holds 1 + the hop distance
    from ``sources[s]`` (no entry = unreached) — row ``s`` is
    bit-identical to ``bfs_levels(graph, sources[s])``.

    The single-source loop of :func:`~repro.algorithms.bfs.bfs` lifts
    verbatim: the frontier vector becomes a k×n Boolean matrix, the
    masked ``graph.T @ frontier`` step becomes ``frontier @ graph``
    under the same LogicalSemiring/complement-mask/replace descriptor
    (``(F @ A)[s, j] = ⋁ᵢ F[s, i] ∧ A[i, j]`` — row-wise exactly the
    pull of the transposed single-source product).  The whole loop is
    one dispatch, the engine's ``bfs_multi``.
    """
    return _traverse("bfs_multi", graph, sources)


def sssp_distances_multi(graph: "core.Matrix", sources) -> "core.Matrix":
    """Bellman-Ford relaxation from every vertex in *sources* at once.

    Returns a ``k×n`` Matrix whose row ``s`` holds the shortest weighted
    distance from ``sources[s]`` (no entry = unreachable) — bit-identical
    to ``sssp_distances(graph, sources[s])``.

    The relaxation ``path[None] += graph.T @ path`` of
    :func:`~repro.algorithms.sssp.sssp` becomes
    ``dist[None] += dist @ graph`` over the same (min, +) semiring with
    the same Min accumulator; the loop is bounded by ``|V|`` rounds and
    exits early at the shared fixed point (every row converges no later
    than the slowest source, and min-plus relaxation past a row's own
    fixed point cannot change it — identical per-row arithmetic either
    way).  The whole loop is one dispatch, the engine's ``sssp_multi``.
    """
    return _traverse("sssp_multi", graph, sources)


def matrix_row(result: "core.Matrix", row: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of one row of a fused k×n result — the
    demultiplexing step that hands each batched client its own answer."""
    rows, cols, vals = result.to_coo()
    pick = rows == row
    return cols[pick], vals[pick]
