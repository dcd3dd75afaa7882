"""The compiled whole-algorithm execution versions (paper Sec. VI).

Each function here runs the complete algorithm as one call of a compiled
C++ kernel and returns ``(result, elapsed_ns)`` where ``elapsed_ns`` is
the kernel's own clock (``pygb_kernel_ns``).  The kernels are rows of the
kernel table (:mod:`repro.jit.kernels`), built like every other kernel
and called through :func:`~repro.jit.cppengine.native_engine`: BFS and
SSSP are k=1 calls of the k-source traversal rows (the kernels the graph
service runs, so there is one native BFS and one native SSSP), PageRank
and triangle counting the ``pagerank`` and ``triangle_count`` rows.

* timing the Python call from outside gives the paper's **version 2**
  (Python calls a complete C++ algorithm — includes the single FFI
  crossing and buffer marshalling);
* the returned ``elapsed_ns`` is the paper's **version 3** (native C++
  timing, no Python anywhere on the measured path).

Each call is one guarded op: under ``gb.deadline`` the kernel polls its
thread's cancel cell and the call raises the guard's
:class:`~repro.exceptions.OperationTimeout`.  All functions require a
C++ toolchain and raise :class:`~repro.exceptions.BackendUnavailable`
otherwise.
"""

from __future__ import annotations

import numpy as np

from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..guard import guarded_call
from ..jit.cppengine import native_engine

__all__ = [
    "bfs_compiled",
    "sssp_compiled",
    "pagerank_compiled",
    "triangle_count_compiled",
]


def _timed(func: str, method: str, *args):
    """One call of row *func* through the native engine's *method* — a
    guarded op, which a ``gb.deadline`` scope bounds: the result and that
    kernel's own clock, from its one lookup."""
    engine = native_engine()
    return guarded_call(func, engine.name, getattr(engine, method), *args)


def _traversal(func: str, graph: SparseMatrix, source: int, dtype) -> tuple[SparseVector, int]:
    """A k=1 call of the k-source traversal family, its values of
    *dtype*: row 0 of the result."""
    result, elapsed = _timed(func, "_traversal", func, graph, [source], dtype)
    return SparseVector.from_sorted(graph.ncols, result.indices, result.values), elapsed


def bfs_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """BFS as one compiled C++ call (``bfs_multi`` from one source).
    Takes the backend store of the graph; returns ``(levels,
    elapsed_ns)``."""
    return _traversal("bfs_multi", graph, source, np.int64)


def sssp_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """SSSP (converging variant) as one compiled C++ call
    (``sssp_multi`` from one source)."""
    return _traversal("sssp_multi", graph, source, graph.dtype)


def pagerank_compiled(
    graph: SparseMatrix,
    damping_factor: float = 0.85,
    threshold: float = 1.0e-5,
    max_iters: int = 100000,
) -> tuple[SparseVector, int]:
    """PageRank as one compiled C++ call (graph values are cast to the
    rank type, float64, before the call)."""
    return _timed("pagerank", "pagerank", graph.astype(np.float64), damping_factor, threshold,
                  max_iters)


def triangle_count_compiled(L: SparseMatrix) -> tuple[int, int]:
    """Triangle counting as one compiled C++ call; returns
    ``(triangles, elapsed_ns)``."""
    count, elapsed = _timed("triangle_count", "triangle_count", L)
    return int(count), elapsed
