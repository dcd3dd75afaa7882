"""PageRank (paper Figs. 7 and 8).

``pagerank`` follows the paper's Fig. 7 listing: the graph is copied into
a row-normalised float matrix, pre-scaled by the damping factor; each
power iteration performs seven GraphBLAS operations (vxm with a Second
accumulator, a bound-Plus apply for teleportation, a Minus eWiseAdd and a
Times eWiseMult for the squared error, a Plus-reduce, and the rank copy).

Note on fidelity: Fig. 7 contains two obvious listing artifacts (an
uninitialised ``i`` and a trailing dead-code block after ``return``); we
keep the loop structure and per-iteration operation sequence exactly and
drop the artifacts, like the GBTL version in Fig. 8 does.  The squared
error is expressed as ``reduce(delta * delta)`` so the JIT engines run
the eWiseMult and the reduction as one kernel
(``ewise_mult_vec_reduce_scalar``); on the ``interpreted`` engine it still
runs as the listing's separate eWiseMult + reduce pair.
"""

from __future__ import annotations

import numpy as np

from .. import core, utilities
from ..backend import kernels as K
from ..backend.kernels import OpDesc
from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..core.operators import Accumulator, BinaryOp, Semiring, UnaryOp
from ..core.predefined import PlusMonoid

__all__ = ["pagerank", "pagerank_native"]


def pagerank(
    graph: "core.Matrix",
    page_rank: "core.Vector",
    damping_factor: float = 0.85,
    threshold: float = 1.0e-5,
    max_iters: int = 100000,
    schedule: str | None = None,
) -> "core.Vector":
    """Paper Fig. 7: writes ranks into *page_rank* and returns it.

    The rank vector is dense from the first iteration, so the power
    iteration's ``page_rank @ m`` stays on the scatter/dense kernels
    (*schedule* — overriding ``$PYGB_SCHEDULE`` — mostly matters here as
    a regression lever: every mode must produce bit-identical ranks).
    """
    from .bfs import _scheduled

    gb = core
    rows, _cols = graph.shape

    m = gb.Matrix(shape=graph.shape, dtype=float)
    m[None] = graph
    utilities.normalize_rows(m)
    with UnaryOp("Times", damping_factor):
        m[None] = gb.apply(m)

    page_rank[:] = 1.0 / rows
    new_rank = gb.Vector(shape=page_rank.shape, dtype=m.dtype)
    delta = gb.Vector(shape=page_rank.shape, dtype=m.dtype)

    with _scheduled(schedule):
        for _ in range(max_iters):
            with Accumulator("Second"), Semiring(PlusMonoid, "Times"):
                new_rank[None] += page_rank @ m

            with UnaryOp("Plus", (1.0 - damping_factor) / rows):
                new_rank[None] = gb.apply(new_rank)

            with BinaryOp("Minus"):
                delta[None] = page_rank + new_rank

            squared_error = gb.reduce(delta * delta)

            page_rank[:] = new_rank
            if (squared_error / rows) < threshold:
                break
    return page_rank


def pagerank_native(
    graph: SparseMatrix,
    damping_factor: float = 0.85,
    threshold: float = 1.0e-5,
    max_iters: int = 100000,
) -> SparseVector:
    """Fig. 8 transliterated: direct kernel calls, no DSL objects."""
    n = graph.nrows
    nodesc = OpDesc()

    # m = normalize_rows(float(graph)) * damping_factor
    m = utilities.normalized_rows(graph.astype(np.float64))
    m = K.apply_mat(m, m, ("bind", "Times", damping_factor, "second"), nodesc)

    page_rank = SparseVector.from_dense(np.full(n, 1.0 / n))
    new_rank = SparseVector.empty(n, np.float64)
    delta = SparseVector.empty(n, np.float64)
    teleport = ("bind", "Plus", (1.0 - damping_factor) / n, "second")

    for _ in range(max_iters):
        new_rank = K.vxm(new_rank, page_rank, m, "Plus", "Times", OpDesc(accum="Second"))
        new_rank = K.apply_vec(new_rank, new_rank, teleport, nodesc)
        delta = K.ewise_add_vec(delta, page_rank, new_rank, "Minus", nodesc)
        delta = K.ewise_mult_vec(delta, delta, delta, "Times", nodesc)
        squared_error = float(K.reduce_vec_scalar(delta, "Plus"))
        page_rank = K.assign_vec(
            page_rank, new_rank, np.arange(n, dtype=np.int64), nodesc
        )
        if squared_error / n < threshold:
            break
    return page_rank
