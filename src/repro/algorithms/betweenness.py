"""Betweenness centrality (Brandes' algorithm) in GraphBLAS form — the
batched formulation of GBTL's/LAGraph's algorithm suites.

Forward phase: level-synchronous BFS from the source accumulating the
number of shortest paths ``σ`` through each vertex, remembering each
level's frontier pattern.  Backward phase: dependencies flow from the
deepest level back via ``mxv`` over (+, ×), scaled by ``σ`` ratios.

``betweenness_centrality`` sums the per-source dependencies over every
vertex (exact Brandes); pass ``sources`` for the sampled approximation.
"""

from __future__ import annotations

import numpy as np

from .. import core
from ..core.predefined import ArithmeticSemiring

__all__ = ["bc_from_source", "betweenness_centrality"]


def bc_from_source(graph: "core.Matrix", source: int) -> np.ndarray:
    """Brandes dependency scores δ_source(v) for one source, as a dense
    float array (the source itself scores 0)."""
    gb = core
    n = graph.nrows

    # ---- forward: path counts per level ------------------------------
    sigma = gb.Vector(([1.0], [source]), shape=(n,))  # σ so far
    frontier = gb.Vector(([1.0], [source]), shape=(n,))
    levels = []  # frontier patterns, one per BFS level
    while frontier.nvals > 0:
        levels.append(frontier.dup())
        with ArithmeticSemiring, gb.Replace:
            nxt = gb.Vector(shape=(n,), dtype=float)
            nxt[~sigma] = graph.T @ frontier  # unreached vertices only
        # a path over an edge of stored value 0 counts nothing: the next
        # level is the vertices some path reached
        frontier = gb.select("NonZero", nxt).new()
        sigma[None] += gb.apply(frontier)  # σ accumulates path counts (Plus)
    if len(levels) <= 1:
        return np.zeros(n)

    # ---- backward: dependency accumulation ---------------------------
    sigma_d = sigma.to_numpy()
    delta = np.zeros(n)
    for d in range(len(levels) - 1, 0, -1):
        # w(u) over level d: (1 + δ(u)) / σ(u)
        idx = levels[d].to_coo()[0]
        w = gb.Vector(((1.0 + delta[idx]) / sigma_d[idx], idx), shape=(n,))
        # pull to the previous level through the graph: t = A ⊕.⊗ w
        with ArithmeticSemiring, gb.Replace:
            t = gb.Vector(shape=(n,), dtype=float)
            t[levels[d - 1]] = graph @ w
        tidx, tvals = t.to_coo()
        delta[tidx] += tvals * sigma_d[tidx]
    delta[source] = 0.0
    return delta


def betweenness_centrality(
    graph: "core.Matrix", sources=None, normalized: bool = False
) -> np.ndarray:
    """Betweenness centrality of a **directed** graph: δ summed over all
    (or the given sample of) sources.  With ``normalized=True``, scores
    divide by (n-1)(n-2), matching ``networkx.betweenness_centrality``."""
    n = graph.nrows
    if sources is None:
        sources = range(n)
    scores = np.zeros(n)
    for s in sources:
        scores += bc_from_source(graph, int(s))
    if normalized and n > 2:
        scores /= (n - 1) * (n - 2)
    return scores
