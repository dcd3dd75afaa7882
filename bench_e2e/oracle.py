"""Independent reference results: SciPy ``csgraph`` and NetworkX.

Nothing here imports ``repro``.  Every function takes plain COO arrays
(``A[i, j]`` is the edge ``i -> j``) and the program's output as NumPy
arrays, and answers whether the output is right.  The worker verifies
each distinct (algorithm, input, source) once; every timed unit is then
compared with the verified output by hash.

SciPy and NetworkX are imported on first use, after the timed window
and after peak memory was read, so they cost the measurements nothing.
A missing package is an error, never a skipped check.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def _scipy():
    import scipy.sparse
    import scipy.sparse.csgraph

    return scipy.sparse


def _networkx():
    import networkx

    return networkx


def require() -> None:
    """Import both packages now; raises ImportError when one is missing."""
    _scipy()
    _networkx()


def _csr(n, rows, cols, vals=None):
    sp = _scipy()
    data = np.ones(len(rows)) if vals is None else np.asarray(vals, dtype=float)
    return sp.csr_matrix((data, (np.asarray(rows), np.asarray(cols))), shape=(n, n))


def _sparse_equal(n, idx, vals, expected, present, rtol=0.0) -> bool:
    """Sparse output (*idx*, *vals*) against a dense *expected* array of
    which only the entries flagged *present* may be stored."""
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.asarray(vals)
    want = np.flatnonzero(present)
    if len(idx) != len(want) or not np.array_equal(np.sort(idx), want):
        return False
    got = np.empty(n)
    got[idx] = vals
    return bool(np.allclose(got[want], expected[want], rtol=rtol, atol=0.0))


def check_bfs(n, rows, cols, source, idx, levels) -> bool:
    """``levels[v]`` = 1 + hops from *source*; unreached vertices absent."""
    sp = _scipy()
    hops = sp.csgraph.dijkstra(_csr(n, rows, cols), directed=True, indices=source, unweighted=True)
    return _sparse_equal(n, idx, levels, hops + 1, np.isfinite(hops))


def check_sssp(n, rows, cols, weights, source, idx, dist) -> bool:
    sp = _scipy()
    want = sp.csgraph.dijkstra(_csr(n, rows, cols, weights), directed=True, indices=source)
    return _sparse_equal(n, idx, dist, want, np.isfinite(want), rtol=RTOL)


def check_pagerank(n, rows, cols, vals, ranks, damping=0.85, threshold=1e-8) -> bool:
    """*ranks* (dense) is the paper's Fig. 7 iteration: uniform start,
    ``r <- d P^T r + (1 - d)/n`` until ``sum(delta^2)/n < threshold``.

    Two checks.  The iteration is replayed with SciPy's sparse matvec
    and must agree to rounding.  The result must also lie within the
    a-posteriori bound ``d/(1-d) * |delta|_1`` of NetworkX's converged
    PageRank — on inputs where every vertex has an in- and an out-edge,
    which the workload generators guarantee, the two definitions agree.
    """
    ranks = np.asarray(ranks, dtype=float)
    if ranks.shape != (n,):
        return False
    a = _csr(n, rows, cols, vals)
    out = np.asarray(a.sum(axis=1)).ravel()
    pt = (_scipy().diags(1.0 / out) @ a).T.tocsr() * damping
    r = np.full(n, 1.0 / n)
    while True:
        new = pt @ r + (1.0 - damping) / n
        delta = new - r
        r = new
        if float(delta @ delta) / n < threshold:
            break
    if not np.allclose(ranks, r, rtol=RTOL, atol=1e-15):
        return False
    nx = _networkx()
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                                  np.asarray(vals, dtype=float).tolist()))
    converged = nx.pagerank(g, alpha=damping, tol=1e-13, max_iter=10000)
    want = np.array([converged[v] for v in range(n)])
    bound = damping / (1.0 - damping) * float(np.abs(delta).sum()) + 1e-9
    return float(np.abs(ranks - want).sum()) <= bound


def check_triangles(n, rows, cols, count) -> bool:
    """*rows*/*cols*: the strictly lower triangle of a symmetric graph."""
    nx = _networkx()
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()))
    return int(count) == sum(nx.triangles(g).values()) // 3


def check_components(n, rows, cols, idx, labels) -> bool:
    """The service runs min-label propagation along ``A @ labels`` on
    the graph as given: ``labels[v]`` is the smallest vertex id
    reachable from ``v`` (itself included).  On a symmetric graph that
    is the usual component label."""
    nx = _networkx()
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()))
    dag = nx.condensation(g)
    low: dict[int, int] = {}
    for c in reversed(list(nx.topological_sort(dag))):
        low[c] = min([min(dag.nodes[c]["members"])] + [low[s] for s in dag.successors(c)])
    want = np.array([low[dag.graph["mapping"][v]] for v in range(n)], dtype=float)
    return _sparse_equal(n, idx, labels, want, np.ones(n, dtype=bool))


def check_matrix(triples: dict, rows, cols, vals) -> bool:
    """COO output of the program against the expected ``{(i, j): v}``;
    values pass through text and list round trips and must be exact."""
    if len(rows) != len(triples):
        return False
    order = np.lexsort((np.asarray(cols), np.asarray(rows)))
    keys = np.array(sorted(triples), dtype=np.int64).reshape(-1, 2)
    return (
        np.array_equal(np.asarray(rows)[order], keys[:, 0])
        and np.array_equal(np.asarray(cols)[order], keys[:, 1])
        and np.array_equal(np.asarray(vals)[order], [triples[k] for k in map(tuple, keys)])
    )


def check_transposed_matvec(n, triples: dict, u, idx, vals) -> bool:
    """Sparse (*idx*, *vals*) against ``A^T u`` for ``A = {(i, j): v}``:
    one stored entry per non-empty column of ``A``."""
    keys = np.array(list(triples), dtype=np.int64).reshape(-1, 2)
    a = _csr(n, keys[:, 0], keys[:, 1], list(triples.values()))
    want = a.T @ np.asarray(u, dtype=float)
    return _sparse_equal(n, idx, vals, want, np.diff(a.tocsc().indptr) > 0, rtol=RTOL)
