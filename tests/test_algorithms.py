"""Integration tests: the four evaluated algorithms (paper Figs. 2, 4, 5,
7) against independent oracles (NetworkX, SciPy, dense NumPy), and
cross-version agreement between the DSL and native implementations."""

import numpy as np
import pytest

import repro as gb
from repro.algorithms import (
    bfs,
    bfs_levels,
    bfs_native,
    lower_triangle,
    pagerank,
    pagerank_native,
    sssp,
    sssp_converging,
    sssp_distances,
    sssp_native,
    triangle_count,
    triangle_count_native,
)
from repro.io.generators import erdos_renyi, grid_graph, ring_graph, scale_free

from helpers import within

nx = pytest.importorskip("networkx")


def _vec_dict(v):
    idx, vals = v.to_coo()
    return {int(i): x.item() for i, x in zip(idx, vals)}


class TestBFS:
    @pytest.mark.parametrize("seed,n", [(1, 60), (2, 120), (3, 200)])
    def test_vs_networkx(self, engine, seed, n):
        g = erdos_renyi(n, seed=seed)
        levels = bfs_levels(g, 0)
        expect = nx.single_source_shortest_path_length(gb.io.to_networkx(g), 0)
        got = _vec_dict(levels)
        assert set(got) == set(expect)
        for k, d in expect.items():
            assert got[k] == d + 1  # paper's levels are 1-based

    def test_ring_graph_depth(self, engine):
        # worst case: the ring needs n iterations
        n = 30
        levels = bfs_levels(ring_graph(n), 0)
        got = _vec_dict(levels)
        assert got == {i: i + 1 for i in range(n)}

    def test_unreachable_vertices_have_no_entry(self, engine):
        g = gb.Matrix(([1.0], ([0], [1])), shape=(4, 4))
        levels = bfs_levels(g, 0)
        assert set(_vec_dict(levels)) == {0, 1}

    def test_edges_of_stored_value_zero_end_the_traversal(self, engine):
        # 0→1 and the self-loop 1→1 store 0, which the Boolean semiring
        # reads as no edge: the frontier's false entry at 1 levels nothing
        g = gb.Matrix(([0, 0], ([0, 1], [1, 1])), shape=(3, 3), dtype=np.int64)
        with within(10):
            levels, native = bfs_levels(g, 0), bfs_native(g._store, 0)
        assert _vec_dict(levels) == native.to_dict() == {0: 1}

    def test_multi_source(self, engine):
        g = ring_graph(10)
        frontier = gb.Vector(([True, True], [0, 5]), shape=(10,), dtype=bool)
        levels = gb.Vector(shape=(10,), dtype=int)
        bfs(g, frontier, levels)
        got = _vec_dict(levels)
        assert got[0] == 1 and got[5] == 1
        assert got[4] == 5 and got[9] == 5

    def test_native_matches_dsl(self, engine):
        g = erdos_renyi(150, seed=9)
        dsl = _vec_dict(bfs_levels(g, 3))
        nat = bfs_native(g._store, 3)
        assert {int(i): v.item() for i, v in zip(nat.indices, nat.values)} == dsl


class TestSSSP:
    @pytest.mark.parametrize("side", [6, 10])
    def test_vs_dijkstra_grid(self, engine, side):
        g = grid_graph(side, weighted=True, seed=4, dtype=float)
        d = sssp_distances(g, 0)
        expect = nx.single_source_dijkstra_path_length(gb.io.to_networkx(g), 0)
        got = _vec_dict(d)
        assert set(got) == set(expect)
        for k in expect:
            assert got[k] == pytest.approx(expect[k])

    def test_vs_dijkstra_er(self, engine):
        g = erdos_renyi(80, seed=11, weighted=True, dtype=float)
        d = sssp_distances(g, 0)
        expect = nx.single_source_dijkstra_path_length(gb.io.to_networkx(g), 0)
        got = _vec_dict(d)
        assert set(got) == set(expect)
        for k in expect:
            assert got[k] == pytest.approx(expect[k])

    def test_converging_matches_full(self, engine):
        g = grid_graph(7, weighted=True, seed=5, dtype=float)
        p1 = gb.Vector(([0.0], [0]), shape=(g.nrows,), dtype=float)
        p2 = gb.Vector(([0.0], [0]), shape=(g.nrows,), dtype=float)
        full = sssp(g, p1)
        conv = sssp_converging(g, p2)
        assert full.isequal(conv)

    def test_native_matches_dsl(self, engine):
        g = grid_graph(8, weighted=True, seed=6, dtype=float)
        dsl = _vec_dict(sssp_distances(g, 0))
        nat = sssp_native(g._store, 0)
        got = {int(i): v.item() for i, v in zip(nat.indices, nat.values)}
        assert set(got) == set(dsl)
        for k in dsl:
            assert got[k] == pytest.approx(dsl[k])

    def test_scipy_oracle(self, engine):
        pytest.importorskip("scipy.sparse")
        from scipy.sparse.csgraph import dijkstra

        g = grid_graph(6, weighted=True, seed=8, dtype=float)
        d = sssp_distances(g, 0).to_numpy(fill=np.inf)
        d[0] = 0.0
        expect = dijkstra(gb.io.to_scipy_sparse(g), indices=0)
        assert np.allclose(d, expect)


class TestTriangleCount:
    def _undirected(self, n, seed):
        g = erdos_renyi(n, seed=seed)
        r, c, _ = g.to_coo()
        A = gb.Matrix(
            (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=g.shape, dtype=int,
        )
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(zip(r.tolist(), c.tolist()))
        return A, nxg

    @pytest.mark.parametrize("seed,n", [(5, 80), (6, 120)])
    def test_vs_networkx(self, engine, seed, n):
        A, nxg = self._undirected(n, seed)
        L = lower_triangle(A)
        expect = sum(nx.triangles(nxg).values()) // 3
        assert triangle_count(L) == expect
        assert triangle_count_native(L._store) == expect

    def test_triangle_free_graph(self, engine):
        A, _ = self._undirected(10, 999)
        star_rows = [0] * 9 + list(range(1, 10))
        star_cols = list(range(1, 10)) + [0] * 9
        star = gb.Matrix((np.ones(18), (star_rows, star_cols)), shape=(10, 10), dtype=int)
        assert triangle_count(lower_triangle(star)) == 0

    def test_complete_graph(self, engine):
        n = 7
        rows, cols = zip(*[(i, j) for i in range(n) for j in range(n) if i != j])
        K = gb.Matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=int)
        expect = n * (n - 1) * (n - 2) // 6
        assert triangle_count(lower_triangle(K)) == expect

    def test_lower_triangle_structure(self, engine):
        A, _ = self._undirected(20, 13)
        L = lower_triangle(A)
        rows, cols, _ = L.to_coo()
        assert (rows > cols).all()
        assert L.nvals == A.nvals // 2


class TestPageRank:
    @pytest.mark.parametrize("seed,n", [(7, 100), (8, 160)])
    def test_vs_networkx(self, engine, seed, n):
        g = scale_free(n, seed=seed)
        pr = gb.Vector(shape=(n,), dtype=float)
        pagerank(g, pr, threshold=1e-14)
        expect = nx.pagerank(gb.io.to_networkx(g), alpha=0.85, tol=1e-13, max_iter=1000)
        got = pr.to_numpy()
        assert np.abs(got - np.array([expect[i] for i in range(n)])).max() < 1e-6

    def test_ranks_sum_to_one(self, engine):
        g = scale_free(60, seed=3)
        pr = gb.Vector(shape=(60,), dtype=float)
        pagerank(g, pr, threshold=1e-12)
        assert pr.to_numpy().sum() == pytest.approx(1.0)

    def test_uniform_on_ring(self, engine):
        n = 16
        pr = gb.Vector(shape=(n,), dtype=float)
        pagerank(ring_graph(n, dtype=float), pr, threshold=1e-14)
        assert np.allclose(pr.to_numpy(), 1.0 / n)

    def test_native_matches_dsl(self, engine):
        g = scale_free(80, seed=21)
        pr = gb.Vector(shape=(80,), dtype=float)
        pagerank(g, pr, threshold=1e-13)
        nat = pagerank_native(g._store, threshold=1e-13)
        assert np.allclose(nat.to_dense(), pr.to_numpy(), atol=1e-10)

    def test_damping_extremes(self, engine):
        g = scale_free(40, seed=2)
        pr = gb.Vector(shape=(40,), dtype=float)
        pagerank(g, pr, damping_factor=0.0, threshold=1e-14)
        # zero damping -> uniform teleport distribution
        assert np.allclose(pr.to_numpy(), 1.0 / 40)

    def test_max_iters_respected(self, engine):
        g = scale_free(40, seed=2)
        pr = gb.Vector(shape=(40,), dtype=float)
        out = pagerank(g, pr, threshold=0.0, max_iters=3)
        assert out is pr  # terminates despite unreachable threshold
