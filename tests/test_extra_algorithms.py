"""Integration tests for the extended algorithm suite (connected
components, MIS, k-truss, betweenness centrality) against NetworkX
oracles."""

import numpy as np
import pytest

import repro as gb
from repro.algorithms import (
    betweenness_centrality,
    bc_from_source,
    component_count,
    connected_components,
    edge_support,
    k_truss,
    maximal_independent_set,
)
from repro.io.generators import erdos_renyi, ring_graph

from helpers import within

nx = pytest.importorskip("networkx")


def symmetrize(g: "gb.Matrix") -> "gb.Matrix":
    r, c, _ = g.to_coo()
    keep = r != c
    r, c = r[keep], c[keep]
    return gb.Matrix(
        (np.ones(2 * r.size), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=g.shape, dtype=np.int64,
    )


class TestConnectedComponents:
    @pytest.mark.parametrize("seed,n,m", [(3, 60, 50), (4, 120, 90), (5, 80, 400)])
    def test_component_count_vs_networkx(self, engine, seed, n, m):
        A = symmetrize(erdos_renyi(n, nedges=m, seed=seed))
        nxg = gb.io.to_networkx(A, directed=False)
        assert component_count(A) == nx.number_connected_components(nxg)

    def test_labels_partition_matches(self, engine):
        A = symmetrize(erdos_renyi(70, nedges=60, seed=7))
        labels = connected_components(A).to_numpy()
        nxg = gb.io.to_networkx(A, directed=False)
        for comp in nx.connected_components(nxg):
            comp = sorted(comp)
            assert len({labels[v] for v in comp}) == 1
            assert labels[comp[0]] == comp[0]  # labelled by smallest member

    def test_edgeless_graph(self, engine):
        A = gb.Matrix(shape=(5, 5), dtype=int)
        assert component_count(A) == 5

    def test_single_component_ring(self, engine):
        A = symmetrize(ring_graph(20))
        labels = connected_components(A).to_numpy()
        assert (labels == 0).all()


class TestMIS:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_independent_and_maximal(self, engine, seed):
        A = symmetrize(erdos_renyi(90, seed=seed))
        iset = maximal_independent_set(A, seed=seed)
        members = set(iset.to_coo()[0].tolist())
        nxg = gb.io.to_networkx(A, directed=False)
        for u in members:
            assert not any(v in members for v in nxg.neighbors(u))
        for u in set(range(90)) - members:
            nbrs = set(nxg.neighbors(u))
            assert (nbrs & members) or not nbrs

    def test_edgeless_graph_takes_everyone(self, engine):
        A = gb.Matrix(shape=(6, 6), dtype=int)
        iset = maximal_independent_set(A)
        assert iset.nvals == 6

    def test_complete_graph_takes_exactly_one(self, engine):
        n = 8
        rows, cols = zip(*[(i, j) for i in range(n) for j in range(n) if i != j])
        K = gb.Matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=int)
        iset = maximal_independent_set(K, seed=2)
        assert iset.nvals == 1

    def test_deterministic_under_seed(self, engine):
        A = symmetrize(erdos_renyi(50, seed=9))
        a = maximal_independent_set(A, seed=5)
        b = maximal_independent_set(A, seed=5)
        assert a.isequal(b)


class TestKTruss:
    @pytest.mark.parametrize("seed,k", [(5, 3), (5, 4), (6, 3), (6, 5)])
    def test_vs_networkx(self, engine, seed, k):
        A = symmetrize(erdos_renyi(70, seed=seed))
        nxg = gb.io.to_networkx(A, directed=False)
        mine = k_truss(A, k)
        r, c, _ = mine.to_coo()
        mine_edges = {(min(a, b), max(a, b)) for a, b in zip(r.tolist(), c.tolist())}
        theirs = {
            (min(a, b), max(a, b)) for a, b in nx.k_truss(nxg, k).edges()
        }
        assert mine_edges == theirs

    def test_triangle_survives_3_truss(self, engine):
        tri = symmetrize(
            gb.Matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(4, 4), dtype=int)
        )
        t = k_truss(tri, 3)
        assert t.nvals == 6  # the triangle's six directed half-edges

    def test_tree_has_empty_3_truss(self, engine):
        # trees have no triangles at all
        rows = [0, 0, 1, 1]
        cols = [1, 2, 3, 4]
        tree = symmetrize(
            gb.Matrix((np.ones(4), (rows, cols)), shape=(5, 5), dtype=int)
        )
        assert k_truss(tree, 3).nvals == 0

    def test_k_must_be_at_least_2(self, engine):
        A = gb.Matrix(shape=(2, 2), dtype=int)
        with pytest.raises(ValueError):
            k_truss(A, 1)

    def test_edge_support_counts_triangles(self, engine):
        tri = symmetrize(
            gb.Matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3), dtype=int)
        )
        S = edge_support(tri)
        _, _, vals = S.to_coo()
        assert (vals == 1).all()  # every edge of a single triangle supports 1


class TestBetweenness:
    @pytest.mark.parametrize("seed,n", [(11, 40), (12, 60)])
    def test_vs_networkx_directed(self, engine, seed, n):
        g = erdos_renyi(n, seed=seed)
        mine = betweenness_centrality(g, normalized=True)
        expect = nx.betweenness_centrality(gb.io.to_networkx(g), normalized=True)
        assert np.abs(mine - np.array([expect[i] for i in range(n)])).max() < 1e-9

    def test_edges_of_stored_value_zero_carry_no_path(self, engine):
        # 0→1 and 1→1 store 0, 0→2 stores 1: only 2 is reached from 0
        g = gb.Matrix(([0.0, 0.0, 1.0], ([0, 1, 0], [1, 1, 2])), shape=(3, 3))
        with within(10):
            delta = bc_from_source(g, 0)
        assert delta.tolist() == [0.0, 0.0, 0.0]

    def test_path_graph_middle_dominates(self, engine):
        # 0→1→2→3→4: vertex 2 lies on the most shortest paths
        g = gb.Matrix(
            (np.ones(4), ([0, 1, 2, 3], [1, 2, 3, 4])), shape=(5, 5), dtype=int
        )
        scores = betweenness_centrality(g)
        assert scores[2] == scores.max()
        assert scores[0] == 0 and scores[4] == 0

    def test_single_source_dependency(self, engine):
        g = gb.Matrix(
            (np.ones(4), ([0, 1, 2, 3], [1, 2, 3, 4])), shape=(5, 5), dtype=int
        )
        delta = bc_from_source(g, 0)
        # δ_0: vertex 1 lies on paths to 2,3,4 (3), vertex 2 on 2, vertex 3 on 1
        assert list(delta) == [0.0, 3.0, 2.0, 1.0, 0.0]

    def test_sampled_sources_subset(self, engine):
        g = erdos_renyi(30, seed=13)
        full = betweenness_centrality(g)
        sampled = betweenness_centrality(g, sources=range(30))
        assert np.allclose(full, sampled)
