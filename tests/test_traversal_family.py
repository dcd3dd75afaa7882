"""Conformance grid of the fused traversal family (``bfs_multi`` /
``sssp_multi``): one dispatch per k-source batch.

On every engine, every row of a k-source result must be bit-identical to
the single-source listing (``bfs_levels`` / ``sssp_distances``) run from
its source on the same engine — across graph dtypes, batch sizes,
duplicate sources, sinks and unreachable vertices, negative weights, a
negative cycle (the bounded |V| rounds), NaN, and an injected kernel
failure that falls back down the chain.  Served, a native traversal
under a tiny ``PYGB_REQUEST_TIMEOUT`` comes back as a structured
``timeout`` on a live connection.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

import repro as gb
from repro.algorithms import bfs_levels, sssp_distances
from repro.algorithms.multisource import bfs_levels_multi, sssp_distances_multi
from repro.core.context import use_engine
from repro.core.dispatch import CountingEngine, make_engine
from repro.exceptions import DimensionMismatch, IndexOutOfBounds
from repro.io.generators import ring_graph
from repro.testing.faults import fault_injection

N = 40
#: the last vertex has no out-edges, the one before it no in-edges
SINK, UNREACHABLE = N - 1, N - 2
ENGINES = ["interpreted", "pyjit", "cpp"]
DTYPES = [np.bool_, np.int64, np.float32, np.float64]


def _has_cpp() -> bool:
    from repro.jit.cppengine import toolchain_works

    return toolchain_works()


@pytest.fixture(params=ENGINES)
def engine(request):
    if request.param == "cpp" and not _has_cpp():
        pytest.skip("no working C++ toolchain")
    with use_engine(request.param):
        yield request.param


def _graph(dtype, seed=3, negative=False, cycle=False, nan=False) -> gb.Matrix:
    rng = np.random.default_rng(seed)
    keep = rng.random((N, N)) < 0.08
    keep[SINK, :] = False
    keep[:, UNREACHABLE] = False
    keep[UNREACHABLE, 0] = True
    r, c = np.nonzero(keep)
    w = rng.integers(1, 9, r.size).astype(np.float64)
    if negative:
        w[::4] *= -1
        if not cycle:  # negative edges only from lower to higher vertex: a DAG of them
            w = np.where((w < 0) & (r > c), -w, w)
    if cycle:
        r, c, w = np.append(r, [5, 6]), np.append(c, [6, 5]), np.append(w, [-3.0, 1.0])
    if nan:
        w[2] = np.nan
    if dtype == np.bool_:
        w = np.ones(r.size, bool)
    return gb.Matrix((w.astype(dtype), (r, c)), shape=(N, N), dtype=dtype)


def _sources(k: int) -> list[int]:
    # a duplicate, the sink and the unreachable vertex in every larger batch
    base = [0, SINK, 0, UNREACHABLE, 7, 13, 21, 21, 2, 30, 33, 35, 11, 19, 25, 37]
    return base[:k] if k > 1 else [7]


def _bits(x) -> tuple:
    """Pattern, dtype and value bytes of a Vector, a Matrix or an
    ``(indices, values)`` pair — equality is bit-identity (NaN included)."""
    if isinstance(x, gb.Matrix):
        store = x._store
        return store.indptr.tolist(), _bits((store.indices, store.values))
    idx, vals = x.to_coo() if isinstance(x, gb.Vector) else x
    return idx.tolist(), vals.dtype, vals.tobytes()


def _assert_rows(fused: gb.Matrix, solo, graph: gb.Matrix, sources) -> None:
    store = fused._store
    assert store.shape == (len(sources), N)
    for row, src in enumerate(sources):
        lo, hi = store.indptr[row], store.indptr[row + 1]
        got = (store.indices[lo:hi], store.values[lo:hi])
        assert _bits(got) == _bits(solo(graph, src)), (row, src)


@pytest.mark.parametrize("k", [1, 3, 16])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
class TestRowsEqualTheListing:
    def test_bfs(self, engine, dtype, k):
        graph, sources = _graph(dtype), _sources(k)
        _assert_rows(bfs_levels_multi(graph, sources), bfs_levels, graph, sources)

    def test_sssp(self, engine, dtype, k):
        graph, sources = _graph(dtype, negative=dtype != np.bool_), _sources(k)
        _assert_rows(sssp_distances_multi(graph, sources), sssp_distances, graph, sources)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64], ids=lambda d: np.dtype(d).name)
def test_negative_cycle_runs_the_bounded_rounds(engine, dtype):
    """No fixed point: every row keeps falling for |V| rounds, exactly as
    the single-source listing's |V| rounds do."""
    graph, sources = _graph(dtype, negative=True, cycle=True), [0, 5, UNREACHABLE]
    fused = sssp_distances_multi(graph, sources)
    _assert_rows(fused, sssp_distances, graph, sources)
    assert fused[1, 5] < 0


def test_nan_weight(engine):
    """A NaN weight, bit for bit: every row equals the listing on this
    engine, and every engine equals the interpreted one (``GB::Min`` is
    NumPy's ``np.minimum``, NaN included, so an injected ``kernel_fail``
    that reruns a dispatch on another engine cannot move a bit)."""
    graph, sources = _graph(np.float64, nan=True), _sources(16)
    for multi, solo in ((sssp_distances_multi, sssp_distances), (bfs_levels_multi, bfs_levels)):
        fused = multi(graph, sources)
        _assert_rows(fused, solo, graph, sources)
        with use_engine("interpreted"):
            assert _bits(fused) == _bits(multi(graph, sources))


def test_bad_input_raises_the_same_on_every_engine(engine):
    """Checked before any kernel runs: a source out of range, a graph
    that is not square."""
    graph = _graph(np.float64)
    wide = gb.Matrix(([1.0], ([0], [N])), shape=(N, N + 1))
    eng = gb.core.context.current_backend_engine()
    for method in ("bfs_multi", "sssp_multi"):
        with pytest.raises(IndexOutOfBounds, match=r"column index out of range \(limit 40\)"):
            getattr(eng, method)(graph._store, np.array([0, N], np.int64))
        with pytest.raises(DimensionMismatch, match="square graph"):
            getattr(eng, method)(wide._store, np.array([0], np.int64))


@pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
@pytest.mark.parametrize("primary", ["pyjit", "cpp"])  # the stacks with a fallback chain
def test_injected_kernel_fail_falls_back_bit_identically(primary, algorithm):
    """``kernel_fail`` fails the one dispatch on the primary engine; the
    chain reruns it on the next one, with the same bits."""
    if primary == "cpp" and not _has_cpp():
        pytest.skip("no working C++ toolchain")
    graph, sources = _graph(np.float64, negative=True), _sources(16)
    multi = bfs_levels_multi if algorithm == "bfs" else sssp_distances_multi
    with use_engine(primary):
        clean = multi(graph, sources)
        with fault_injection("kernel_fail", rate=1.0, times=1) as faults:
            again = multi(graph, sources)
            assert faults.active()["kernel_fail"]["fired"] == 1
    assert _bits(again) == _bits(clean)


@pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
def test_a_batch_is_one_dispatch(algorithm, no_faults):
    """On cpp a k-source batch is exactly one Engine-interface call —
    no ``mxm`` / ``assign_mat_scalar`` per round."""
    if not _has_cpp():
        pytest.skip("no working C++ toolchain")
    counting = CountingEngine(make_engine("cpp"))
    graph = _graph(np.float64)
    multi = bfs_levels_multi if algorithm == "bfs" else sssp_distances_multi
    with use_engine(counting):
        multi(graph, _sources(16))
    assert counting.counts == {f"{algorithm}_multi": 1}


def test_served_native_traversal_times_out_on_a_live_connection(monkeypatch):
    """A traversal of |V| relaxation rounds on a 20 000-vertex ring,
    served on cpp under a 50 ms budget: the watchdog raises the flag, the
    kernel stops at its next round, and the client gets ``timeout``; the
    same connection then answers ``health``."""
    if not _has_cpp():
        pytest.skip("no working C++ toolchain")
    from repro import guard, service
    from repro.service import AdmissionController, GraphRegistry, GraphServer

    registry = GraphRegistry()
    registry.add("small", ring_graph(64, weighted=True, dtype=float))
    registry.add("ring", ring_graph(20000, weighted=True, dtype=float))
    service.reset_stats()
    admission = AdmissionController(registry, engine="cpp")
    with GraphServer(registry, admission=admission).start() as srv:
        with socket.create_connection((srv.host, srv.port), timeout=60) as sock:
            f = sock.makefile("rwb")

            def ask(doc):
                f.write(json.dumps(doc).encode() + b"\n")
                f.flush()
                return json.loads(f.readline())

            # compiled (or loaded) outside the budget
            assert ask({"op": "run", "graph": "small", "algorithm": "sssp", "source": 0})["ok"]
            monkeypatch.setenv("PYGB_REQUEST_TIMEOUT", "0.05")
            timeouts = guard.stats()["timeouts_total"]
            reply = ask({"op": "run", "graph": "ring", "algorithm": "sssp", "source": 3, "id": 4})
            assert not reply["ok"] and reply["id"] == 4
            assert reply["error"]["code"] == "timeout"
            assert guard.stats()["timeouts"].get("sssp_multi", 0) >= 1
            assert guard.stats()["timeouts_total"] > timeouts
            health = ask({"op": "health"})
            assert health["ok"] and health["result"]["engine"] == "cpp"
    assert service.stats()["timeouts"] == 1
