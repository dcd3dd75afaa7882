"""Graph service mode: protocol, admission batching, and the TCP server.

The contract under test, layer by layer:

* **protocol** — eager total validation with the stable error-code
  vocabulary; ``batch_key`` groups same-graph/same-algorithm requests
  while keeping the per-request source out of the key.
* **multi-source fusion** — ``bfs_levels_multi`` / ``sssp_distances_multi``
  rows are *bit-identical* to their solo single-source counterparts:
  fusion must be invisible to clients.
* **admission** — under ``hold()`` a parked volley forms deterministic
  batches; the counters (requests/batches/batched/fused) depend only on
  the admitted mix, never on wall-clock timing.
* **server** — malformed JSON, unknown graphs/algorithms, and oversized
  lines produce structured errors; a client disconnect mid-request is
  absorbed; a blown ``$PYGB_REQUEST_TIMEOUT`` budget comes back as a
  structured ``timeout`` response on a *live* connection, not a dropped
  one.
* **backend reentrancy** — concurrent first touches of the lazily
  memoized representations (matrix transpose, vector frontier reprs)
  build exactly once and share one object.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.algorithms import bfs_levels, sssp_distances
from repro.algorithms.multisource import (
    bfs_levels_multi,
    matrix_row,
    sssp_distances_multi,
)
from repro.exceptions import InvalidValue
from repro.io.generators import erdos_renyi
from repro import service
from repro.service import GraphRegistry, GraphServer, load_manifest
from repro.service.admission import solo_reference
from repro.service.protocol import ALGORITHMS, ProtocolError, parse_request


# ----------------------------------------------------------------------
# fixtures and helpers
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(96, nedges=600, seed=11, weighted=True, dtype=float)


@pytest.fixture(scope="module")
def server(graph):
    registry = GraphRegistry()
    registry.add("er", graph)
    with GraphServer(registry).start() as srv:
        yield srv


@pytest.fixture(scope="module")
def served_engine(server):
    """The engine the server's workers run, as ``health`` reports it: the
    oracles run on it too."""
    return ask(server, [{"op": "health"}])[0]["result"]["engine"]


@pytest.fixture(autouse=True)
def clean_counters():
    service.reset_stats()
    yield
    service.reset_stats()


def ask(srv, payloads, timeout=15.0):
    """Send *payloads* down one connection, return one parsed response
    per payload (requests without explicit sockets pipeline in order)."""
    with socket.create_connection((srv.host, srv.port), timeout=timeout) as sock:
        f = sock.makefile("rwb")
        for doc in payloads:
            f.write(json.dumps(doc).encode() + b"\n")
        f.flush()
        return [json.loads(f.readline()) for _ in payloads]


def parked_volley(srv, requests, timeout=10.0):
    """Submit *requests* from one client thread each while the admission
    queue is held, so they release as deterministic batches; returns the
    responses in request order."""
    results = [None] * len(requests)

    def client(i):
        results[i] = ask(srv, [requests[i]])[0]

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    with srv.admission.hold():
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with srv.admission._cond:
                parked = sum(
                    len(g.pendings) for g in srv.admission._groups.values()
                )
            if parked == len(requests):
                break
            time.sleep(0.005)
        else:
            pytest.fail(f"only {parked}/{len(requests)} requests parked")
    for t in threads:
        t.join(timeout)
    return results


# ----------------------------------------------------------------------
# protocol validation
# ----------------------------------------------------------------------


class TestProtocol:
    def test_run_request_parses(self):
        doc = parse_request(b'{"op": "run", "graph": "g", "algorithm": "bfs", "source": 3, "id": 7}')
        req = doc["request"]
        assert (req.graph, req.algorithm, req.source, req.id) == ("g", "bfs", 3, 7)

    def test_batch_key_ignores_source_but_not_params(self):
        a = parse_request('{"op": "run", "graph": "g", "algorithm": "bfs", "source": 1}')["request"]
        b = parse_request('{"op": "run", "graph": "g", "algorithm": "bfs", "source": 2}')["request"]
        assert a.batch_key == b.batch_key
        c = parse_request(
            '{"op": "run", "graph": "g", "algorithm": "pagerank", "params": {"damping": 0.9}}'
        )["request"]
        d = parse_request(
            '{"op": "run", "graph": "g", "algorithm": "pagerank", "params": {"damping": 0.85}}'
        )["request"]
        assert c.batch_key != d.batch_key

    @pytest.mark.parametrize(
        "line, code",
        [
            (b"\xff\xfe garbage", "bad-json"),
            (b"not json at all", "bad-json"),
            (b"[1, 2, 3]", "bad-request"),
            (b'{"no_op": 1}', "bad-request"),
            (b'{"op": "explode"}', "unknown-op"),
            (b'{"op": "run", "algorithm": "bfs", "source": 0}', "bad-request"),
            (b'{"op": "run", "graph": "g", "algorithm": "dijkstra"}', "unknown-algorithm"),
            (b'{"op": "run", "graph": "g", "algorithm": "bfs"}', "bad-source"),
            (b'{"op": "run", "graph": "g", "algorithm": "bfs", "source": true}', "bad-source"),
            (b'{"op": "run", "graph": "g", "algorithm": "pagerank", "source": 0}', "bad-source"),
            (b'{"op": "run", "graph": "g", "algorithm": "pagerank", "params": {"beta": 1}}', "bad-params"),
            (b'{"op": "run", "graph": "g", "algorithm": "bfs", "source": 0, "id": {}}', "bad-request"),
        ],
    )
    def test_error_codes(self, line, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == code


# ----------------------------------------------------------------------
# the protocol under arbitrary input
# ----------------------------------------------------------------------

#: the stable error codes of ``service/protocol.py``'s module docstring
ERROR_CODES = {
    "line-too-long", "bad-json", "bad-request", "unknown-op", "unknown-graph",
    "unknown-algorithm", "bad-source", "bad-params", "timeout", "cancelled",
    "internal", "shutting-down",
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
#: JSON documents shaped like requests: every field optional, each either
#: plausible or arbitrary
_requests = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(["run", "health", "stats", "graphs", "explode"]) | _json_values,
    "graph": st.sampled_from(["er", ""]) | _json_values,
    "algorithm": st.sampled_from(sorted(ALGORITHMS) + ["dijkstra"]) | _json_values,
    "source": st.integers(-2, 100) | _json_values,
    "params": st.fixed_dictionaries({}, optional={
        "damping": st.floats() | _json_values, "tol": st.floats(), "max_iters": st.integers(),
        "beta": _json_values}) | _json_values,
    "id": _json_values,
})
_lines = st.binary(max_size=64) | (_requests | _json_values).map(
    lambda doc: json.dumps(doc).encode())
_FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _parses_or_refuses(line) -> bool:
    """``parse_request`` returns a request dict or raises a
    ``ProtocolError`` with a documented code — nothing else; True when
    the line was refused."""
    try:
        doc = parse_request(line)
    except ProtocolError as exc:
        assert exc.code in ERROR_CODES, exc.code
        return True
    assert isinstance(doc, dict) and doc["op"] in ("run", "health", "stats", "graphs")
    return False


class TestProtocolFuzz:
    @_FUZZ
    @example(b"[" * 100_000)  # nesting deeper than the JSON parser's stack
    @example(b'{"op": "run", "graph": "er", "algorithm": "pagerank", "params": {"tol": 1e400}}')
    @given(_lines)
    def test_arbitrary_bytes(self, line):
        _parses_or_refuses(line)

    @_FUZZ
    @given(_requests | _json_values)
    def test_arbitrary_json_values(self, doc):
        _parses_or_refuses(json.dumps(doc))

    def test_a_live_connection_answers_every_fuzzed_line(self, server):
        """50 fuzzed lines down one connection: one JSON reply each, the
        connection stays open, and ``protocol_errors`` counts the refused."""
        lines = []

        @settings(max_examples=1, derandomize=True, database=None, deadline=None)
        @given(st.lists(_lines, min_size=50, max_size=50))
        def draw(drawn):
            lines.extend(drawn)

        draw()
        # one request per line: no newline inside, and not blank (the
        # server skips a blank line without a reply); the error reply to
        # an over-deep line must not trip over recovering its id
        lines = [line.replace(b"\n", b" ").replace(b"\r", b" ") for line in lines]
        lines = [b"[" * 100_000] + [line if line.strip() else b"{}" for line in lines]
        refused = sum(_parses_or_refuses(line) for line in lines)
        with socket.create_connection((server.host, server.port), timeout=15) as sock:
            f = sock.makefile("rwb")
            for line in lines:
                f.write(line + b"\n")
                f.write(b'{"op": "health", "id": "sync"}\n')
            f.flush()
            for line in lines:
                reply = json.loads(f.readline())
                assert reply["ok"] or reply["error"]["code"] in ERROR_CODES, (line, reply)
                assert json.loads(f.readline())["id"] == "sync", line
        assert refused > 0
        assert service.stats()["protocol_errors"] == refused


# ----------------------------------------------------------------------
# multi-source fusion exactness
# ----------------------------------------------------------------------


class TestMultiSource:
    @pytest.mark.parametrize("sources", [[0], [5, 17, 0, 33]])
    def test_bfs_rows_bit_identical_to_solo(self, graph, sources):
        fused = bfs_levels_multi(graph, sources)
        for row, src in enumerate(sources):
            solo_idx, solo_vals = bfs_levels(graph, src).to_coo()
            idx, vals = matrix_row(fused, row)
            np.testing.assert_array_equal(idx, solo_idx)
            np.testing.assert_array_equal(vals, solo_vals)

    @pytest.mark.parametrize("sources", [[2], [11, 2, 40]])
    def test_sssp_rows_bit_identical_to_solo(self, graph, sources):
        fused = sssp_distances_multi(graph, sources)
        for row, src in enumerate(sources):
            solo_idx, solo_vals = sssp_distances(graph, src).to_coo()
            idx, vals = matrix_row(fused, row)
            np.testing.assert_array_equal(idx, solo_idx)
            # bit-identity, not approximate equality: fusion performs the
            # same float ops in the same order
            np.testing.assert_array_equal(vals, solo_vals)

    def test_source_validation(self, graph):
        with pytest.raises(InvalidValue):
            bfs_levels_multi(graph, [])
        with pytest.raises(InvalidValue):
            bfs_levels_multi(graph, [graph.nrows])


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_manifest_generators(self, tmp_path):
        manifest = tmp_path / "graphs.json"
        manifest.write_text(json.dumps({
            "graphs": {
                "er": {"generator": "erdos_renyi", "nodes": 32, "nedges": 64, "seed": 1},
                "ring": {"generator": "ring_graph", "nodes": 16},
            }
        }))
        registry = load_manifest(manifest)
        assert registry.names() == ["er", "ring"]
        assert registry.get("ring").nrows == 16
        # prewarm materialised the shared memos
        assert registry.get("er")._store._transpose_cache is not None

    def test_manifest_rejects_unknown_generator(self, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text('{"g": {"generator": "petersen"}}')
        with pytest.raises(InvalidValue):
            load_manifest(manifest)

    def test_manifest_rejects_bad_json(self, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{nope")
        with pytest.raises(InvalidValue):
            load_manifest(manifest)


# ----------------------------------------------------------------------
# the server: happy paths
# ----------------------------------------------------------------------


class TestServer:
    def test_health_and_graphs_endpoints(self, server):
        health, graphs = ask(server, [{"op": "health"}, {"op": "graphs", "id": "g"}])
        assert health["ok"] and health["result"]["status"] == "ok"
        assert health["result"]["graphs"] == ["er"]
        assert "bfs" in health["result"]["algorithms"]
        assert graphs["id"] == "g"
        assert graphs["result"]["graphs"]["er"]["nrows"] == 96

    def test_single_request_matches_solo_reference(self, server, graph, served_engine):
        resp = ask(server, [{"op": "run", "graph": "er", "algorithm": "bfs", "source": 4}])[0]
        assert resp["ok"]
        oracle = solo_reference(graph, "er", "bfs", 4, {}, engine=served_engine)
        assert json.dumps(resp["result"], sort_keys=True) == json.dumps(oracle, sort_keys=True)

    def test_pipelined_requests_answer_in_order(self, server):
        reqs = [
            {"op": "run", "graph": "er", "algorithm": "bfs", "source": s, "id": s}
            for s in (1, 2, 3)
        ]
        for resp, req in zip(ask(server, reqs), reqs):
            assert resp["ok"] and resp["id"] == req["id"]
            assert resp["result"]["source"] == req["source"]

    def test_batched_volley_bit_identical_and_counted(self, server, graph, served_engine):
        reqs = (
            [{"op": "run", "graph": "er", "algorithm": "bfs", "source": s} for s in (0, 7, 21, 40)]
            + [{"op": "run", "graph": "er", "algorithm": "sssp", "source": s} for s in (3, 14)]
            + [{"op": "run", "graph": "er", "algorithm": "triangles"} for _ in range(2)]
        )
        responses = parked_volley(server, reqs)
        assert all(r["ok"] for r in responses)
        for req, resp in zip(reqs, responses):
            oracle = solo_reference(
                graph, "er", req["algorithm"], req.get("source"), {}, engine=served_engine
            )
            assert json.dumps(resp["result"], sort_keys=True) == json.dumps(oracle, sort_keys=True)
        counters = service.stats()
        assert counters["requests"] == 8
        assert counters["batches"] == 3
        assert counters["batched_requests"] == 8
        assert counters["fused_runs"] == 2  # bfs x4 + sssp x2; triangles dedups
        assert counters["fused_sources"] == 6
        assert counters["batch_hist"] == {"1": 0, "2_4": 3, "5_8": 0, "9_plus": 0}

    def test_stats_endpoint_reflects_counters(self, server):
        ask(server, [{"op": "run", "graph": "er", "algorithm": "bfs", "source": 0}])
        counters = ask(server, [{"op": "stats"}])[0]["result"]
        assert counters["requests"] == 1
        assert counters["batches"] == 1
        assert counters["batch_hist"]["1"] == 1


# ----------------------------------------------------------------------
# the server: failure paths
# ----------------------------------------------------------------------


class TestServerFailures:
    def test_malformed_json_gets_structured_error(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is { not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["error"]["code"] == "bad-json"
            # the connection survives a bad line
            f.write(b'{"op": "health"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"]

    def test_unknown_graph(self, server):
        resp = ask(server, [{"op": "run", "graph": "nope", "algorithm": "bfs", "source": 0}])[0]
        assert not resp["ok"] and resp["error"]["code"] == "unknown-graph"
        assert "er" in resp["error"]["message"]

    def test_unknown_algorithm(self, server):
        resp = ask(server, [{"op": "run", "graph": "er", "algorithm": "dijkstra", "source": 0}])[0]
        assert not resp["ok"] and resp["error"]["code"] == "unknown-algorithm"

    def test_source_out_of_range(self, server):
        resp = ask(server, [{"op": "run", "graph": "er", "algorithm": "bfs", "source": 9000}])[0]
        assert not resp["ok"] and resp["error"]["code"] == "bad-source"

    def test_error_response_echoes_request_id(self, server):
        resp = ask(server, [{"op": "run", "graph": "nope", "algorithm": "bfs",
                             "source": 0, "id": "tag-1"}])[0]
        assert not resp["ok"] and resp["id"] == "tag-1"

    @pytest.mark.parametrize("param, value", [
        ("max_iters", "Infinity"), ("max_iters", "NaN"), ("max_iters", "1e400"),
        ("tol", "NaN"), ("damping", "-Infinity"),
    ])
    def test_non_finite_param_is_bad_params_on_a_live_connection(self, server, param, value):
        """Python's json reads ``Infinity`` and ``NaN``: a non-finite
        parameter is a structured ``bad-params`` reply that echoes the id,
        and the connection goes on answering."""
        line = ('{"op": "run", "graph": "er", "algorithm": "pagerank", "id": "nf", '
                f'"params": {{"{param}": {value}}}}}\n')
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(line.encode())
            f.flush()
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["error"]["code"] == "bad-params"
            assert resp["id"] == "nf"
            assert param in resp["error"]["message"]
            f.write(b'{"op": "health"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"]
        assert service.stats()["protocol_errors"] == 1

    def test_oversized_line_rejected_then_closed(self, server, monkeypatch):
        monkeypatch.setenv("PYGB_SERVICE_MAX_LINE", "256")
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b'{"op": "run", "graph": "' + b"x" * 1024 + b'"}\n')
            f = sock.makefile("rb")
            resp = json.loads(f.readline())
            assert not resp["ok"] and resp["error"]["code"] == "line-too-long"
            assert f.readline() == b""  # unframed input drops the connection

    def test_client_disconnect_mid_request_is_absorbed(self, server):
        with server.admission.hold():
            sock = socket.create_connection((server.host, server.port), timeout=10)
            sock.sendall(b'{"op": "run", "graph": "er", "algorithm": "bfs", "source": 0}\n')
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with server.admission._cond:
                    if any(g.pendings for g in server.admission._groups.values()):
                        break
                time.sleep(0.005)
            else:
                pytest.fail("request never reached the admission queue")
            sock.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            counters = service.stats()
            if counters["disconnects"] >= 1:
                break
            time.sleep(0.01)
        assert counters["disconnects"] == 1
        # the batch itself completed: no error, no timeout
        assert counters["errors"] == 0 and counters["timeouts"] == 0
        assert counters["batches"] == 1
        # and the server is still fully alive
        assert ask(server, [{"op": "health"}])[0]["ok"]

    def test_deadline_expiry_is_a_structured_timeout(self, server, monkeypatch):
        monkeypatch.setenv("PYGB_REQUEST_TIMEOUT", "0.000000001")
        with socket.create_connection((server.host, server.port), timeout=15) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"op": "run", "graph": "er", "algorithm": "bfs", "source": 0, "id": 9}\n')
            f.flush()
            resp = json.loads(f.readline())
            # a blown budget is an answer, not a dropped connection
            assert not resp["ok"]
            assert resp["error"]["code"] == "timeout"
            assert resp["id"] == 9
            monkeypatch.delenv("PYGB_REQUEST_TIMEOUT")
            f.write(b'{"op": "run", "graph": "er", "algorithm": "bfs", "source": 0}\n')
            f.flush()
            assert json.loads(f.readline())["ok"]
        assert service.stats()["timeouts"] == 1

    def test_close_fails_parked_requests_with_shutting_down(self, graph):
        registry = GraphRegistry()
        registry.add("er", graph, prewarm=False)
        srv = GraphServer(registry).start()
        responses = []
        hold = srv.admission.hold()
        hold.__enter__()
        t = threading.Thread(
            target=lambda: responses.append(
                ask(srv, [{"op": "run", "graph": "er", "algorithm": "bfs", "source": 0}])[0]
            )
        )
        t.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with srv.admission._cond:
                if any(g.pendings for g in srv.admission._groups.values()):
                    break
            time.sleep(0.005)
        srv.close()
        hold.__exit__(None, None, None)
        t.join(10)
        assert responses and not responses[0]["ok"]
        assert responses[0]["error"]["code"] == "shutting-down"


# ----------------------------------------------------------------------
# backend memo reentrancy (two server threads, one preloaded graph)
# ----------------------------------------------------------------------


def _race(worker, threads=8):
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def run(i):
        try:
            barrier.wait()
            results[i] = worker()
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    ts = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(30)
    assert not errors, errors
    return results


class TestBackendMemoReentrancy:
    def test_matrix_transpose_builds_once_under_race(self, rng):
        rows = rng.integers(0, 200, size=2000)
        cols = rng.integers(0, 200, size=2000)
        m = SparseMatrix.from_coo(200, 200, rows, cols, rng.random(2000))
        results = _race(m.transposed)
        assert all(r is results[0] for r in results)
        assert results[0].transposed() is m  # the back-pointer (weak)

    def test_matrix_degree_memos_build_once_under_race(self, rng):
        rows = rng.integers(0, 200, size=2000)
        cols = rng.integers(0, 200, size=2000)
        m = SparseMatrix.from_coo(200, 200, rows, cols, rng.random(2000))
        lengths = _race(m.row_lengths)
        assert all(r is lengths[0] for r in lengths)
        stats = _race(m.degree_stats)
        assert all(s == stats[0] for s in stats)

    def test_vector_frontier_reprs_build_once_under_race(self, rng):
        idx = np.unique(rng.integers(0, 5000, size=800))
        v = SparseVector.from_sorted(5000, idx, rng.random(idx.size) > 0.3)
        for method in (v.dense_lookup, v.bool_indices, v.true_bitmap):
            results = _race(method)
            first = results[0]
            assert all(
                (r is first)
                or (isinstance(first, tuple) and all(a is b for a, b in zip(r, first)))
                for r in results
            )
