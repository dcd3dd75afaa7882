"""The work-conserving admission queue (``service/admission.py``).

No test here reads a clock.  Workers are blocked and released through a
stub ``run_requests`` (:class:`Gate`): every batch a worker starts is
logged and then waits for a permit, so "all workers busy" and "the next
batch that runs" are states the test puts the queue in, not timings it
hopes for.

* idle — a free worker takes a lone request at once: a batch of 1, no
  dispatcher thread, no timed wait anywhere in the admission path;
* busy — what queued while every worker was occupied runs oldest key
  first, a key's requests as one fused batch;
* cap and fairness — a batch takes at most ``max_batch``; the remainder
  goes behind the keys already waiting;
* ``hold()`` / ``close()`` — parking, nesting, shutdown;
* a batch that raises answers ``internal`` and costs no worker;
* a stress run without ``hold()`` — every response byte-identical to
  ``solo_reference``, every request in exactly one batch;
* the ``latency`` block of the live ``stats`` op.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time
import types

import pytest

from repro import service
from repro.io.generators import erdos_renyi
from repro.service import AdmissionController, GraphRegistry, GraphServer
from repro.service import admission
from repro.service.admission import solo_reference
from repro.service.protocol import (
    ProtocolError,
    encode_response,
    ok_response,
    parse_request,
)

WAIT = 20.0  # bound on every blocking call: a hang fails, it does not stall


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(96, nedges=600, seed=11, weighted=True, dtype=float)


@pytest.fixture(scope="module")
def registry(graph):
    reg = GraphRegistry()
    reg.add("er", graph)
    return reg


@pytest.fixture(autouse=True)
def clean_counters():
    service.reset_stats()
    yield
    service.reset_stats()


def req(algorithm, source=None, **extra):
    doc = {"op": "run", "graph": "er", "algorithm": algorithm, **extra}
    if source is not None:
        doc["source"] = source
    return parse_request(json.dumps(doc))["request"]


def ask(srv, doc) -> dict:
    """One request, one parsed response, over a fresh connection."""
    with socket.create_connection((srv.host, srv.port), timeout=WAIT) as sock:
        f = sock.makefile("rwb")
        f.write(json.dumps(doc).encode() + b"\n")
        f.flush()
        return json.loads(f.readline())


class Boom(BaseException):
    """Not an ``Exception``: what a worker must still survive."""


class Gate:
    """Stands in for ``run_requests``: logs the batch, tells the test it
    started, then blocks until the test hands out a permit; a batch of
    an algorithm named in *fail* then raises that exception."""

    def __init__(self):
        self.log: list[tuple[str, list]] = []
        self.threads: list[str] = []
        self.fail: dict[str, BaseException] = {}
        self._started = threading.Semaphore(0)
        self._permits = threading.Semaphore(0)

    def __call__(self, graph, graph_name, algorithm, params, sources):
        self.log.append((algorithm, list(sources)))
        self.threads.append(threading.current_thread().name)
        self._started.release()
        assert self._permits.acquire(timeout=WAIT), "test never released this batch"
        if algorithm in self.fail:
            raise self.fail[algorithm]
        return [{"algorithm": algorithm, "source": s} for s in sources]

    def started(self, n=1):
        """Block until *n* more batches have entered execution."""
        for _ in range(n):
            assert self._started.acquire(timeout=WAIT), "a batch never started"

    def finish(self, n=1):
        """Let *n* blocked (or future) batches complete."""
        for _ in range(n):
            self._permits.release()


@pytest.fixture
def gate(monkeypatch):
    g = Gate()
    monkeypatch.setattr(admission, "run_requests", g)
    return g


@pytest.fixture
def controller(registry):
    made = []

    def make(**kwargs):
        made.append(AdmissionController(registry, **kwargs))
        return made[-1]

    yield make
    for c in made:
        c.close()


def results(pendings):
    out = [p.wait(WAIT) for p in pendings]
    assert all(p.event.is_set() for p in pendings), "a request was never answered"
    return out


def occupy(ctl, gate, workers):
    """Block every worker on its own single-request batch (distinct keys,
    so no two of them fuse); returns the blockers' pending slots."""
    blockers = [
        ctl.submit(req("pagerank", params={"max_iters": k + 1})) for k in range(workers)
    ]
    gate.started(workers)
    return blockers


# ----------------------------------------------------------------------
# (a) idle
# ----------------------------------------------------------------------


class TestIdle:
    def test_lone_request_is_a_batch_of_one_with_no_timer(self, registry, gate, monkeypatch):
        timeouts = []

        class SpyCondition(threading.Condition):
            def wait(self, timeout=None):
                timeouts.append(timeout)
                return super().wait(timeout)

        # admission.py reaches threading only through its module global
        shim = types.SimpleNamespace(
            Condition=SpyCondition, Thread=threading.Thread, Event=threading.Event
        )
        monkeypatch.setattr(admission, "threading", shim)
        ctl = AdmissionController(registry, workers=2)
        try:
            gate.finish()
            (response,) = results([ctl.submit(req("bfs", 3))])
            names = {t.name for t in threading.enumerate()}
        finally:
            ctl.close()
        assert response["ok"] and response["result"]["source"] == 3
        assert gate.log == [("bfs", [3])]
        assert timeouts and set(timeouts) == {None}  # waits are untimed, all of them
        assert "pygb-serve-dispatch" not in names
        stats = service.stats()
        assert (stats["requests"], stats["batches"], stats["fused_sources"]) == (1, 1, 0)
        assert stats["batch_hist"] == {"1": 1, "2_4": 0, "5_8": 0, "9_plus": 0}

    def test_only_worker_threads(self, registry):
        before = set(threading.enumerate())
        ctl = AdmissionController(registry, workers=3)
        try:
            mine = set(threading.enumerate()) - before
            assert sorted(t.name for t in mine) == [f"pygb-serve_{k}" for k in range(3)]
        finally:
            ctl.close()
        assert not any(t.is_alive() for t in mine)

    def test_no_window_left(self):
        assert not hasattr(admission, "batch_window")
        with pytest.raises(TypeError):
            AdmissionController(GraphRegistry(), window=0.0)


# ----------------------------------------------------------------------
# (b) busy: what queued while the workers were occupied
# ----------------------------------------------------------------------


class TestBusy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_queued_requests_fuse_oldest_key_first(self, controller, gate, workers):
        ctl = controller(workers=workers)
        blockers = occupy(ctl, gate, workers)
        same = [ctl.submit(req("bfs", s)) for s in (5, 1, 9)]
        other = [ctl.submit(req("sssp", s)) for s in (2, 7)]
        assert len(gate.log) == workers  # nothing else has started
        gate.finish()  # one worker frees up and takes the oldest key, whole
        gate.started()
        assert gate.log[workers] == ("bfs", [5, 1, 9])
        gate.finish()
        gate.started()
        assert gate.log[workers + 1] == ("sssp", [2, 7])
        gate.finish(workers + 1)
        answers = results(blockers + same + other)
        assert all(a["ok"] for a in answers)
        assert [a["result"]["source"] for a in answers[workers:]] == [5, 1, 9, 2, 7]
        stats = service.stats()
        assert stats["requests"] == workers + 5
        assert stats["batches"] == workers + 2
        assert stats["batched_requests"] == 5
        assert (stats["fused_runs"], stats["fused_sources"]) == (2, 5)
        assert stats["batch_hist"] == {"1": workers, "2_4": 2, "5_8": 0, "9_plus": 0}

    def test_whole_graph_requests_share_one_run(self, controller, gate):
        ctl = controller(workers=1)
        blockers = occupy(ctl, gate, 1)
        waiting = [ctl.submit(req("components")) for _ in range(3)]
        gate.finish(2)
        answers = results(blockers + waiting)
        assert gate.log[1] == ("components", [None, None, None])
        assert all(a["ok"] for a in answers)
        stats = service.stats()
        assert (stats["batches"], stats["batched_requests"], stats["fused_runs"]) == (2, 3, 0)


# ----------------------------------------------------------------------
# (c) cap and fairness
# ----------------------------------------------------------------------


class TestCapAndFairness:
    def test_remainder_goes_behind_waiting_keys(self, controller, gate):
        ctl = controller(workers=1, max_batch=4)
        blockers = occupy(ctl, gate, 1)
        hot = [ctl.submit(req("bfs", s)) for s in range(10)]
        late = [ctl.submit(req("sssp", 50))]
        gate.finish(5)
        answers = results(blockers + hot + late)
        assert all(a["ok"] for a in answers)
        assert gate.log[1:] == [
            ("bfs", [0, 1, 2, 3]),
            ("sssp", [50]),
            ("bfs", [4, 5, 6, 7]),
            ("bfs", [8, 9]),
        ]
        assert [a["result"]["source"] for a in answers[1:11]] == list(range(10))

    def test_cap_comes_from_the_environment(self, controller, gate):
        """The cap is the constructor's ``max_batch`` (``DEFAULT_MAX_BATCH``
        when the caller names none)."""
        ctl = controller(workers=1, max_batch=2)
        blockers = occupy(ctl, gate, 1)
        queued = [ctl.submit(req("bfs", s)) for s in range(3)]
        gate.finish(3)
        results(blockers + queued)
        assert gate.log[1:] == [("bfs", [0, 1]), ("bfs", [2])]


# ----------------------------------------------------------------------
# (d) hold()
# ----------------------------------------------------------------------


class TestHold:
    def test_hold_parks_idle_workers_and_nests(self, controller, gate):
        ctl = controller(workers=2)
        gate.finish(10)  # nothing blocks inside the stub in this test
        with ctl.hold():
            with ctl.hold():
                first = ctl.submit(req("bfs", 1))
            assert ctl._held == 1 and not first.event.is_set()
            rest = [ctl.submit(req("bfs", s)) for s in (2, 3)]
            other = ctl.submit(req("sssp", 4))
            assert gate.log == []  # two idle workers, nothing dispatched
        answers = results([first, *rest, other])
        assert all(a["ok"] for a in answers)
        assert sorted(gate.log) == [("bfs", [1, 2, 3]), ("sssp", [4])]
        stats = service.stats()
        assert (stats["requests"], stats["batches"], stats["fused_sources"]) == (4, 2, 3)

    def test_hold_released_by_an_exception(self, controller, gate):
        ctl = controller(workers=1)
        gate.finish()
        with pytest.raises(KeyError):
            with ctl.hold():
                pending = ctl.submit(req("bfs", 1))
                raise KeyError("the block failed")
        assert results([pending])[0]["ok"]


# ----------------------------------------------------------------------
# (e) close()
# ----------------------------------------------------------------------


class TestClose:
    def test_close_fails_parked_requests_and_joins_workers(self, registry, gate):
        ctl = AdmissionController(registry, workers=2)
        with ctl.hold():
            parked = [ctl.submit(req("bfs", 1)), ctl.submit(req("pagerank"))]
            ctl.close()
            answers = results(parked)
        assert [a["error"]["code"] for a in answers] == ["shutting-down"] * 2
        assert gate.log == []
        assert not any(w.is_alive() for w in ctl._workers)
        with pytest.raises(ProtocolError) as exc:
            ctl.submit(req("bfs", 1))
        assert exc.value.code == "shutting-down"
        ctl.close()  # idempotent

    def test_close_waits_for_the_running_batch(self, registry, gate):
        ctl = AdmissionController(registry, workers=1)
        (running,) = occupy(ctl, gate, 1)
        queued = ctl.submit(req("bfs", 2))
        closer = threading.Thread(target=ctl.close)
        closer.start()
        assert results([queued])[0]["error"]["code"] == "shutting-down"
        assert not running.event.is_set()  # still executing: close() is waiting
        gate.finish()
        closer.join(WAIT)
        assert not closer.is_alive()
        assert results([running])[0]["ok"]


# ----------------------------------------------------------------------
# (f) a batch that raises
# ----------------------------------------------------------------------


class TestFailingBatch:
    @pytest.mark.parametrize("error", [RuntimeError("kernel fell over"), Boom("worse")])
    def test_internal_error_and_the_worker_lives(self, controller, gate, error):
        gate.fail = {"sssp": error}
        ctl = controller(workers=1)
        gate.finish(2)
        bad = results([ctl.submit(req("sssp", 1))])[0]
        good = results([ctl.submit(req("bfs", 1))])[0]
        assert not bad["ok"] and bad["error"]["code"] == "internal"
        assert good["ok"]
        assert len(set(gate.threads)) == 1  # the same worker served both
        assert ctl._workers[0].is_alive()
        stats = service.stats()
        assert (stats["errors"], stats["batches"]) == (1, 2)


# ----------------------------------------------------------------------
# (g) no hold, real algorithms, many clients
# ----------------------------------------------------------------------


def _stress(registry, graph, clients, each, **controller):
    """*clients* threads submit *each* interleaved requests of the service
    mix with no ``hold()``; every response must be byte-identical to the
    solo reference on the controller's engine, and every request must run
    in exactly one batch."""
    mix = ("bfs",) * 5 + ("sssp",) * 3 + ("pagerank", "components")
    solo: dict[tuple, dict] = {}

    def tape(k):
        rng = random.Random(k)
        for i in range(each):
            algorithm = rng.choice(mix)
            source = rng.randrange(12) if algorithm in ("bfs", "sssp") else None
            yield f"{k}/{i}", algorithm, source

    ctl = AdmissionController(registry, **controller)
    for k in range(clients):
        for _, algorithm, source in tape(k):
            if (algorithm, source) not in solo:
                solo[algorithm, source] = solo_reference(
                    graph, "er", algorithm, source, {}, engine=ctl.engine
                )
    wrong, errors = [], []

    def client(k):
        try:
            for rid, algorithm, source in tape(k):
                response = ctl.submit(req(algorithm, source, id=rid)).wait(WAIT)
                expected = encode_response(ok_response(rid, solo[algorithm, source]))
                if encode_response(response) != expected:
                    wrong.append((rid, algorithm, source))
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings between submit and dequeue
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        ctl.close()
    assert not errors, errors
    assert not wrong, wrong[:5]
    stats = service.stats()
    assert stats["requests"] == clients * each
    # every request ran in exactly one batch
    assert stats["batch_hist"]["1"] + stats["batched_requests"] == clients * each
    assert sum(stats["batch_hist"].values()) == stats["batches"]
    assert (stats["errors"], stats["timeouts"]) == (0, 0)
    latency = ctl.latency()
    assert sum(row["queue_wait_ms"]["n"] for row in latency.values()) == clients * each
    assert sum(row["execute_ms"]["n"] for row in latency.values()) == clients * each
    return ctl.engine


def test_stress_every_response_equals_solo_reference(registry, graph):
    _stress(registry, graph, clients=8, each=50, workers=2, engine="pyjit")


@pytest.mark.cpp
@pytest.mark.parametrize("workers", [2, 4])
def test_cpp_workers_share_one_graph_bit_identically(registry, graph, no_faults, workers):
    """Concurrent cpp workers over one resident registry graph (its packs
    and memoised transpose shared by every thread): each response is the
    cpp solo reference, byte for byte.  Without injected faults: a kernel
    fault on cpp reruns that dispatch on pyjit, whose PageRank sums differ
    from cpp's in the last bits."""
    from repro.jit.cppengine import toolchain_works

    if not toolchain_works():
        pytest.skip("no working C++ toolchain")
    assert _stress(registry, graph, clients=6, each=30, workers=workers, engine="cpp") == "cpp"


@pytest.mark.cpp
def test_serve_engine_pays_one_probe_compile(monkeypatch):
    """Choosing the engine and the cpp workers' OpenMP question share one
    probe compile: a passing ``-fopenmp`` probe settles the toolchain."""
    from repro.jit import cppengine

    if not cppengine.openmp_available():
        pytest.skip("needs a compiler that accepts -fopenmp")
    monkeypatch.delenv("PYGB_BACKEND", raising=False)
    monkeypatch.setattr(cppengine, "_OPENMP_PROBES", {})
    monkeypatch.setattr(cppengine, "_TOOLCHAIN_PROBES", {})
    compiles = []
    for probe in ("_probe_openmp", "_probe_toolchain"):
        real = getattr(cppengine, probe)
        monkeypatch.setattr(
            cppengine, probe, lambda cxx, real=real, probe=probe: compiles.append(probe) or real(cxx)
        )
    assert admission.serve_engine() == "cpp"
    ctl = AdmissionController(GraphRegistry(), workers=2)
    try:
        assert ctl.engine == "cpp"
        for engine in ctl.engines:
            engine.parallel_enabled()  # what each worker asks at its first dispatch
    finally:
        ctl.close()
    assert compiles == ["_probe_openmp"]


# ----------------------------------------------------------------------
# the latency block
# ----------------------------------------------------------------------


class TestLatencyBlock:
    def test_histograms_count_every_request_per_algorithm(self, registry, gate):
        ctl = AdmissionController(registry, workers=1)
        blockers = occupy(ctl, gate, 1)
        queued = [ctl.submit(req("bfs", s)) for s in (1, 2, 3)]
        gate.finish(2)
        results(blockers + queued)
        ctl.close()  # joins the worker: every sample is in
        latency = ctl.latency()
        assert sorted(latency) == ["bfs", "pagerank"]
        for algorithm, n in (("bfs", 3), ("pagerank", 1)):
            for name in ("queue_wait_ms", "execute_ms"):
                row = latency[algorithm][name]
                assert sorted(row) == ["n", "p50", "p95", "p99"]
                assert row["n"] == n
                assert 0 <= row["p50"] <= row["p95"] <= row["p99"]

    def test_stats_op_carries_latency_and_flat_counters_do_not(self, registry):
        with GraphServer(registry).start() as srv:
            run = {"op": "run", "graph": "er", "algorithm": "bfs", "source": 0}
            assert ask(srv, run)["ok"]
            for _ in range(400):  # the sample lands just after the reply
                reply = ask(srv, {"op": "stats"})["result"]
                if reply["latency"].get("bfs", {}).get("execute_ms", {}).get("n"):
                    break
                time.sleep(0.005)
            assert reply["latency"]["bfs"]["queue_wait_ms"]["n"] == 1
            assert reply["latency"]["bfs"]["execute_ms"]["p50"] > 0
            flat = service.stats()
            assert "latency" not in flat and "jit" not in flat
            assert {k: v for k, v in reply.items() if k not in ("latency", "jit")} == flat
            # the kernel cache, nested: a top-level int would read as a request counter
            assert sorted(reply["jit"]) == ["catalog_hits", "compiles", "disk_hits", "memory_hits"]

    def test_served_batches_reach_the_stats_aggregator(self, registry, gate):
        import repro as gb
        from repro.obs.stats import render_stats

        with gb.tracing() as tr:
            ctl = AdmissionController(registry, workers=1)
            gate.finish(2)
            results([ctl.submit(req("bfs", 1))])
            results([ctl.submit(req("sssp", 1))])
            ctl.close()
        snap = tr.stats.snapshot()
        assert sum(snap["service_latency"]["execute"]) == 2
        assert sum(snap["service_latency"]["queue_wait"]) == 2
        assert "queue wait p50" in render_stats(snap)
