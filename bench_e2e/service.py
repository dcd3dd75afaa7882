"""``service_mix``: a closed loop against ``python -m repro serve``.

The server runs as a subprocess on loopback with the program's default
engine and settings.  ``min(nproc, 4)`` client threads each hold one
persistent connection and send their next request as soon as the
previous reply arrived — that is how the line protocol is used; there
are no barriers and no sleeps.  The request mix is ``bfs x5, sssp x3,
pagerank, components`` with seeded random sources, one tape per client.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary
from workloads import BASE_SEED, ROOT, base_graph

MIX = ("bfs",) * 5 + ("sssp",) * 3 + ("pagerank", "components")
GRAPH = "er"
TAPE_LENGTH = 4096


class ServiceMix:
    engine = None  # the server picks its own default
    kinds = ("bfs", "sssp", "pagerank", "components")

    def __init__(self, params: dict, seed: int, tmp: Path):
        self.p = params
        self.seed = seed
        self.manifest = tmp / "manifest.json"
        self.clients = min(os.cpu_count() or 1, 4)
        self.server: subprocess.Popen | None = None
        self.conns: list = []
        self.position = [0] * self.clients
        self.server_rss_mb = 0.0

    # -- set-up --------------------------------------------------------
    def build_inputs(self) -> None:
        n, m = self.p["nodes"], self.p["nedges"]
        self.n = n
        self.rows, self.cols, self.weights = base_graph(n, m, weighted=True)
        spec = {"generator": "erdos_renyi", "nodes": n, "nedges": m, "seed": BASE_SEED,
                "weighted": True}
        self.manifest.write_text(json.dumps({"graphs": {GRAPH: spec}}))
        self.tapes = [self._tape(k) for k in range(self.clients)]

    def _tape(self, client: int) -> list[tuple[tuple, bytes]]:
        rng = random.Random(f"{self.seed}/{client}")
        tape = []
        for _ in range(TAPE_LENGTH):
            algorithm = rng.choice(MIX)
            req = {"op": "run", "graph": GRAPH, "algorithm": algorithm}
            source = None
            if algorithm in ("bfs", "sssp"):
                source = req["source"] = rng.randrange(self.n)
            tape.append(((algorithm, source), json.dumps(req).encode() + b"\n"))
        return tape

    def boot(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graphs", str(self.manifest), "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        banner = self.server.stdout.readline()  # "pygb service on HOST:PORT"
        host, _, port = banner.strip().rpartition(" ")[2].rpartition(":")
        if not port.isdigit():
            raise RuntimeError(f"server did not announce its port: {banner!r}")
        self.address = (host, int(port))
        for _ in range(self.clients):
            sock = socket.create_connection(self.address, timeout=60)
            self.conns.append((sock, sock.makefile("rwb")))

    def work_pid(self) -> int:
        return self.server.pid

    def close(self) -> None:
        for sock, f in self.conns:
            f.close()
            sock.close()
        self.conns = []
        if self.server is not None:
            self.server.terminate()
            self.server.wait()
            self.server.stdout.close()
            self.server = None
            # the only child this process ever waited for
            self.server_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.manifest.unlink(missing_ok=True)

    # -- the wire ------------------------------------------------------
    def roundtrip(self, client: int, line: bytes) -> tuple[int, int, bytes]:
        f = self.conns[client][1]
        t0 = time.perf_counter_ns()
        f.write(line)
        f.flush()
        reply = f.readline()
        return t0, time.perf_counter_ns(), reply

    def first_of_each(self, ledger) -> None:
        """One request of every kind: the set-up's first units."""
        for kind in self.kinds:
            key, line = next(e for e in self.tapes[0] if e[0][0] == kind)
            ledger.record(key, *self.roundtrip(0, line))

    def server_stats(self) -> dict:
        with socket.create_connection(self.address, timeout=60) as sock:
            sock.sendall(b'{"op": "stats"}\n')
            return json.loads(sock.makefile("rb").readline())["result"]

    def run_clients(self, ledger, seconds: float, min_units: int = 0) -> float:
        """Closed loop on every connection for *seconds* (and at least
        *min_units* requests); returns the elapsed wall in seconds."""
        done = [0] * self.clients
        start = time.perf_counter()

        def loop(k: int) -> None:
            tape, i = self.tapes[k], self.position[k]
            while time.perf_counter() - start < seconds or sum(done) < min_units:
                key, line = tape[i % TAPE_LENGTH]
                i += 1
                ledger.record(key, *self.roundtrip(k, line))
                done[k] += 1
            self.position[k] = i

        threads = [threading.Thread(target=loop, args=(k,)) for k in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    # -- correctness ---------------------------------------------------
    @staticmethod
    def digest(key, reply: bytes) -> bytes | None:
        """Hash of an ``ok`` reply line (the server encodes canonically,
        and no request carries an id); None for anything else."""
        if not reply.startswith(b'{"ok": true'):
            return None
        return hashlib.blake2b(reply, digest_size=16).digest()

    def verify(self, key, reply: bytes) -> bool:
        import oracle

        algorithm, source = key
        result = json.loads(reply)["result"]
        if result.get("algorithm") != algorithm or result.get("source") != source:
            return False
        args = (self.n, self.rows, self.cols)
        if algorithm == "bfs":
            return oracle.check_bfs(*args, source, result["indices"], result["values"])
        if algorithm == "sssp":
            return oracle.check_sssp(
                *args, self.weights, source, result["indices"], result["values"]
            )
        if algorithm == "pagerank":
            return oracle.check_pagerank(*args, self.weights, result["ranks"])
        return oracle.check_components(*args, result["indices"], result["values"])

    def summarise(self, samples: dict) -> tuple[dict, dict]:
        every = [x for v in samples.values() for x in v]
        metrics = {
            "request_p50_ms": summary.ms(summary.median(every)),
            "request_p95_ms": summary.ms(summary.percentile(every, 95)),
        }
        notes = {
            "request_p50_ms": f"{len(every)} samples",
            "request_p95_ms": f"{summary.beyond(every, 95)} samples beyond",
        }
        return metrics, notes

    # -- per-layer medians, in process (traced run) --------------------
    def layer_medians(self, sample: int) -> dict[str, float]:
        """The same tape three ways, one request at a time, so that each
        step's cost is a difference of medians: (a) ``run_requests``
        called directly, (b) through ``AdmissionController``, (c) over
        TCP to the server subprocess."""
        import repro as gb
        from probe import probed_default_stack
        from repro.core.nonblocking import stats as queue_stats
        from repro.service import AdmissionController, load_manifest
        from repro.service.admission import run_requests
        from repro.service.protocol import encode_response, ok_response, parse_request

        registry = load_manifest(self.manifest)
        graph = registry.get(GRAPH)
        lines = [line for _, line in self.tapes[0][:sample]]
        clock = time.perf_counter_ns

        def execute(req):
            with gb.nonblocking():
                return run_requests(graph, GRAPH, req.algorithm, req.params, [req.source])[0]

        protocol, direct = [], []
        for line in lines + lines:  # first pass warms this thread's engine
            t0 = clock()
            req = parse_request(line)["request"]
            t1 = clock()
            result = execute(req)
            t2 = clock()
            encode_response(ok_response(None, result))
            t3 = clock()
            direct.append(t2 - t1)
            protocol.append((t1 - t0) + (t3 - t2))
        direct, protocol = direct[sample:], protocol[sample:]

        spans: list = []
        probed, engine_ns = [], []
        flushes = queue_stats()["flushes"]
        with gb.use_engine(probed_default_stack(spans)), gb.tracing():
            for line in lines + lines:
                req = parse_request(line)["request"]
                mark = len(spans)
                t0 = clock()
                execute(req)
                probed.append(clock() - t0)
                engine_ns.append(sum(t1 - t0 for *_, t0, t1 in spans[mark:]))
        flushes = queue_stats()["flushes"] - flushes
        probed, engine_ns = probed[sample:], engine_ns[sample:]

        admitted = []
        controller = AdmissionController(registry)
        try:
            for line in lines:
                req = parse_request(line)["request"]
                t0 = clock()
                controller.submit(req).wait()
                admitted.append(clock() - t0)
        finally:
            controller.close()

        wire = []
        for line in lines:
            t0, t1, _ = self.roundtrip(0, line)
            wire.append(t1 - t0)

        a, b, c = (summary.median(x) for x in (direct, admitted, wire))
        return {
            "service.execute_ms": summary.ms(a),
            "service.admission_ms": summary.ms(b - a),
            "service.server_ms": summary.ms(c - b),
            "service.protocol_us": summary.median(protocol) / 1e3,
            "pyjit.engine_ms": summary.ms(summary.median(engine_ns)),
            "nonblocking.flushes": flushes / (2 * len(lines)),
            "obs.trace_overhead_ratio": summary.median(probed) / a,
            "obs.untraced_round_ms": summary.ms(a),
        }


def per_algorithm_ms(samples: dict) -> dict[str, float]:
    """Median request latency per algorithm from ``{key: [ns, ...]}``."""
    by_kind: dict[str, list] = {}
    for (algorithm, _source), values in samples.items():
        by_kind.setdefault(algorithm, []).extend(values)
    return {k: summary.ms(summary.median(v)) for k, v in by_kind.items()}
