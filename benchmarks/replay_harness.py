#!/usr/bin/env python3
"""Concurrent-client replay harness for the graph service.

Replays a recorded request mix (deterministic from ``--seed``) against a
server from N concurrent client threads, in synchronized volleys so
more requests arrive together than the server has workers and the
compatible ones among them queue up and fuse, then **gates**:

* zero errors — every response is ``ok``;
* at least one fused batch formed (the admission controller actually
  merged concurrent compatible requests into a multi-source run);
* every response is **bit-identical** to a direct in-process solo run of
  the same request through the public single-source API, on the engine
  the server's ``health`` names — batching must be invisible to clients.

Two modes:

* default — boots an in-process server on an ephemeral port and replays
  against it (the admission queue is held per volley, so batch formation
  is fully deterministic);
* ``--connect HOST:PORT`` — replays against an already-running
  ``python -m repro serve`` (the CI service leg).  Gate counters come
  from the live ``stats`` endpoint delta.  The server needs no setting
  for this: there is no batch window, a volley of 8 against 2 workers
  fuses on queueing alone (21-26 of 48 sources on a 2-vCPU box).

The throughput summary lands in ``benchmarks/results/service.json``,
which ``collect_bench.py`` copies into the per-commit ``BENCH_<sha>.json``
timing section (machine-dependent, recorded for trajectory plots, never
gated — the gates above are pass/fail instead).

Usage::

    python benchmarks/replay_harness.py                    # self-boot
    python benchmarks/replay_harness.py --write-manifest graphs.json
    python benchmarks/replay_harness.py --connect 127.0.0.1:8765 \\
        --manifest graphs.json --clients 8 --volleys 6
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(REPO_ROOT / "src"))

os.environ.setdefault("PYGB_CACHE_DIR", str(REPO_ROOT / ".pygb_cache"))

#: the graphs every replay runs against — generator entries only, so the
#: harness process and an external server process build identical graphs
MANIFEST = {
    "graphs": {
        "er": {
            "generator": "erdos_renyi",
            "nodes": 192, "nedges": 1400, "seed": 11, "weighted": True,
        },
        "ring": {"generator": "ring_graph", "nodes": 96, "weighted": True},
    }
}

#: request mix weights: traversals dominate (they exercise fusion),
#: whole-graph algorithms ride along (they exercise dedup)
MIX = ["bfs"] * 5 + ["sssp"] * 3 + ["pagerank", "components"]


def recorded_mix(seed: int, clients: int, volleys: int) -> list[list[dict]]:
    """The recorded request tape: ``volleys`` rounds of one request per
    client, deterministic in *seed* (same tape every run)."""
    rng = random.Random(seed)
    graphs = sorted(MANIFEST["graphs"])
    sizes = {
        name: MANIFEST["graphs"][name].get("nodes", 0) for name in graphs
    }
    tape = []
    for v in range(volleys):
        round_ = []
        for c in range(clients):
            graph = rng.choice(graphs)
            algorithm = rng.choice(MIX)
            req = {"op": "run", "graph": graph, "algorithm": algorithm,
                   "id": f"v{v}c{c}"}
            if algorithm in ("bfs", "sssp"):
                req["source"] = rng.randrange(sizes[graph])
            round_.append(req)
        tape.append(round_)
    return tape


def build_registry():
    from repro.service import GraphRegistry
    from repro.service.registry import _build_entry

    registry = GraphRegistry()
    for name, spec in MANIFEST["graphs"].items():
        registry.add(name, _build_entry(name, spec, REPO_ROOT))
    return registry


class Oracle:
    """Solo-run reference results on the serving engine, computed once
    per distinct request."""

    def __init__(self, registry):
        self.registry = registry
        self.engine: str | None = None  # set from the server's health reply
        self._cache: dict[tuple, str] = {}
        self._lock = threading.Lock()

    def canonical(self, req: dict) -> str:
        from repro.service.admission import solo_reference

        key = (req["graph"], req["algorithm"], req.get("source"))
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = solo_reference(
            self.registry.get(req["graph"]), req["graph"],
            req["algorithm"], req.get("source"), {}, engine=self.engine,
        )
        text = json.dumps(result, sort_keys=True)
        with self._lock:
            self._cache[key] = text
        return text


class Client(threading.Thread):
    """One persistent connection replaying its column of the tape;
    volleys are barrier-synchronized so each round's requests reach the
    admission queue together."""

    def __init__(self, host, port, tape_column, barrier):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.tape = tape_column
        self.barrier = barrier
        self.responses: list[tuple[dict, dict]] = []
        self.error: BaseException | None = None

    def run(self):
        try:
            with socket.create_connection((self.host, self.port), timeout=60) as sock:
                f = sock.makefile("rwb")
                for req in self.tape:
                    self.barrier.wait(timeout=60)
                    f.write(json.dumps(req).encode() + b"\n")
                    f.flush()
                    self.responses.append((req, json.loads(f.readline())))
        except BaseException as exc:  # noqa: BLE001 - reported by main thread
            self.error = exc


def replay(host, port, tape, oracle, hold_admission=None) -> dict:
    oracle.engine = fetch(host, port, "health")["engine"]
    clients = len(tape[0])
    barrier = threading.Barrier(clients + 1)
    columns = [[tape[v][c] for v in range(len(tape))] for c in range(clients)]
    workers = [Client(host, port, col, barrier) for col in columns]
    for w in workers:
        w.start()
    started = time.perf_counter()
    for volley in range(len(tape)):
        if hold_admission is not None:
            # deterministic batching: park the whole volley, then release
            with hold_admission() as admission:
                barrier.wait(timeout=60)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    with admission._cond:
                        parked = sum(
                            len(g.pendings) for g in admission._groups.values()
                        )
                    if parked == clients or any(w.error for w in workers):
                        break
                    time.sleep(0.002)
            # let the released batches drain before holding the queue
            # again — a back-to-back hold would starve the workers
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if all(
                    len(w.responses) > volley or w.error is not None
                    for w in workers
                ):
                    break
                time.sleep(0.002)
        else:
            # external server: the barrier releases the volley at once,
            # and a client reaches the next barrier only with its reply
            # in hand, so rounds cannot overlap
            barrier.wait(timeout=60)
    for w in workers:
        w.join(timeout=120)
    elapsed = time.perf_counter() - started

    for w in workers:
        if w.error is not None:
            raise w.error

    total = mismatches = failures = 0
    for w in workers:
        for req, resp in w.responses:
            total += 1
            if not resp.get("ok"):
                failures += 1
                print(f"FAIL {req}: {resp.get('error')}", file=sys.stderr)
                continue
            if json.dumps(resp["result"], sort_keys=True) != oracle.canonical(req):
                mismatches += 1
                print(f"MISMATCH vs solo run: {req}", file=sys.stderr)
    return {
        "clients": clients,
        "volleys": len(tape),
        "requests": total,
        "failures": failures,
        "mismatches": mismatches,
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(total / elapsed, 3) if elapsed > 0 else 0.0,
    }


def fetch(host, port, op: str) -> dict:
    """The result of one ``health`` / ``stats`` request."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(json.dumps({"op": op}).encode() + b"\n")
        return json.loads(sock.makefile("rb").readline())["result"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--volleys", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="replay against a running server instead of self-booting",
    )
    parser.add_argument(
        "--manifest", default=None,
        help="(--connect) manifest the server was booted with; must match "
        "the harness's built-in graph set for the bit-identity check",
    )
    parser.add_argument(
        "--write-manifest", default=None, metavar="PATH",
        help="write the harness's graph manifest for `repro serve` and exit",
    )
    parser.add_argument(
        "--output", default=None,
        help=f"summary JSON path (default: {RESULTS_DIR / 'service.json'})",
    )
    args = parser.parse_args(argv)

    if args.write_manifest:
        Path(args.write_manifest).write_text(json.dumps(MANIFEST, indent=2) + "\n")
        print(f"wrote {args.write_manifest}")
        return 0

    if args.manifest:
        ours = json.dumps(MANIFEST, sort_keys=True)
        theirs = json.dumps(json.loads(Path(args.manifest).read_text()), sort_keys=True)
        if ours != theirs:
            print("error: server manifest differs from the harness graph set "
                  "(bit-identity check would compare different graphs)",
                  file=sys.stderr)
            return 2

    registry = build_registry()
    oracle = Oracle(registry)
    tape = recorded_mix(args.seed, args.clients, args.volleys)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        host, port = host or "127.0.0.1", int(port)
        before = fetch(host, port, "stats")
        report = replay(host, port, tape, oracle)
        after = fetch(host, port, "stats")
        counters = {
            key: after[key] - before[key]
            for key in ("requests", "batches", "batched_requests",
                        "fused_runs", "fused_sources", "timeouts", "errors")
        }
        server = None
    else:
        from repro import service
        from repro.service import GraphServer

        service.reset_stats()
        server = GraphServer(registry).start()
        try:
            report = replay(
                server.host, server.port, tape, oracle,
                hold_admission=server.admission.hold,
            )
        finally:
            server.close()
        counters = {
            key: value
            for key, value in service.stats().items()
            if key != "batch_hist"
        }
        counters["batch_hist"] = service.stats()["batch_hist"]
    report["counters"] = counters
    report["engine"] = oracle.engine

    out = Path(args.output) if args.output else RESULTS_DIR / "service.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"replayed {report['requests']} requests from {report['clients']} "
          f"clients on {oracle.engine} in {report['elapsed_s']:.2f}s "
          f"({report['throughput_rps']:.0f} req/s)")
    print(f"admission: {counters['batches']} batches, "
          f"{counters['batched_requests']} batched requests, "
          f"{counters['fused_runs']} fused runs over "
          f"{counters['fused_sources']} sources")
    print(f"wrote {out}")

    ok = True
    if report["failures"]:
        print(f"GATE FAILED: {report['failures']} requests errored", file=sys.stderr)
        ok = False
    if report["mismatches"]:
        print(f"GATE FAILED: {report['mismatches']} responses diverged from "
              "their solo runs", file=sys.stderr)
        ok = False
    if counters["fused_runs"] < 1:
        print("GATE FAILED: no fused batch formed — admission control never "
              "merged concurrent compatible requests", file=sys.stderr)
        ok = False
    if counters["errors"]:
        print(f"GATE FAILED: server counted {counters['errors']} execution "
              "errors", file=sys.stderr)
        ok = False
    print("gates: " + ("all passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
