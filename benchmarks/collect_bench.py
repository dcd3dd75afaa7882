#!/usr/bin/env python3
"""Normalize benchmark output into a per-commit ``BENCH_<sha>.json``.

The perf-trajectory CI leg runs this after the timing benchmarks.  Two
kinds of metrics land in the file:

* **tracked** — deterministic dispatch/engine-call counts and layer
  counters, measured in-process here (CountingEngine, no timing).
  These are machine-independent, so ``check_regression.py`` gates them
  hard against ``benchmarks/bench_baseline.json``;
* **timing** — wall-clock medians copied from
  ``benchmarks/results/{overhead,cold_start,service,service_batching}.json``
  when those files exist (i.e. when ``bench_overhead.py`` /
  ``replay_harness.py`` / ``bench_service.py`` ran first).
  Machine-dependent, recorded for trajectory plots, never gated.

Usage::

    python benchmarks/bench_overhead.py        # optional, for timings
    python benchmarks/collect_bench.py [--sha abc1234] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

os.environ.setdefault("PYGB_CACHE_DIR", str(REPO_ROOT / ".pygb_cache"))

import repro as gb  # noqa: E402
from repro import tiling  # noqa: E402
from repro.algorithms import pagerank  # noqa: E402
from repro.core.dispatch import CountingEngine, make_engine  # noqa: E402
from repro.io.generators import erdos_renyi  # noqa: E402

PAGERANK_N = 256
RMAT_SCALE = 9
RMAT_EDGE_FACTOR = 16


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _count(fn) -> int:
    eng = CountingEngine(make_engine("pyjit"))
    with gb.use_engine(eng):
        fn()
    return eng.total


def _pagerank_metrics() -> dict:
    g = erdos_renyi(PAGERANK_N, seed=7, weighted=True, dtype=float)

    def run():
        pr = gb.Vector(shape=(PAGERANK_N,), dtype=float)
        pagerank(g, pr, threshold=1.0e-8)

    return {"pagerank.dispatches.blocking": _count(run)}


def _schedule_metrics() -> dict:
    """Direction-optimization counters for BFS on a power-law R-MAT
    graph (the schedule layer's headline workload).

    Direction is a function of the operands, so the examined edge counts
    and switch count are fully deterministic and gate hard.
    Two invariants are asserted rather than tracked: every mode yields
    bit-identical levels, and the auto schedule examines at least 2x
    fewer edges than fixed-push (the direction-optimization payoff).
    """
    from repro import schedule as S
    from repro.algorithms import bfs_levels
    from repro.io.generators import rmat

    g = rmat(RMAT_SCALE, edge_factor=RMAT_EDGE_FACTOR, seed=42)
    levels, counters = {}, {}
    for mode in ("fixed", "push", "pull", "auto"):
        S.reset_stats()
        levels[mode] = bfs_levels(g, 0, schedule=mode)._store.to_dict()
        counters[mode] = S.stats()

    for mode in ("push", "pull", "auto"):
        assert levels[mode] == levels["fixed"], (
            f"schedule mode {mode!r} diverged from the dense BFS levels"
        )
    auto_edges = counters["auto"]["edges_total"]
    push_edges = counters["push"]["edges_total"]
    assert auto_edges * 2 <= push_edges, (
        f"direction-optimized BFS examined {auto_edges} edges, expected "
        f"at least 2x fewer than fixed-push ({push_edges})"
    )
    return {
        "bfs_rmat.edges.dense": counters["fixed"]["edges_total"],
        "bfs_rmat.edges.push": push_edges,
        "bfs_rmat.edges.pull": counters["pull"]["edges_total"],
        "bfs_rmat.edges.auto": auto_edges,
        "bfs_rmat.switches.auto": counters["auto"]["switches"],
        "bfs_rmat.fallbacks.auto": counters["auto"]["fallbacks"],
    }


def _tiled_metrics() -> dict:
    """Deterministic partition counters for the tiled data plane.

    Tile and worker counts are forced through ``gb.tiled`` (not read
    from the machine) and the direction is pinned dense (``auto`` runs
    PageRank's ``vxm`` as a push, which forwards past the tiler — this
    leg measures the fan-out), so partitioned-dispatch, merge, and
    tile-task counts depend only on the program — they gate hard.
    Two invariants are asserted rather than tracked: the tiled PageRank
    is bit-identical to the monolithic run, and ``tiles=1`` is a clean
    ablation that never creates a tile or fans out a dispatch.
    """
    import numpy as np

    g = erdos_renyi(PAGERANK_N, seed=7, weighted=True, dtype=float)

    def run():
        pr = gb.Vector(shape=(PAGERANK_N,), dtype=float)
        pagerank(g, pr, threshold=1.0e-8, schedule="dense")
        return pr.to_numpy()

    with gb.tiled(tiles=1):
        mono = run()

    tiling.reset_stats()
    with gb.tiled(tiles=4, workers=2):
        tiled_result = run()
    counters = tiling.stats()
    assert np.array_equal(mono, tiled_result), (
        "tiled PageRank diverged from the monolithic run"
    )

    tiling.reset_stats()
    with gb.tiled(tiles=1):
        ablation = run()
    ablation_counters = tiling.stats()
    assert np.array_equal(mono, ablation), "tiles=1 ablation diverged"
    assert ablation_counters["tiles_created"] == 0, (
        "tiles=1 ablation created tiles"
    )
    assert ablation_counters["partitioned_total"] == 0, (
        "tiles=1 ablation partitioned a dispatch"
    )

    return {
        "tiled.pagerank.tiles_created": counters["tiles_created"],
        "tiled.pagerank.partitioned_dispatches": counters["partitioned_total"],
        "tiled.pagerank.forwarded_dispatches": counters["forwarded_total"],
        "tiled.pagerank.tile_tasks": counters["tile_tasks"],
        "tiled.pagerank.merges": counters["merges_total"],
    }


def _guard_metrics() -> dict:
    """Deterministic guardrail counters: inject exactly one tile-worker
    crash into a tiled PageRank and count the degradation ladder's
    response.  ``times=1`` makes the fault accumulator fire on the first
    tile task only, so the ladder must degrade that one fan-out to a
    monolithic re-execution (degrades=1) and quarantine tiling for the
    crashed op signature (quarantines=1) — counts that depend only on
    the program, never the machine; the direction is pinned dense for
    the same reason as in the tiled leg.  Bit-identity with the fault-free
    run is an invariant, asserted rather than tracked, so a ladder that
    returns partial tile results can never publish a green point.
    """
    import warnings

    import numpy as np

    from repro import guard
    from repro.testing.faults import FAULTS

    g = erdos_renyi(PAGERANK_N, seed=7, weighted=True, dtype=float)

    def run():
        pr = gb.Vector(shape=(PAGERANK_N,), dtype=float)
        pagerank(g, pr, threshold=1.0e-8, schedule="dense")
        return pr.to_numpy()

    with gb.tiled(tiles=1):
        clean = run()

    guard.reset_stats()
    guard.tiling_health().reset()
    FAULTS.install("worker_crash", rate=1.0, times=1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degrade/quarantine warnings
            with gb.tiled(tiles=4, workers=2):
                survived = run()
        counters = guard.stats()
    finally:
        FAULTS.clear()
        guard.tiling_health().reset()
        guard.reset_stats()

    assert np.array_equal(clean, survived), (
        "PageRank under an injected tile-worker crash diverged from the "
        "fault-free run"
    )
    assert counters["timeouts_total"] == 0 and counters["cancels_total"] == 0, (
        "worker-crash injection tripped unrelated guard counters"
    )
    return {
        "guard.pagerank.degrades": counters["degrades_total"],
        "guard.pagerank.quarantines": counters["quarantines_total"],
    }


def _catalog_metrics() -> dict:
    """Deterministic AOT-catalog counters: bake a ``.py``-flavour pack
    (no toolchain needed, so the numbers are machine-independent), then
    run PageRank in a cold child process — fresh ``PYGB_CACHE_DIR`` —
    once under ``PYGB_CATALOG`` and once without.

    The catalog run's compile and miss counts must be **zero** (baseline
    0 gates them hard: any new kernel the enumeration misses fails the
    trajectory leg, the cold-start analog of precompile's drift guard)
    and its hit count is the exact number of distinct specs the workload
    dispatches.  Bit-identity between the two runs is an invariant,
    asserted rather than tracked."""
    import hashlib
    import subprocess
    import sys
    import tempfile

    from repro.jit.catalog import bake_catalog

    pack = tempfile.mkdtemp(prefix="pygb-bench-pack-")
    report = bake_catalog(pack, include_cpp=False)
    assert report["failed"] == [], f"pack bake failed: {report['failed'][:3]}"

    child = (
        "import hashlib, json, sys\n"
        "import repro as gb\n"
        "from repro.algorithms import pagerank\n"
        "from repro.io.generators import erdos_renyi\n"
        "from repro.jit.cache import cache_statistics\n"
        f"n = {PAGERANK_N}\n"
        "with gb.use_engine('pyjit'), gb.tiled(tiles=1):\n"
        "    g = erdos_renyi(n, seed=7, weighted=True, dtype=float)\n"
        "    pr = gb.Vector(shape=(n,), dtype=float)\n"
        "    pagerank(g, pr, threshold=1.0e-8)\n"
        "    data = pr.to_numpy().tobytes()\n"
        "snap = cache_statistics()\n"
        "json.dump({'digest': hashlib.sha256(data).hexdigest(),\n"
        "           'compiles': snap['compiles'],\n"
        "           'catalog_hits': snap['catalog_hits'],\n"
        "           'catalog_misses': snap['catalog_misses']}, sys.stdout)\n"
    )

    def run(with_pack: bool) -> dict:
        env = {**os.environ,
               "PYGB_CACHE_DIR": tempfile.mkdtemp(prefix="pygb-bench-cold-"),
               "PYTHONPATH": str(REPO_ROOT / "src")}
        if with_pack:
            env["PYGB_CATALOG"] = pack
        else:
            env.pop("PYGB_CATALOG", None)
        out = subprocess.run([sys.executable, "-c", child],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(out.stdout)

    catalog = run(with_pack=True)
    plain = run(with_pack=False)
    assert catalog["digest"] == plain["digest"], (
        "catalog-served PageRank diverged from the JIT-compiled run"
    )
    assert catalog["catalog_hits"] > 0, "catalog run served no catalog hits"
    return {
        "catalog.pagerank.compiles": catalog["compiles"],
        "catalog.pagerank.catalog_misses": catalog["catalog_misses"],
        "catalog.pagerank.catalog_hits": catalog["catalog_hits"],
    }


def _service_metrics() -> dict:
    """Deterministic admission-control counters for the graph service.

    A fixed 12-request mix (6 bfs sources + 4 sssp sources + 2 pagerank)
    is parked in a held admission queue and released as one deterministic
    wave, so the batch structure depends only on the mix: one fused
    6-source bfs batch, one fused 4-source sssp batch, one deduplicated
    pagerank batch.  Counts gate hard — ``batches`` grows if fusion stops
    merging, ``solo_batches`` leaves zero if requests start executing
    individually, and ``errors``/``timeouts`` leave zero if any admitted
    request fails.  Bit-identity of every batched response with its
    direct solo run is an invariant, asserted rather than tracked.
    """
    import json as _json

    from repro import service
    from repro.service import AdmissionController, GraphRegistry
    from repro.service.admission import solo_reference
    from repro.service.protocol import parse_request

    graph = erdos_renyi(PAGERANK_N, seed=7, weighted=True, dtype=float)
    registry = GraphRegistry()
    registry.add("er", graph)

    reqs = (
        [{"op": "run", "graph": "er", "algorithm": "bfs", "source": s}
         for s in (0, 11, 42, 97, 3, 55)]
        + [{"op": "run", "graph": "er", "algorithm": "sssp", "source": s}
           for s in (7, 19, 63, 120)]
        + [{"op": "run", "graph": "er", "algorithm": "pagerank"}] * 2
    )

    service.reset_stats()
    controller = AdmissionController(registry)
    try:
        with controller.hold():
            pendings = [
                controller.submit(parse_request(_json.dumps(r))["request"])
                for r in reqs
            ]
        responses = [p.wait(timeout=300.0) for p in pendings]
    finally:
        controller.close()
    counters = service.stats()

    for req, resp in zip(reqs, responses):
        assert resp.get("ok"), f"service request failed: {req} -> {resp}"
        oracle = solo_reference(
            graph, "er", req["algorithm"], req.get("source"), {}, engine=controller.engine
        )
        assert (_json.dumps(resp["result"], sort_keys=True)
                == _json.dumps(oracle, sort_keys=True)), (
            f"batched response diverged from its solo run: {req}"
        )
    assert counters["fused_runs"] == 2 and counters["fused_sources"] == 10, (
        f"expected the 6-source bfs and 4-source sssp batches to fuse, "
        f"got {counters}"
    )
    return {
        "service.replay.requests": counters["requests"],
        "service.replay.batches": counters["batches"],
        "service.replay.solo_batches": counters["batch_hist"]["1"],
        "service.replay.errors": counters["errors"],
        "service.replay.timeouts": counters["timeouts"],
    }


def _timing_sections() -> dict:
    timings = {}
    for name in ("overhead", "cold_start", "service", "service_batching"):
        path = RESULTS_DIR / f"{name}.json"
        if path.exists():
            timings[name] = json.loads(path.read_text())
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sha", default=None, help="commit sha (default: git HEAD)")
    parser.add_argument("--output", default=None, help="output path (default: BENCH_<sha>.json)")
    args = parser.parse_args(argv)

    sha = args.sha or _git_sha()
    metrics = {}
    # the legacy counts run under the tiles=1 ablation so they stay
    # exactly the pre-tiling dispatch stream on any machine/config
    with gb.tiled(tiles=1):
        metrics.update(_pagerank_metrics())
        metrics.update(_schedule_metrics())
    metrics.update(_tiled_metrics())
    metrics.update(_guard_metrics())
    metrics.update(_catalog_metrics())
    metrics.update(_service_metrics())

    doc = {
        "schema": 1,
        "sha": sha,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        # every tracked metric is a lower-is-better deterministic count
        "tracked": sorted(metrics),
        "metrics": metrics,
        "timings": _timing_sections(),
    }

    out_path = Path(args.output) if args.output else REPO_ROOT / f"BENCH_{sha}.json"
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key in sorted(metrics):
        print(f"  {key:45s} {metrics[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
