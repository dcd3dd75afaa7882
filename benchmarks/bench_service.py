#!/usr/bin/env python3
"""Benchmark the service's batching payoff: k single-source runs vs one
fused run.

The admission controller's bet is that one k-source fused traversal is
cheaper than k single-source runs — the per-call overhead is paid once
per batch instead of once per client, and the kernels stream the graph
once.  This benchmark measures that directly, in-process (no sockets, no
admission queue), with both legs on the same entry point, so that the
ratio is fusion alone (the listing's SSSP runs |V| rounds while the
multi-source runner stops at the fixed point, so a solo leg timed on
the listing would mostly measure convergence):

* ``k × bfs_levels_multi(graph, [s])``   vs  ``bfs_levels_multi(graph, sources)``
* ``k × sssp_distances_multi(graph, [s])``  vs  ``sssp_distances_multi(...)``

Results (median of ``--reps``) land in
``benchmarks/results/service_batching.json``; ``collect_bench.py``
copies them into the per-commit ``BENCH_<sha>.json`` timing section
(machine-dependent — recorded for trajectory plots, never gated).
Bit-identity between every fused row and the single-source listing
(``bfs_levels`` / ``sssp_distances``) is asserted first: a fast-but-wrong
fusion must never publish a timing.

Usage::

    python benchmarks/bench_service.py [--nodes 512] [--k 8] [--reps 5]

The engine is the library's (``$PYGB_BACKEND``), e.g.
``PYGB_BACKEND=cpp python benchmarks/bench_service.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(REPO_ROOT / "src"))

os.environ.setdefault("PYGB_CACHE_DIR", str(REPO_ROOT / ".pygb_cache"))


def _median_ms(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def bench(nodes: int, k: int, reps: int) -> dict:
    import numpy as np

    from repro.algorithms import bfs_levels, sssp_distances
    from repro.core.context import current_raw_engine
    from repro.algorithms.multisource import (
        bfs_levels_multi,
        matrix_row,
        sssp_distances_multi,
    )
    from repro.io.generators import erdos_renyi

    graph = erdos_renyi(nodes, nedges=nodes * 8, seed=5, weighted=True, dtype=float)
    rng = np.random.default_rng(5)
    sources = [int(s) for s in rng.choice(nodes, size=k, replace=False)]

    cases = {
        "bfs": (bfs_levels, bfs_levels_multi),
        "sssp": (sssp_distances, sssp_distances_multi),
    }
    report = {"nodes": nodes, "edges": graph.nvals, "k": k, "reps": reps,
              "engine": current_raw_engine().name}
    for name, (listing, multi) in cases.items():
        # correctness first: every fused row must be bit-identical to the
        # single-source listing before any timing is recorded
        fused_result = multi(graph, sources)
        for row, src in enumerate(sources):
            idx, vals = matrix_row(fused_result, row)
            solo_idx, solo_vals = listing(graph, src).to_coo()
            assert np.array_equal(idx, solo_idx) and np.array_equal(vals, solo_vals), (
                f"{name}: fused row {row} (source {src}) diverged from the listing"
            )

        solo_ms = _median_ms(lambda: [multi(graph, [s]) for s in sources], reps)
        fused_ms = _median_ms(lambda: multi(graph, sources), reps)
        report[name] = {
            "solo_ms": round(solo_ms, 3),
            "fused_ms": round(fused_ms, 3),
            "speedup": round(solo_ms / fused_ms, 2) if fused_ms > 0 else 0.0,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=512)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--output", default=None,
        help=f"output path (default: {RESULTS_DIR / 'service_batching.json'})",
    )
    args = parser.parse_args(argv)

    report = bench(args.nodes, args.k, args.reps)
    out = Path(args.output) if args.output else RESULTS_DIR / "service_batching.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"graph: {report['nodes']} nodes / {report['edges']} edges, "
          f"k={report['k']} sources, median of {report['reps']}, engine {report['engine']}")
    for name in ("bfs", "sssp"):
        row = report[name]
        print(f"  {name:5s} k=1 x{args.k}: {row['solo_ms']:8.1f} ms   "
              f"fused: {row['fused_ms']:8.1f} ms   "
              f"speedup: {row['speedup']:.2f}x")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
