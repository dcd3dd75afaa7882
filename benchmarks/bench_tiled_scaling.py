#!/usr/bin/env python3
"""Tiled data-plane scaling: PageRank and BFS across tile/worker counts.

The tiled data plane (docs/architecture.md §14) splits every
partitionable dispatch into nnz-balanced row blocks fanned over a
thread pool.  This benchmark sweeps the two knobs — ``tiles`` and
``workers``, forced through ``gb.tiled`` so the machine's defaults
never leak in — over power-law R-MAT graphs and reports, per
configuration:

* **wall time** — median latency of a full PageRank power iteration and
  a full BFS (the paper's two headline workloads);
* **partition counters** — the deterministic tiling statistics
  (partitioned/forwarded dispatches, tile tasks, merges), which depend
  only on the program and the tile count, never on timing;
* **bit-identity** — every configuration is checked exact against the
  ``tiles=1`` monolithic baseline before its timing is recorded; a
  partitioning that changed results would invalidate the measurement.

Run ``python benchmarks/bench_tiled_scaling.py``; results (with host
specs) land in ``benchmarks/results/tiled_scaling.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import repro as gb
from repro import tiling
from repro.algorithms import bfs_levels, pagerank

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCALES = [10, 12]
EDGE_FACTOR = 16
TILES = [1, 2, 4, 8]
WORKERS = [1, 2, 4]
REPEATS = 5
ENGINE = "pyjit"


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: populates the JIT caches and memoized transposes
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _workloads():
    def run_pagerank(g, n):
        pr = gb.Vector(shape=(n,), dtype=float)
        # dense: `auto` runs the power iteration's vxm as a push, which
        # forwards past the tiler this benchmark measures
        pagerank(g, pr, threshold=1.0e-8, schedule="dense")
        return pr._store.to_dict()

    def run_bfs(g, n):
        return bfs_levels(g, 0)._store.to_dict()

    return {"pagerank": run_pagerank, "bfs": run_bfs}


def _run_graph(scale: int) -> dict:
    from repro.io.generators import rmat

    g = rmat(scale, edge_factor=EDGE_FACTOR, seed=42)
    n = 1 << scale
    out: dict = {"vertices": n, "edges": int(g.nvals), "workloads": {}}

    with gb.use_engine(ENGINE):
        for name, run in _workloads().items():
            with gb.tiled(tiles=1):
                baseline = run(gb.Matrix(g), n)
            configs = []
            for tiles in TILES:
                for workers in WORKERS:
                    if tiles == 1 and workers != 1:
                        continue  # monolithic: the pool is never touched
                    with gb.tiled(tiles=tiles, workers=workers):
                        # the copy adopts tiled storage under this
                        # config, so forwarded dispatches (BFS's pinned
                        # push/pull traversals) are counted too
                        gt = gb.Matrix(g)
                        fn = lambda: run(gt, n)  # noqa: E731
                        result = fn()
                        assert result == baseline, (
                            f"{name} diverged at tiles={tiles} workers={workers}"
                        )
                        tiling.reset_stats()
                        fn()
                        counters = tiling.stats()
                        wall = _median_time(fn)
                    configs.append(
                        {
                            "tiles": tiles,
                            "workers": workers,
                            "wall_s": wall,
                            "speedup_vs_monolithic": None,  # filled below
                            "partitioned_dispatches": counters["partitioned_total"],
                            "forwarded_dispatches": counters["forwarded_total"],
                            "tile_tasks": counters["tile_tasks"],
                            "merges": counters["merges_total"],
                            "tiles_created": counters["tiles_created"],
                        }
                    )
            mono = next(c for c in configs if c["tiles"] == 1)
            for c in configs:
                c["speedup_vs_monolithic"] = mono["wall_s"] / c["wall_s"]
            out["workloads"][name] = configs
    return out


def main() -> int:
    doc = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "engine": ENGINE,
        "edge_factor": EDGE_FACTOR,
        "repeats": REPEATS,
        "graphs": {},
    }
    for scale in SCALES:
        print(f"== R-MAT scale {scale} ==")
        result = _run_graph(scale)
        doc["graphs"][f"rmat_{scale}"] = result
        for name, configs in result["workloads"].items():
            for c in configs:
                print(
                    f"  {name:9s} tiles={c['tiles']:<2d} workers={c['workers']:<2d} "
                    f"{c['wall_s'] * 1e3:8.2f} ms  "
                    f"x{c['speedup_vs_monolithic']:.2f}  "
                    f"({c['partitioned_dispatches']} partitioned, "
                    f"{c['forwarded_dispatches']} forwarded, "
                    f"{c['tile_tasks']} tile tasks)"
                )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "tiled_scaling.json"
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
