#!/usr/bin/env python3
"""Direction-optimizing traversal ablation: fixed vs push vs pull vs auto.

BFS over power-law R-MAT graphs is the workload direction optimization
was invented for (Beamer et al., SC'12): early iterations have tiny
frontiers (push wins by orders of magnitude), the middle iteration
sweeps most of the graph (pull's masked gather with the LogicalOr early
exit wins), and the adaptive schedule should track the best of both.

Two effects are measured per ``$PYGB_SCHEDULE`` mode and engine:

* **examined edges** — the deterministic counters from
  ``repro.schedule.stats()`` (machine-independent; the perf-trajectory
  gate tracks the same numbers via ``collect_bench.py``);
* **wall time** — median BFS latency, with the online autotuner both on
  and off for the ``auto`` mode.

Every mode is also checked bit-identical against the dense baseline —
a schedule that changed results would invalidate the measurement.

Run ``python benchmarks/bench_direction_opt.py``; results (with host
specs) land in ``benchmarks/results/direction_opt.json``.
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
from repro import config
from repro import schedule as S
from repro.algorithms import bfs_levels
from repro.io.generators import rmat
from repro.jit.cppengine import compiler_available

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCALES = [8, 10, 12]
EDGE_FACTOR = 16
MODES = ["fixed", "push", "pull", "auto"]
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: populates the JIT caches and memoized transposes
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_graph(engine: str, scale: int) -> dict:
    g = rmat(scale, edge_factor=EDGE_FACTOR, seed=42)
    n = 1 << scale
    out: dict = {"vertices": n, "edges": int(g.nvals)}

    with gb.use_engine(engine):
        baseline = bfs_levels(g, 0, schedule="fixed")._store.to_dict()
        for mode in MODES:
            S.reset_stats()
            levels = bfs_levels(g, 0, schedule=mode)._store.to_dict()
            assert levels == baseline, f"{mode} diverged from dense BFS"
            counters = S.stats()
            out[mode] = {
                "examined_edges": counters["edges_total"],
                "edges_by_direction": {
                    d: c for d, c in counters["edges"].items() if c
                },
                "calls_by_direction": {
                    d: c for d, c in counters["calls"].items() if c
                },
                "switches": counters["switches"],
                "fallbacks": counters["fallbacks"],
                "median_s": _median_time(
                    lambda mode=mode: bfs_levels(g, 0, schedule=mode)
                ),
            }
        # auto with the latency autotuner disabled: the pure cost model
        old = os.environ.get("PYGB_SCHEDULE_TUNER")
        os.environ["PYGB_SCHEDULE_TUNER"] = "0"
        config.reload()
        try:
            S.reset_stats()
            levels = bfs_levels(g, 0, schedule="auto")._store.to_dict()
            assert levels == baseline, "auto (tuner off) diverged from dense BFS"
            counters = S.stats()
            out["auto_no_tuner"] = {
                "examined_edges": counters["edges_total"],
                "switches": counters["switches"],
                "median_s": _median_time(lambda: bfs_levels(g, 0, schedule="auto")),
            }
        finally:
            if old is None:
                os.environ.pop("PYGB_SCHEDULE_TUNER", None)
            else:
                os.environ["PYGB_SCHEDULE_TUNER"] = old
            config.reload()
    return out


def main() -> int:
    engines = ["interpreted", "pyjit"] + (["cpp"] if compiler_available() else [])
    doc = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "edge_factor": EDGE_FACTOR,
        "repeats": REPEATS,
        "engines": engines,
        "bfs": {},
    }
    for engine in engines:
        doc["bfs"][engine] = {}
        for scale in SCALES:
            r = _run_graph(engine, scale)
            doc["bfs"][engine][str(1 << scale)] = r
            auto, push = r["auto"]["examined_edges"], r["push"]["examined_edges"]
            dense = r["fixed"]["examined_edges"]
            print(
                f"{engine:12s} n={1 << scale:6d} edges examined: "
                f"dense={dense:9d} push={push:8d} auto={auto:8d} "
                f"({dense / max(auto, 1):5.1f}x vs dense, "
                f"{push / max(auto, 1):4.1f}x vs push) "
                f"auto={r['auto']['median_s'] * 1e3:7.2f} ms"
            )

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "direction_opt.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
