#!/usr/bin/env python3
"""OpenMP kernel scaling + concurrent-compilation benchmark.

Times the two hot kernels (``mxv``, ``mxm``) on a million-edge random
graph with parallel dispatch off and then on at 1/2/4 OpenMP threads
(``$PYGB_THREADS`` is a runtime knob, so one process covers the sweep),
and compares sequential vs thread-pooled cache warming on a cold cache.

Results go to ``benchmarks/results/parallel_scaling.json`` together with
the machine's visible core count — speedups are only meaningful relative
to that number (a 1-core container cannot show OpenMP wins; the numbers
then document the overhead of the parallel code path instead).

Run directly::

    python benchmarks/bench_parallel_scaling.py
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent / "results"
NODES = 100_000
EDGES = 1_000_000
THREADS = [1, 2, 4]
REPEATS_MXV = 7
REPEATS_MXM = 3


def _cpu_quota() -> float | None:
    """Cores allowed by the cgroup v2 quota, when one is set."""
    try:
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if text[0] != "max":
            return int(text[0]) / int(text[1])
    except (OSError, IndexError, ValueError):
        pass
    return None


def _median(fn, repeats: int) -> float:
    fn()  # warm-up: compiles the kernel, faults in the buffers
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    from repro import config
    from repro.backend.kernels import OpDesc
    from repro.backend.svector import SparseVector
    from repro.io.generators import erdos_renyi
    from repro.jit.cache import JitCache
    from repro.jit.cppengine import CppJitEngine, compiler_available, openmp_available
    from repro.jit.precompile import warm_cache

    if not compiler_available():
        print("no C++ toolchain — nothing to measure")
        return 1

    engine = CppJitEngine()
    print(f"graph: |V|={NODES} |E|={EDGES}  (erdos-renyi, seed 1)")
    g = erdos_renyi(NODES, nedges=EDGES, seed=1, weighted=True, dtype=float)
    a = g._store
    u = SparseVector.from_sorted(
        NODES,
        np.arange(NODES, dtype=np.int64),
        np.random.default_rng(2).uniform(0.0, 1.0, NODES),
    )

    def run_mxv():
        engine.mxv(SparseVector.empty(NODES, np.float64), a, u, "Plus", "Times", OpDesc())

    def run_mxm():
        from repro.backend.smatrix import SparseMatrix

        engine.mxm(
            SparseMatrix.empty(NODES, NODES, np.float64), a, a, "Plus", "Times", OpDesc()
        )

    kernels = {"mxv": (run_mxv, REPEATS_MXV), "mxm": (run_mxm, REPEATS_MXM)}
    series: dict[str, dict] = {k: {} for k in kernels}

    os.environ["PYGB_PARALLEL"] = "0"
    config.reload()
    for name, (fn, reps) in kernels.items():
        t = _median(fn, reps)
        series[name]["serial"] = t
        print(f"{name:4s} serial           {t * 1e3:9.2f} ms")

    if openmp_available(engine.cxx):
        os.environ["PYGB_PARALLEL"] = "1"
        config.reload()
        for nt in THREADS:
            os.environ["PYGB_THREADS"] = str(nt)  # the kernels getenv this one per call
            for name, (fn, reps) in kernels.items():
                t = _median(fn, reps)
                series[name][f"threads_{nt}"] = t
                speedup = series[name]["serial"] / t
                print(f"{name:4s} {nt} thread(s)      {t * 1e3:9.2f} ms   {speedup:.2f}x vs serial")
    else:
        print("compiler has no OpenMP support — parallel sweep skipped")

    # ------------------------------------------------------------------
    # concurrent vs sequential cache warming (cold cache each time)
    # ------------------------------------------------------------------
    compile_times = {}
    for label, workers in (("sequential", 1), ("concurrent", 4)):
        with tempfile.TemporaryDirectory(prefix="pygb_warm_bench_") as tmp:
            t0 = time.perf_counter()
            report = warm_cache(cache=JitCache(tmp), max_workers=workers)
            elapsed = time.perf_counter() - t0
        compile_times[label] = {
            "seconds": elapsed,
            "kernels": report["requested"],
            "jobs": workers,
        }
        print(f"warm_cache {label:10s} ({workers} jobs): {elapsed:6.2f} s "
              f"for {report['requested']} kernels")
    if compile_times["concurrent"]["seconds"] > 0:
        ratio = compile_times["sequential"]["seconds"] / compile_times["concurrent"]["seconds"]
        print(f"concurrent warm speedup: {ratio:.2f}x")

    payload = {
        "graph": {"nodes": NODES, "edges": EDGES, "generator": "erdos_renyi", "seed": 1},
        "environment": {
            "cpu_count": os.cpu_count(),
            "cgroup_cpu_quota": _cpu_quota(),
            "openmp": openmp_available(engine.cxx),
            "pygb_threads_swept": THREADS,
        },
        "kernels_seconds": series,
        "warm_cache_seconds": compile_times,
        "note": (
            "speedups are bounded by the visible core count; on a 1-core "
            "machine the parallel path measures overhead, not scaling"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "parallel_scaling.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
