#!/usr/bin/env python3
"""Fusion ablation: planned (PYGB_FUSION=1) vs eager (PYGB_FUSION=0)
dispatch on the fusible expression chains and on full PageRank.

Two effects are measured:

* **wall time** — a fused kernel skips one engine dispatch and never
  materialises the producer's temporary container, which matters most
  when per-operation overhead rivals kernel work (small/medium inputs,
  the regime Fig. 10's DSL-overhead claim lives in);
* **engine calls** — counted with ``CountingEngine``; savings here are
  deterministic and size-independent.

Run ``python benchmarks/bench_fusion.py``; results (with host specs)
land in ``benchmarks/results/fusion.json``.
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

import numpy as np

import repro as gb
from repro import config
from repro.algorithms import pagerank
from repro.core.dispatch import CountingEngine, make_engine
from repro.io.generators import erdos_renyi
from repro.jit.cppengine import compiler_available

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SIZES = [256, 1024, 4096]
REPEATS = 7


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up: populates the JIT caches
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _chains(n: int):
    """The fusible expression chains, on an n-vertex ER graph."""
    a = erdos_renyi(n, seed=n, weighted=True, dtype=float)
    rng = np.random.default_rng(n)
    u = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
    v = gb.Vector((rng.uniform(1, 2, n), np.arange(n)), shape=(n,))
    w = gb.Vector(shape=(n,), dtype=float)

    def mxv_apply():
        w[None] = (a @ u) * 0.85

    def ewise_mult_apply():
        w[None] = (u * v) + 0.15

    def ewise_mult_reduce():
        gb.reduce(u * v)

    def mxm_reduce_rows():
        w[None] = gb.reduce("Plus", a @ a)

    return {
        "mxv+apply": mxv_apply,
        "ewise_mult+apply": ewise_mult_apply,
        "ewise_mult+reduce": ewise_mult_reduce,
        "mxm+reduce_rows": mxm_reduce_rows,
    }


def _pagerank_run(n: int):
    g = erdos_renyi(n, seed=7, weighted=True, dtype=float)

    def run():
        pr = gb.Vector(shape=(n,), dtype=float)
        pagerank(g, pr, threshold=1.0e-8)

    return run


def _with_fusion(flag: bool, fn):
    old = os.environ.get("PYGB_FUSION")
    os.environ["PYGB_FUSION"] = "1" if flag else "0"
    config.reload()
    try:
        return fn()
    finally:
        if old is None:
            os.environ.pop("PYGB_FUSION", None)
        else:
            os.environ["PYGB_FUSION"] = old
        config.reload()


def _engine_call_counts(n: int) -> dict:
    """Engine calls for one PageRank run, fused vs eager (pyjit)."""
    out = {}
    for label, flag in (("fusion_on", True), ("fusion_off", False)):
        eng = CountingEngine(make_engine("pyjit"))

        def trace():
            with gb.use_engine(eng):
                _pagerank_run(n)()

        _with_fusion(flag, trace)
        out[label] = {"total": eng.total, "per_method": dict(sorted(eng.counts.items()))}
    return out


def _nonblocking_call_counts(n: int) -> dict:
    """Engine calls for one PageRank run, blocking vs nonblocking (pyjit):
    the lazy queue's dead-store elimination and copy elision remove whole
    dispatches deterministically, on top of per-statement fusion."""
    from repro.core.nonblocking import reset_stats, stats

    out = {}
    for label, deferred in (("blocking", False), ("nonblocking", True)):
        eng = CountingEngine(make_engine("pyjit"))
        reset_stats()
        with gb.use_engine(eng):
            if deferred:
                with gb.nonblocking():
                    _pagerank_run(n)()
            else:
                _pagerank_run(n)()
        out[label] = {"total": eng.total, "per_method": dict(sorted(eng.counts.items()))}
        if deferred:
            out[label]["queue"] = stats()
    return out


def main() -> None:
    engines = ["pyjit"] + (["cpp"] if compiler_available() else [])
    results: dict = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "repeats": REPEATS,
        "engines": engines,
        "chains": {},
        "pagerank": {},
        "pagerank_engine_calls": _engine_call_counts(512),
        "pagerank_mode_calls": _nonblocking_call_counts(512),
    }

    for engine_name in engines:
        with gb.use_engine(engine_name):
            for n in SIZES:
                chains = _chains(n)
                for label, fn in chains.items():
                    on = _with_fusion(True, lambda: _median_time(fn))
                    off = _with_fusion(False, lambda: _median_time(fn))
                    results["chains"].setdefault(label, {}).setdefault(engine_name, {})[
                        str(n)
                    ] = {"fused_s": on, "eager_s": off, "speedup": off / on if on else None}
                    print(f"{engine_name:6s} {label:20s} n={n:5d}  "
                          f"fused {on * 1e3:8.3f} ms  eager {off * 1e3:8.3f} ms  "
                          f"x{off / on:5.2f}")
            for n in SIZES[:2]:
                run = _pagerank_run(n)
                on = _with_fusion(True, lambda: _median_time(run, 3))
                off = _with_fusion(False, lambda: _median_time(run, 3))
                results["pagerank"].setdefault(engine_name, {})[str(n)] = {
                    "fused_s": on, "eager_s": off,
                    "speedup": off / on if on else None,
                }
                print(f"{engine_name:6s} {'pagerank':20s} n={n:5d}  "
                      f"fused {on * 1e3:8.3f} ms  eager {off * 1e3:8.3f} ms  "
                      f"x{off / on:5.2f}")

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "fusion.json"
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
