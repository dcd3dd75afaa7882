#!/usr/bin/env python3
"""Cold-start latency: first-op time with and without the AOT catalog.

The paper's compilation cache amortizes ``g++`` latency "over future
runs", but a *fresh* cache directory (new container, new host, wiped
``$PYGB_CACHE_DIR``) pays the full compile on the first dispatch of
every spec.  This benchmark measures exactly that first-op cost — one
cold ``mxv`` on the chosen engine in a brand-new child process with an
empty cache dir — under three configurations:

* ``jit``      — no catalog: the first op generates + compiles inline;
* ``catalog``  — ``PYGB_CATALOG`` points at a pack baked beforehand:
  the first op loads a pre-built artifact (catalog hit);
* ``warm``     — the artifact is already in the (process-fresh) disk
  cache: the steady-state floor for comparison.

Medians over ``REPEATS`` child processes; results land in
``benchmarks/results/cold_start.json`` and are copied (as timings,
never gated) into the perf-trajectory file by ``collect_bench.py``.

Run after baking::

    python -m repro bake --out /tmp/pack
    python benchmarks/bench_cold_start.py --pack /tmp/pack
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPEATS = 5

#: child: time the very first DSL op of the process (spec compile/load
#: included), report seconds on stdout
_CHILD = r"""
import sys, time
import numpy as np
import repro as gb
from repro.core.context import use_engine
from repro.io.generators import erdos_renyi
from repro.jit.cache import cache_statistics

engine = sys.argv[1]
n = 64
with use_engine(engine), gb.tiled(tiles=1):
    a = erdos_renyi(n, seed=n, weighted=True, dtype=float)
    u = gb.Vector((np.ones(n), np.arange(n)), shape=(n,))
    w = gb.Vector(shape=(n,), dtype=float)
    t0 = time.perf_counter()
    w[None] = a @ u
    first_op = time.perf_counter() - t0
snap = cache_statistics()
print(first_op, snap["compiles"], snap["catalog_hits"])
"""


def _run_child(engine: str, cache_dir: str, pack: str | None) -> tuple[float, int, int]:
    env = {**os.environ,
           "PYGB_CACHE_DIR": cache_dir,
           "PYTHONPATH": str(REPO_ROOT / "src")}
    if pack:
        env["PYGB_CATALOG"] = str(pack)
    else:
        env.pop("PYGB_CATALOG", None)
    out = subprocess.run([sys.executable, "-c", _CHILD, engine],
                         capture_output=True, text=True, env=env, check=True)
    first_op, compiles, hits = out.stdout.split()
    return float(first_op), int(compiles), int(hits)


def _measure(engine: str, mode: str, pack: str | None) -> dict:
    """Median first-op latency across REPEATS cold child processes."""
    samples = []
    compiles = hits = 0
    warm_dir = tempfile.mkdtemp(prefix="pygb-warm-") if mode == "warm" else None
    if warm_dir:
        _run_child(engine, warm_dir, None)  # populate the disk cache once
    for _ in range(REPEATS):
        if mode == "warm":
            cache_dir = warm_dir
        else:
            cache_dir = tempfile.mkdtemp(prefix="pygb-cold-")
        t, c, h = _run_child(engine, cache_dir, pack if mode == "catalog" else None)
        samples.append(t)
        compiles, hits = c, h
    if mode == "jit":
        assert compiles > 0, "jit mode performed no compile — cache dir not cold?"
    if mode == "catalog":
        assert compiles == 0 and hits > 0, (
            f"catalog mode compiled ({compiles}) or missed (hits={hits})"
        )
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "samples": samples,
        "compiles": compiles,
        "catalog_hits": hits,
    }


def main(argv=None) -> int:
    from repro.jit.catalog import bake_catalog
    from repro.jit.cppengine import toolchain_works

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pack", default=None,
                        help="baked pack (default: bake a fresh one)")
    args = parser.parse_args(argv)

    pack = args.pack
    if pack is None:
        pack = tempfile.mkdtemp(prefix="pygb-pack-")
        print(f"baking catalog into {pack} ...")
        report = bake_catalog(pack)
        print(f"  {report['entries']} entries in {report['seconds']:.1f}s")

    engines = ["pyjit"] + (["cpp"] if toolchain_works() else [])
    results: dict = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "repeats": REPEATS,
        "engines": {},
    }
    for engine in engines:
        row = {}
        for mode in ("jit", "catalog", "warm"):
            row[mode] = _measure(engine, mode, pack)
            print(f"{engine:6s} {mode:8s} first-op median "
                  f"{row[mode]['median_s'] * 1e3:9.2f} ms")
        speedup = row["jit"]["median_s"] / max(row["catalog"]["median_s"], 1e-9)
        row["cold_start_speedup"] = speedup
        print(f"{engine:6s} cold-start speedup (jit/catalog): {speedup:.1f}x")
        results["engines"][engine] = row

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "cold_start.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
