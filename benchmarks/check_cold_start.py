#!/usr/bin/env python3
"""Cold-start acceptance check for the AOT kernel catalog.

Runs every bundled algorithm on the cpp engine twice, in fresh child
processes with **empty** cache directories:

1. with ``PYGB_CATALOG`` pointing at a baked pack — must perform **zero**
   inline compiles (``compiles == 0``, ``catalog_hits > 0``);
2. without a catalog — the normal JIT path, compiling everything.

The two runs must produce bit-identical results (sha256 over every
result array), proving the pack serves the same kernels the JIT would
build.  Exits non-zero on any violation; the CI cold-start leg gates on
it.

Usage::

    python -m repro bake --out /tmp/pack
    python benchmarks/check_cold_start.py --pack /tmp/pack
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: runs in a child process: every bundled algorithm (operation-at-a-time
#: and whole-module compiled) on the cpp engine, digesting each result
_CHILD = r"""
import hashlib, json, sys
import numpy as np
import repro as gb
from repro.algorithms import (bfs_levels, connected_components, lower_triangle,
                              pagerank, sssp_distances, triangle_count)
from repro.algorithms.compiled import (bfs_compiled, pagerank_compiled,
                                       sssp_compiled, triangle_count_compiled)
from repro.io.generators import erdos_renyi, grid_graph, scale_free
from repro.jit.cache import cache_statistics

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

digests = {}
with gb.use_engine("cpp"), gb.tiled(tiles=1):
    g = erdos_renyi(48, seed=3)
    digests["bfs"] = digest(bfs_levels(g, 0).to_coo())
    wg = grid_graph(6, weighted=True, seed=5, dtype=float)
    digests["sssp"] = digest(sssp_distances(wg, 0).to_coo())
    pg = scale_free(48, seed=7)
    pr = gb.Vector(shape=(48,), dtype=float)
    pagerank(pg, pr, threshold=1e-8)
    digests["pagerank"] = digest([pr.to_numpy()])
    r, c, _ = g.to_coo()
    A = gb.Matrix(
        (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=g.shape, dtype=int,
    )
    L = lower_triangle(A)
    digests["triangles"] = digest([np.asarray([triangle_count(L)])])
    digests["components"] = digest(connected_components(g).to_coo())
def digest_sv(sv):
    d = sv.to_dict()
    return digest([np.asarray(sorted(d)), np.asarray([d[k] for k in sorted(d)])])

digests["bfs_compiled"] = digest_sv(bfs_compiled(g._store, 0)[0])
digests["sssp_compiled"] = digest_sv(sssp_compiled(wg._store, 0)[0])
digests["pagerank_compiled"] = digest_sv(pagerank_compiled(pg._store)[0])
digests["tc_compiled"] = digest([np.asarray([triangle_count_compiled(L._store)[0]])])

snap = cache_statistics()
json.dump({"digests": digests,
           "compiles": snap["compiles"],
           "catalog_hits": snap["catalog_hits"],
           "catalog_misses": snap["catalog_misses"],
           "fallbacks": snap["fallbacks"]}, sys.stdout)
"""


def run_algorithms(pack: str | None) -> dict:
    """One cold child process: fresh cache dir, optional catalog."""
    env = {**os.environ,
           "PYGB_CACHE_DIR": tempfile.mkdtemp(prefix="pygb-cold-"),
           "PYTHONPATH": str(REPO_ROOT / "src")}
    if pack:
        env["PYGB_CATALOG"] = str(pack)
    else:
        env.pop("PYGB_CATALOG", None)
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"algorithm child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pack", required=True, help="baked catalog directory")
    args = parser.parse_args(argv)

    catalog = run_algorithms(args.pack)
    plain = run_algorithms(None)

    print(f"with catalog:    {catalog['compiles']} compiles, "
          f"{catalog['catalog_hits']} catalog hits, "
          f"{catalog['catalog_misses']} misses")
    print(f"without catalog: {plain['compiles']} compiles")

    ok = True
    if catalog["compiles"] != 0:
        print(f"FAIL: catalog run performed {catalog['compiles']} inline "
              "compiles (expected 0)", file=sys.stderr)
        ok = False
    if catalog["catalog_hits"] <= 0:
        print("FAIL: catalog run served no catalog hits", file=sys.stderr)
        ok = False
    if catalog["fallbacks"] != 0:
        print(f"FAIL: catalog run fell back {catalog['fallbacks']}x "
              "(pack artifacts failed to load?)", file=sys.stderr)
        ok = False
    if plain["compiles"] <= 0:
        print("FAIL: control run compiled nothing — cache dir not cold?",
              file=sys.stderr)
        ok = False
    for name, d in sorted(catalog["digests"].items()):
        if plain["digests"][name] != d:
            print(f"FAIL: {name} result differs between catalog and JIT runs",
                  file=sys.stderr)
            ok = False
    if ok:
        print(f"OK: {len(catalog['digests'])} algorithms bit-identical, "
              "zero cold-start compiles under the catalog")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
