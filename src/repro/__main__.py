"""Command-line interface: graph analytics on MatrixMarket files.

::

    python -m repro info graph.mtx             # shape, nnz, degree stats
    python -m repro bfs graph.mtx --source 0   # hop distances
    python -m repro sssp graph.mtx --source 0  # weighted distances
    python -m repro pagerank graph.mtx --top 10
    python -m repro triangles graph.mtx        # assumes symmetric input
    python -m repro components graph.mtx       # assumes symmetric input
    python -m repro engines                    # available execution engines
    python -m repro precompile                 # pre-build the C++ kernel cache
    python -m repro bake --out pack/           # bake a redistributable kernel pack
    python -m repro doctor                     # JIT runtime health report
    python -m repro stats                      # per-op profile from traced runs
    python -m repro serve --graphs m.json      # multi-tenant graph query server

Every command accepts ``--engine {interpreted,pyjit,cpp}``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config


def _load(path: str, dtype=None):
    from .io.fastload import mmread_fast

    return mmread_fast(path, dtype=dtype)


def cmd_info(args) -> int:
    m = _load(args.file)
    out_deg = np.diff(m._store.indptr)
    in_deg = np.diff(m._store.transposed().indptr)
    print(f"file:       {args.file}")
    print(f"shape:      {m.nrows} x {m.ncols}")
    print(f"edges:      {m.nvals}")
    print(f"dtype:      {m.dtype}")
    if m.nvals:
        print(f"out-degree: min {out_deg.min()}  max {out_deg.max()}  mean {out_deg.mean():.2f}")
        print(f"in-degree:  min {in_deg.min()}  max {in_deg.max()}  mean {in_deg.mean():.2f}")
        sym = m._store.to_dict() == m._store.transposed().to_dict()
        print(f"symmetric:  {'yes' if sym else 'no'}")
    return 0


def cmd_bfs(args) -> int:
    from .algorithms import bfs_levels

    m = _load(args.file)
    levels = bfs_levels(m, args.source)
    idx, depths = levels.to_coo()
    print(f"reached {levels.nvals}/{m.nrows} vertices from source {args.source}")
    if levels.nvals:
        print(f"max depth: {int(depths.max()) - 1} hops")
    if args.verbose:
        for i, d in zip(idx.tolist(), depths.tolist()):
            print(f"  {i}: {d - 1}")
    return 0


def cmd_sssp(args) -> int:
    from .algorithms import sssp_distances

    m = _load(args.file, dtype=float)
    dist = sssp_distances(m, args.source)
    idx, d = dist.to_coo()
    print(f"reached {dist.nvals}/{m.nrows} vertices from source {args.source}")
    if dist.nvals:
        print(f"max distance: {d.max():.6g}")
    if args.verbose:
        for i, x in zip(idx.tolist(), d.tolist()):
            print(f"  {i}: {x:.6g}")
    return 0


def cmd_pagerank(args) -> int:
    from . import Vector
    from .algorithms import pagerank

    m = _load(args.file, dtype=float)
    ranks = Vector(shape=(m.nrows,), dtype=float)
    pagerank(m, ranks, damping_factor=args.damping, threshold=args.tol)
    r = ranks.to_numpy()
    order = np.argsort(r)[::-1][: args.top]
    print(f"top {len(order)} vertices by PageRank (damping {args.damping}):")
    for v in order:
        print(f"  {v}: {r[v]:.6f}")
    return 0


def cmd_triangles(args) -> int:
    from .algorithms import lower_triangle, triangle_count

    m = _load(args.file)
    t = triangle_count(lower_triangle(m))
    print(f"triangles: {t}")
    return 0


def cmd_components(args) -> int:
    from .algorithms import connected_components

    m = _load(args.file)
    labels = connected_components(m)
    vals = labels.to_coo()[1]
    uniq, counts = np.unique(vals, return_counts=True)
    print(f"components: {uniq.size}")
    order = np.argsort(counts)[::-1]
    for root, size in list(zip(uniq[order], counts[order]))[:10]:
        print(f"  component rooted at {root}: {size} vertices")
    return 0


def cmd_engines(args) -> int:
    from .jit.cppengine import compiler_available, find_cxx_compiler

    print("interpreted: available (no code generation)")
    print("pyjit:       available (default)")
    if compiler_available():
        print(f"cpp:         available (compiler: {find_cxx_compiler()})")
    else:
        print("cpp:         unavailable (no g++/c++ on PATH)")
    return 0


def cmd_precompile(args) -> int:
    from .jit.cppengine import (
        compiler_available,
        find_cxx_compiler,
        openmp_available,
    )
    from .jit.precompile import warm_cache

    if not compiler_available():
        print("no C++ toolchain (g++/c++) on PATH — nothing to precompile")
        return 1
    cxx = find_cxx_compiler()
    print(f"compiler: {cxx}")
    print(f"OpenMP:   {'yes' if openmp_available(cxx) else 'no (serial kernels)'}")
    report = warm_cache(
        parallel=False if args.serial else None,
        max_workers=args.jobs,
    )
    flavour = "parallel" if report["parallel"] else "serial"
    print(
        f"warmed {report['requested']} {flavour} kernels with "
        f"{report['jobs']} concurrent jobs in {report['seconds']:.2f}s: "
        f"{report['compiled']} compiled, {report['disk_hits']} already on disk, "
        f"{report['memory_hits']} in memory"
    )
    for key, err in report["failed"]:
        print(f"FAILED {key}: {err}", file=sys.stderr)
    if report["failed"]:
        print(
            f"error: {len(report['failed'])}/{report['requested']} kernel(s) "
            "failed to precompile (see above)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bake(args) -> int:
    from .jit.catalog import bake_catalog, validate_catalog
    from .jit.cppengine import compiler_available, find_cxx_compiler, openmp_available

    if compiler_available():
        cxx = find_cxx_compiler()
        print(f"compiler: {cxx}")
        print(f"OpenMP:   {'yes' if openmp_available(cxx) else 'no (serial kernels)'}")
    else:
        print("no C++ toolchain on PATH — baking the .py kernel flavour only")
    parallel = None
    if args.serial:
        parallel = False
    elif args.parallel:
        parallel = True
    report = bake_catalog(args.out, parallel=parallel, max_workers=args.jobs)
    flavour = "parallel" if report["parallel"] else "serial"
    print(
        f"baked {report['entries']} catalog entries "
        f"({report['cpp_entries']} compiled .so [{flavour}], "
        f"{report['py_entries']} generated .py) into {report['out']} with "
        f"{report['jobs']} concurrent jobs in {report['seconds']:.2f}s"
    )
    print(
        f"coverage: {report['requested']} specs requested — "
        f"{report['compiled']} built now, {report['disk_hits']} already in the pack, "
        f"{len(report['failed'])} failed"
    )
    if report["cpp_skipped"]:
        print(f"cpp flavour skipped: {report['cpp_skipped']}")
    for key, err in report["failed"]:
        print(f"FAILED {key}: {err}", file=sys.stderr)
    # round-trip: re-read the pack exactly the way a consumer process will
    check = validate_catalog(args.out)
    print(
        f"validation: {check['ok']}/{check['entries']} entries verify "
        f"({len(check['bad'])} bad)"
    )
    for key in check["bad"]:
        print(f"BAD CHECKSUM {key}", file=sys.stderr)
    if report["failed"] or check["bad"]:
        print(
            f"error: pack at {report['out']} is incomplete "
            "(failed builds or bad checksums above)",
            file=sys.stderr,
        )
        return 1
    print(f"use it with: PYGB_CATALOG={report['out']}")
    return 0


def cmd_serve(args) -> int:
    from . import service
    from .service import GraphRegistry, GraphServer, load_manifest
    from .service.admission import batch_max, request_timeout, serve_workers
    from .service.protocol import ALGORITHMS

    if args.catalog:
        os.environ["PYGB_CATALOG"] = args.catalog
        config.reload()
    registry = GraphRegistry()
    if args.graphs:
        load_manifest(args.graphs, registry)
    if not len(registry):
        print(
            "warning: no graphs loaded — pass --graphs manifest.json "
            "(every 'run' request will fail with unknown-graph)",
            file=sys.stderr,
        )
    server = GraphServer(registry, host=args.host, port=args.port)
    timeout = request_timeout()
    print(f"pygb service on {server.host}:{server.port}")
    print(f"graphs:     {', '.join(registry.names()) or 'none'}")
    print(f"algorithms: {', '.join(sorted(ALGORITHMS))}")
    print(
        f"admission:  batch max {batch_max()}, "
        f"{serve_workers()} workers, request timeout "
        f"{f'{timeout:g}s' if timeout else 'disabled'}"
    )
    print('try: echo \'{"op": "health"}\' | nc '
          f"{server.host} {server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
        counters = service.stats()
        print(
            f"served {counters['requests']} requests in "
            f"{counters['batches']} batches "
            f"({counters['batched_requests']} batched, "
            f"{counters['timeouts']} timeouts, {counters['errors']} errors)"
        )
    return 0


def cmd_doctor(args) -> int:
    from .jit.cache import CACHE_FORMAT_VERSION, default_cache
    from .jit.cppengine import (
        compile_timeout,
        find_cxx_compiler,
        openmp_available,
        toolchain_works,
    )
    from .jit.health import jit_retries, jit_strict
    from .testing.faults import FAULTS

    cache = default_cache()
    cxx = find_cxx_compiler()
    print("PyGB engine health")
    if cxx is None:
        print("compiler:        none — cpp engine unavailable, pyjit serves instead")
    elif not toolchain_works(cxx):
        print(
            f"compiler:        {cxx} — BROKEN (probe compile failed); "
            "cpp kernels will quarantine and fall back"
        )
    else:
        print(f"compiler:        {cxx} (OpenMP: {'yes' if openmp_available(cxx) else 'no'})")
    location = f"{cache.cache_dir}"
    if cache.relocated:
        location += "  (RELOCATED: configured cache dir was unwritable)"
    print(f"cache dir:       {location}")
    print(f"cache format:    v{CACHE_FORMAT_VERSION}")
    timeout = compile_timeout()
    print(
        f"strict mode:     {'on' if jit_strict() else 'off'}   "
        f"retries: {jit_retries()}   "
        f"compile timeout: {f'{timeout:g}s' if timeout else 'disabled'}"
    )
    from . import schedule as _schedule

    print(f"schedule:        {_schedule.schedule_mode()} (PYGB_SCHEDULE)")
    from . import tiling as _tiling

    tstats = _tiling.stats()
    print(
        f"tiling:          tiles={_tiling.tiles_mode()} (PYGB_TILES)   "
        f"workers={_tiling.workers_count()} (PYGB_WORKERS)"
    )
    print(
        f"tiled dispatch:  {tstats['partitioned_total']} partitioned, "
        f"{tstats['forwarded_total']} forwarded, "
        f"{tstats['tile_tasks']} tile tasks, "
        f"{tstats['tiles_created']} tiles created"
    )
    catalog_env = config.current().catalog
    if cache.catalog is not None:
        print(
            f"catalog:         {cache.catalog.root} "
            f"({len(cache.catalog)} entries, "
            f"{'parallel' if cache.catalog.parallel else 'serial'} cpp flavour)"
        )
    elif cache.catalog_error:
        print(f"catalog:         REJECTED — {cache.catalog_error}")
    else:
        print(
            f"catalog:         none attached "
            f"(PYGB_CATALOG={catalog_env or 'unset'}; bake one with "
            "`python -m repro bake`)"
        )
    snap = cache.stats.snapshot()
    print(
        f"cache activity:  {snap['memory_hits']} memory hits, "
        f"{snap['catalog_hits']} catalog hits, "
        f"{snap['disk_hits']} disk hits, {snap['compiles']} compiles"
    )
    print(
        f"resilience:      {snap['jit_failures']} JIT failures, "
        f"{snap['fallbacks']} fallback dispatches, "
        f"{snap['integrity_rebuilds']} integrity rebuilds, "
        f"{snap['tmp_swept']} orphaned tmp files swept"
    )
    health = cache.health.snapshot()
    if health["specs"]:
        print(f"unhealthy specs ({len(health['specs'])}):")
        for row in health["specs"]:
            print(
                f"  [{row['engine']}] {row['key']}\n"
                f"      {row['failures']} failure(s), {row['state']}"
                + (f" — {row['last_error']}" if row["last_error"] else "")
            )
    else:
        print("unhealthy specs: none")
    faults = FAULTS.active()
    if faults:
        rendered = ", ".join(
            f"{kind} (rate {rule['rate']:g}, fired {rule['fired']}x)"
            for kind, rule in sorted(faults.items())
        )
        print(f"fault injection: {rendered}")
    from . import guard as _guard

    timeout = _guard.op_timeout()
    wtimeout = _guard.worker_timeout()
    print(
        f"guardrails:      op timeout "
        f"{f'{timeout:g}s' if timeout else 'disabled'} (PYGB_OP_TIMEOUT)   "
        f"worker timeout "
        f"{f'{wtimeout:g}s' if wtimeout else 'disabled'} (PYGB_WORKER_TIMEOUT)"
    )
    gstats = _guard.stats()
    print(
        f"guard activity:  {gstats['timeouts_total']} timeouts, "
        f"{gstats['cancels_total']} cancellations, "
        f"{gstats['degrades_total']} tiled-execution degrades, "
        f"{gstats['quarantines_total']} tiling quarantines"
    )
    ghealth = _guard.tiling_health().snapshot()
    if ghealth["specs"]:
        print(f"quarantined tiling ops ({len(ghealth['specs'])}):")
        for row in ghealth["specs"]:
            print(
                f"  {row['key']}: {row['failures']} failure(s), {row['state']}"
                + (f" — {row['last_error']}" if row["last_error"] else "")
            )
    else:
        print("quarantined tiling ops: none")
    from . import service as _service
    from .service.admission import (
        batch_max as _batch_max,
        request_timeout as _request_timeout,
        serve_workers as _serve_workers,
    )

    rtimeout = _request_timeout()
    print(
        f"service:         batch max {_batch_max()} (PYGB_BATCH_MAX)   "
        f"workers {_serve_workers()} (PYGB_SERVE_WORKERS)   "
        f"request timeout "
        f"{f'{rtimeout:g}s' if rtimeout else 'disabled'} (PYGB_REQUEST_TIMEOUT)"
    )
    sstats = _service.stats()
    print(
        f"service activity: {sstats['requests']} requests, "
        f"{sstats['batches']} batches "
        f"({sstats['batched_requests']} batched, "
        f"{sstats['fused_runs']} fused runs over {sstats['fused_sources']} sources), "
        f"{sstats['timeouts']} timeouts, "
        f"{sstats['errors'] + sstats['protocol_errors']} errors, "
        f"{sstats['disconnects']} disconnects"
    )
    from .obs.stats import default_stats_path, load_stats, service_latency_line

    trace_env = config.current().trace
    stats_env = config.current().stats
    print(
        f"observability:   PYGB_TRACE={trace_env or 'unset'}   "
        f"PYGB_STATS={stats_env or 'unset'}"
    )
    stats_path = default_stats_path()
    data = load_stats(stats_path)
    if data and data.get("ops"):
        dispatches = sum(op["count"] for op in data["ops"].values())
        print(
            f"op stats:        {dispatches} traced dispatches across "
            f"{len(data['ops'])} op(s) in {stats_path} "
            "(run `python -m repro stats` for the profile)"
        )
        if latency := service_latency_line(data):
            print(latency)
    else:
        print(
            f"op stats:        none recorded (enable with PYGB_STATS=1 or "
            f"PYGB_TRACE=...; would be stored in {stats_path})"
        )
    return 0


def cmd_stats(args) -> int:
    from .jit.cache import default_cache
    from .obs.stats import default_stats_path, load_stats, render_stats

    path = args.file or default_stats_path()
    if args.reset:
        try:
            os.unlink(path)
            print(f"cleared {path}")
        except FileNotFoundError:
            print(f"nothing to clear at {path}")
        return 0
    data = load_stats(path)
    if not data or not data.get("ops"):
        print(f"no operation stats recorded at {path}")
        print(
            "run a workload with PYGB_STATS=1 (or PYGB_TRACE=chrome:/tmp/t.json) "
            "first, e.g.:\n"
            "    PYGB_STATS=1 python examples/pagerank_webgraph.py\n"
            "    python -m repro stats"
        )
        return 1
    print(f"stats file: {path}")
    print(render_stats(data, cache_stats=default_cache().stats.snapshot()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--engine", choices=["interpreted", "pyjit", "cpp"], default=None,
        help="execution engine (default: $PYGB_BACKEND or pyjit)",
    )
    parser.add_argument(
        "--mode", choices=["blocking", "nonblocking"], default=None,
        help="execution mode (default: $PYGB_MODE or blocking)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="matrix/graph statistics")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("bfs", help="hop distances from a source vertex")
    p.add_argument("file")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_bfs)

    p = sub.add_parser("sssp", help="weighted shortest distances")
    p.add_argument("file")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_sssp)

    p = sub.add_parser("pagerank", help="rank vertices")
    p.add_argument("file")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_pagerank)

    p = sub.add_parser("triangles", help="count triangles (symmetric input)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_triangles)

    p = sub.add_parser("components", help="connected components (symmetric input)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("engines", help="list available execution engines")
    p.set_defaults(fn=cmd_engines)

    p = sub.add_parser(
        "precompile",
        help="pre-build the algorithm kernel cache with concurrent g++ jobs",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="concurrent compile jobs (default: $PYGB_COMPILE_JOBS or auto)",
    )
    p.add_argument(
        "--serial", action="store_true",
        help="warm serial kernels even when OpenMP is available",
    )
    p.set_defaults(fn=cmd_precompile)

    p = sub.add_parser(
        "bake",
        help="bake a redistributable AOT kernel pack (catalog.json + artifacts)",
    )
    p.add_argument(
        "--out", default="pygb_catalog",
        help="pack output directory (default: ./pygb_catalog)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="concurrent compile jobs (default: $PYGB_COMPILE_JOBS or auto)",
    )
    flavour = p.add_mutually_exclusive_group()
    flavour.add_argument(
        "--parallel", action="store_true",
        help="bake OpenMP cpp kernels even when the engine default is serial",
    )
    flavour.add_argument(
        "--serial", action="store_true",
        help="bake serial cpp kernels even when OpenMP is available",
    )
    p.set_defaults(fn=cmd_bake)

    p = sub.add_parser(
        "serve",
        help="serve preloaded graphs to concurrent clients over line-JSON TCP",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8765,
        help="port to bind (default: 8765; 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--graphs", default=None, metavar="MANIFEST",
        help="JSON manifest of graphs to preload (paths or generators)",
    )
    p.add_argument(
        "--catalog", default=None, metavar="PACK",
        help="AOT kernel pack to attach (sets PYGB_CATALOG)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "doctor",
        help="engine-health report: toolchain, cache integrity, quarantined specs",
    )
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser(
        "stats",
        help="aggregated per-op profile from PYGB_STATS/PYGB_TRACE runs",
    )
    p.add_argument(
        "--file", default=None,
        help="stats JSON to render (default: $PYGB_STATS path or <cache>/stats.json)",
    )
    p.add_argument(
        "--reset", action="store_true",
        help="delete the accumulated stats file instead of rendering it",
    )
    p.set_defaults(fn=cmd_stats)

    args = parser.parse_args(argv)
    if args.engine:
        from .core.context import use_engine

        use_engine(args.engine)
    if args.mode:
        from .core.nonblocking import set_mode

        set_mode(args.mode)
    try:
        return args.fn(args)
    finally:
        if args.mode == "nonblocking":
            from .core.nonblocking import wait

            wait()  # drain the lazy queue before the process reports done


if __name__ == "__main__":
    raise SystemExit(main())
