#!/usr/bin/env python3
"""Paper-figure reproduction harness.

Regenerates the series behind every evaluation figure of the paper and
prints them as tables::

    python benchmarks/harness.py fig10     # 4 algorithms × 3 versions × sizes
    python benchmarks/harness.py fig11     # construct/read/extract timings
    python benchmarks/harness.py compile   # JIT compilation-time experiment
    python benchmarks/harness.py all

Version definitions (paper Sec. VI):

* **v1 PyGB/loops** — DSL code, Python outer loops, one JIT kernel per op
  (``cpp`` engine when a compiler exists, else ``pyjit``);
* **v2 PyGB/compiled-algorithm** — Python calls the whole algorithm as a single
  JIT-compiled C++ module (wall time includes the FFI crossing);
* **v3 native** — the same module's internal ``std::chrono`` time
  (no Python on the measured path).  Without a compiler, the native
  backend-kernel implementation is reported instead.

Results are also written to ``benchmarks/results/*.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import numpy as np

import repro as gb
from repro.algorithms import (
    bfs_levels,
    bfs_native,
    lower_triangle,
    pagerank,
    pagerank_native,
    sssp_converging,
    sssp_native,
    triangle_count,
    triangle_count_native,
)
from repro.io.generators import erdos_renyi, erdos_renyi_coo, scale_free
from repro.io.fastload import fast_loader_available, mmread_fast
from repro.io.matrixmarket import mmread, mmwrite
from repro.jit.cppengine import compiler_available

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SIZES = [256, 512, 1024, 2048, 4096]
PR_SIZES = [256, 512, 1024]
REPEATS = 5
PR_THRESHOLD = 1.0e-8


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median wall-clock seconds of *fn* over *repeats* runs (after one
    untimed warm-up that also populates the JIT caches)."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _median_native_ns(fn, repeats: int = REPEATS) -> float:
    """Median of the elapsed_ns an (result, elapsed_ns) callable reports."""
    fn()
    return statistics.median(fn()[1] for _ in range(repeats)) / 1e9


def _print_table(title: str, header: list[str], rows: list[list]) -> None:
    print(f"\n== {title} ==")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _save(name: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=2))


# ----------------------------------------------------------------------
# Fig. 10
# ----------------------------------------------------------------------


def _tc_input(n: int) -> "gb.Matrix":
    g = erdos_renyi(n, seed=42)
    r, c, _ = g.to_coo()
    sym = gb.Matrix(
        (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=g.shape, dtype=np.int64,
    )
    return lower_triangle(sym)


def _fig10_algorithms(has_cpp: bool):
    """algorithm -> (sizes, make_input, v1, v2, v3) closures."""
    if has_cpp:
        from repro.algorithms import compiled as C

    def bfs_family():
        def make(n):
            g = erdos_renyi(n, seed=42)
            g._store.transposed()
            return g

        v1 = lambda g: bfs_levels(g, 0)
        v2 = (lambda g: C.bfs_compiled(g._store, 0)) if has_cpp else None
        v3 = (
            (lambda g: _median_native_ns(lambda: C.bfs_compiled(g._store, 0)))
            if has_cpp
            else (lambda g: _median_time(lambda: bfs_native(g._store, 0)))
        )
        return SIZES, make, v1, v2, v3

    def sssp_family():
        def make(n):
            g = erdos_renyi(n, seed=42, weighted=True, dtype=float)
            g._store.transposed()
            return g

        def v1(g):
            path = gb.Vector(([0.0], [0]), shape=(g.nrows,), dtype=float)
            sssp_converging(g, path)

        v2 = (lambda g: C.sssp_compiled(g._store, 0)) if has_cpp else None
        v3 = (
            (lambda g: _median_native_ns(lambda: C.sssp_compiled(g._store, 0)))
            if has_cpp
            else (lambda g: _median_time(lambda: sssp_native(g._store, 0)))
        )
        return SIZES, make, v1, v2, v3

    def pagerank_family():
        make = lambda n: scale_free(n, seed=42)

        def v1(g):
            ranks = gb.Vector(shape=(g.nrows,), dtype=float)
            pagerank(g, ranks, threshold=PR_THRESHOLD)

        v2 = (
            (lambda g: C.pagerank_compiled(g._store, threshold=PR_THRESHOLD))
            if has_cpp
            else None
        )
        v3 = (
            (
                lambda g: _median_native_ns(
                    lambda: C.pagerank_compiled(g._store, threshold=PR_THRESHOLD)
                )
            )
            if has_cpp
            else (
                lambda g: _median_time(
                    lambda: pagerank_native(g._store, threshold=PR_THRESHOLD)
                )
            )
        )
        return PR_SIZES, make, v1, v2, v3

    def tc_family():
        def make(n):
            L = _tc_input(n)
            L._store.transposed()
            return L

        v1 = triangle_count
        v2 = (lambda L: C.triangle_count_compiled(L._store)) if has_cpp else None
        v3 = (
            (lambda L: _median_native_ns(lambda: C.triangle_count_compiled(L._store)))
            if has_cpp
            else (lambda L: _median_time(lambda: triangle_count_native(L._store)))
        )
        return SIZES, make, v1, v2, v3

    return {
        "bfs": bfs_family(),
        "sssp": sssp_family(),
        "pagerank": pagerank_family(),
        "triangle_count": tc_family(),
    }


def run_fig10() -> None:
    has_cpp = compiler_available()
    v1_engine = "cpp" if has_cpp else "pyjit"
    print(
        f"\nFig. 10 reproduction — v1 engine: {v1_engine};"
        f" v2/v3 {'compiled C++ modules' if has_cpp else 'native NumPy kernels'}"
    )
    payload = {"v1_engine": v1_engine, "algorithms": {}}
    algorithms = _fig10_algorithms(has_cpp)
    if has_cpp:
        # the first second or so of a process, both threads of an OpenMP
        # team can share one core and every parallel region then costs a
        # scheduler slice (~8 ms on 2 vCPUs); bench_e2e warms up 3 s for
        # the same reason.  Without this the first family's small sizes
        # read 30 ms in v2/v3.
        sizes, make, _v1, v2, _v3 = next(iter(algorithms.values()))
        inp = make(sizes[-1])
        deadline = time.perf_counter() + 3.0
        while time.perf_counter() < deadline:
            v2(inp)
    for name, (sizes, make, v1, v2, v3) in algorithms.items():
        rows = []
        series = []
        for n in sizes:
            inp = make(n)
            with gb.use_engine(v1_engine):
                t1 = _median_time(lambda: v1(inp))
            t2 = _median_time(lambda: v2(inp)) if v2 else float("nan")
            t3 = v3(inp)
            ratio = t1 / t3 if t3 > 0 else float("inf")
            rows.append(
                [n, _fmt(t1), _fmt(t2) if v2 else "-", _fmt(t3), f"{ratio:.2f}x"]
            )
            series.append({"n": n, "v1": t1, "v2": t2 if v2 else None, "v3": t3})
        payload["algorithms"][name] = series
        _print_table(
            f"Fig. 10 / {name}",
            ["|V|", "v1 PyGB loops", "v2 compiled-call", "v3 native", "v1/v3"],
            rows,
        )
    _save("fig10", payload)
    print(
        "\nExpected shape (paper Sec. VI): the v1/v3 ratio decays toward 1 as |V|"
        " grows; v2 tracks v3 up to a constant FFI/marshalling cost."
    )


# ----------------------------------------------------------------------
# Fig. 11
# ----------------------------------------------------------------------


def run_fig11() -> None:
    import tempfile

    rows = []
    payload = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            r, c, _ = erdos_renyi_coo(n, seed=7)
            vals = np.linspace(1.0, 2.0, r.size)
            lists = (vals.tolist(), (r.tolist(), c.tolist()))
            m = gb.Matrix((vals, (r, c)), shape=(n, n))
            path = Path(tmp) / f"er_{n}.mtx"
            mmwrite(path, m)
            t_read = _median_time(lambda: mmread(path))
            t_fast = (
                _median_time(lambda: mmread_fast(path))
                if fast_loader_available()
                else float("nan")
            )
            t_list = _median_time(lambda: gb.Matrix(lists, shape=(n, n)))
            t_np = _median_time(lambda: gb.Matrix((vals, (r, c)), shape=(n, n)))
            t_out = _median_time(m.to_coo)
            rng = np.random.default_rng(7)
            writes = list(zip(rng.integers(n, size=16).tolist(), rng.integers(n, size=16).tolist(),
                              rng.uniform(1.0, 2.0, size=16).tolist()))

            def mutate(store=m._store, writes=writes):
                # a fresh container over the same immutable store, so
                # every sample pays the inserts; nvals is the observation
                fresh = gb.Matrix(store)
                for i, j, v in writes:
                    fresh[i, j] = v
                return fresh.nvals

            t_set = _median_time(mutate)
            rows.append(
                [n, m.nvals, _fmt(t_read),
                 _fmt(t_fast) if fast_loader_available() else "-",
                 _fmt(t_list), _fmt(t_np), _fmt(t_set), _fmt(t_out)]
            )
            payload.append(
                {"n": n, "nnz": m.nvals, "read_file": t_read, "read_file_cpp": t_fast,
                 "from_lists": t_list, "from_numpy": t_np, "set_16_elements": t_set,
                 "extract": t_out}
            )
    _print_table(
        "Fig. 11 / container construction, point mutation & extraction",
        ["|V|", "nnz", "read file", "read file (C++)", "from lists", "from numpy",
         "16 element writes", "extract"],
        rows,
    )
    _save("fig11", payload)
    print(
        "\nExpected shape (paper Sec. VI): the file read dominates; in-memory"
        " construction and extraction are far cheaper at every size."
    )


# ----------------------------------------------------------------------
# compilation times
# ----------------------------------------------------------------------


def run_compile() -> None:
    import tempfile

    from repro.jit.cache import JitCache
    from repro.jit.pycodegen import generate_source
    from repro.jit.spec import KernelSpec

    rows = []
    payload = {}

    def spec(tag=0, **extra):
        base = dict(
            a="float64", u="float64", c="float64", t_dtype="float64",
            add="Plus", mult="Times", ta=False,
            mask="none", comp=False, repl=False, accum="none", tag=tag,
        )
        base.update(extra)
        return KernelSpec.make("mxv", **base)

    with tempfile.TemporaryDirectory() as tmp:
        cache = JitCache(tmp)
        # pyjit cold: unique spec per sample
        samples = []
        for i in range(20):
            t0 = time.perf_counter()
            cache.get_module(spec(tag=1000 + i), generate_source)
            samples.append(time.perf_counter() - t0)
        cold = statistics.median(samples)
        # disk hit
        s = spec()
        cache.get_module(s, generate_source)
        samples = []
        for _ in range(50):
            cache.clear_memory()
            t0 = time.perf_counter()
            cache.get_module(s, generate_source)
            samples.append(time.perf_counter() - t0)
        disk = statistics.median(samples)
        # memory hit
        mem = _median_time(lambda: cache.get_module(s, generate_source), repeats=50)
        rows.append(["pyjit", _fmt(cold), _fmt(disk), f"{mem * 1e6:.1f}us"])
        payload["pyjit"] = {"cold": cold, "disk": disk, "memory": mem}

    if compiler_available():
        from repro.jit.cppcodegen import generate_cpp_source
        from repro.jit.cppengine import CppJitEngine

        with tempfile.TemporaryDirectory() as tmp:
            eng = CppJitEngine(JitCache(tmp))
            samples = []
            for i in range(4):
                t0 = time.perf_counter()
                eng.cache.get_module(
                    spec(tag=2000 + i), generate_cpp_source,
                    suffix=".cpp", compiler=eng._compile,
                )
                samples.append(time.perf_counter() - t0)
            cold = statistics.median(samples)
            s = spec()
            eng.cache.get_module(s, generate_cpp_source, suffix=".cpp", compiler=eng._compile)
            samples = []
            for _ in range(20):
                eng.cache.clear_memory()
                t0 = time.perf_counter()
                eng.cache.get_module(
                    s, generate_cpp_source, suffix=".cpp", compiler=eng._compile
                )
                samples.append(time.perf_counter() - t0)
            disk = statistics.median(samples)
            mem = _median_time(
                lambda: eng.cache.get_module(
                    s, generate_cpp_source, suffix=".cpp", compiler=eng._compile
                ),
                repeats=50,
            )
            rows.append(["cpp (g++)", _fmt(cold), _fmt(disk), f"{mem * 1e6:.1f}us"])
            payload["cpp"] = {"cold": cold, "disk": disk, "memory": mem}

    _print_table(
        "JIT compilation times (Fig. 9 pipeline)",
        ["generator", "cold compile", "disk hit", "memory hit"],
        rows,
    )
    _save("compile_times", payload)
    print(
        "\nExpected shape (paper Sec. VI): the cold g++ compile is a one-time cost"
        " comparable to compiling native GBTL; disk/memory hits amortise it away."
    )


def main(argv: list[str]) -> int:
    what = argv[1] if len(argv) > 1 else "all"
    if what in ("fig10", "all"):
        run_fig10()
    if what in ("fig11", "all"):
        run_fig11()
    if what in ("compile", "all"):
        run_compile()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
