"""OpenMP-parallel kernels and the concurrent compilation path.

Three properties under test:

* parallel kernels produce the same sparsity pattern as the interpreted
  engine bit-for-bit, with values allclose (row-parallel kernels are
  bit-identical; vxm/reduce re-associate float addition);
* the cache is safe and deduplicating under concurrent ``get_module``
  callers — same-spec racers compile once, distinct specs in parallel;
* a compiler that rejects ``-fopenmp`` silently degrades to serial
  kernels that still agree with the reference.
"""

from __future__ import annotations

import stat
import threading

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine
from repro.jit.cache import JitCache
from repro.jit.cppengine import toolchain_works
from repro.jit.spec import KernelSpec

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

pytestmark = [
    pytest.mark.cpp,
    pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
]

# large enough to trip every kernel's "worth parallelising" row/nnz guard
N = 512


@pytest.fixture(scope="module")
def interp():
    return InterpretedEngine()


@pytest.fixture
def par_engine(monkeypatch):
    """A cpp engine with parallel dispatch forced on and 4 OpenMP threads
    (thread count is a runtime knob, so this works on any machine)."""
    from repro.jit.cppengine import CppJitEngine

    monkeypatch.setenv("PYGB_PARALLEL", "1")
    monkeypatch.setenv("PYGB_THREADS", "4")
    engine = CppJitEngine()
    if not engine.parallel_enabled():
        pytest.skip("compiler has no OpenMP support")
    return engine


def _vs(d, size=N, dtype=np.float64):
    return vec_from_dict(d, size, dtype)._store


def _ms(d, nrows=N, ncols=N, dtype=np.float64):
    return mat_from_dict(d, nrows, ncols, dtype)._store


def _same_pattern_close(got, want):
    g, w = got.to_dict(), want.to_dict()
    assert g.keys() == w.keys()
    for k, v in g.items():
        assert v == pytest.approx(w[k], rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# parallel kernels vs the interpreted reference
# ----------------------------------------------------------------------
class TestParallelKernelsMatchReference:
    def test_mxv(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        desc = OpDesc()
        got = par_engine.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", desc)
        want = interp.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    def test_mxv_masked(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        mask = random_vec_dict(rng, N, density=0.5, dtype=np.bool_)
        for comp in (False, True):
            def desc():
                return OpDesc(
                    mask=_vs(mask, dtype=np.bool_), complement=comp, replace=True
                )
            got = par_engine.mxv(_vs({}), _ms(a), _vs(u), "Min", "Plus", desc())
            want = interp.mxv(_vs({}), _ms(a), _vs(u), "Min", "Plus", desc())
            _same_pattern_close(got, want)

    def test_vxm(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        u = random_vec_dict(rng, N, density=0.5)
        got = par_engine.vxm(_vs({}), _vs(u), _ms(a), "Plus", "Times", OpDesc())
        want = interp.vxm(_vs({}), _vs(u), _ms(a), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    def test_mxm(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.01)
        b = random_mat_dict(rng, N, N, density=0.01)
        got = par_engine.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        want = interp.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        _same_pattern_close(got, want)

    @pytest.mark.parametrize("func", ["ewise_add_mat", "ewise_mult_mat"])
    def test_ewise_mat(self, par_engine, interp, rng, func):
        a = random_mat_dict(rng, N, N, density=0.02)
        b = random_mat_dict(rng, N, N, density=0.02)
        got = getattr(par_engine, func)(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        want = getattr(interp, func)(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        _same_pattern_close(got, want)

    def test_apply_mat(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        op = ("bind", "Times", 2.5, "second")
        got = par_engine.apply_mat(_ms({}), _ms(a), op, OpDesc())
        want = interp.apply_mat(_ms({}), _ms(a), op, OpDesc())
        _same_pattern_close(got, want)

    def test_reduce_rows(self, par_engine, interp, rng):
        a = random_mat_dict(rng, N, N, density=0.02)
        got = par_engine.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        want = interp.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        _same_pattern_close(got, want)

    def test_reduce_scalar_large(self, par_engine, interp, rng):
        # > 2*32768 entries so the blocked parallel reduction engages
        size = 1 << 18
        idx = np.arange(0, size, 2, dtype=np.int64)
        vals = rng.uniform(-10, 10, size=idx.size)
        u = SparseVector.from_sorted(size, idx, vals)
        got = par_engine.reduce_vec_scalar(u, "Plus", None)
        want = interp.reduce_vec_scalar(u, "Plus", None)
        assert got == pytest.approx(want, rel=1e-9)

    def test_row_parallel_kernels_bit_identical_to_serial(self, par_engine, rng, monkeypatch):
        """Row-parallel kernels keep the serial per-row fold order, so the
        parallel artifact must agree with the serial one to the last bit."""
        a = random_mat_dict(rng, N, N, density=0.02)
        b = random_mat_dict(rng, N, N, density=0.01)
        u = random_vec_dict(rng, N, density=0.5)
        par_v = par_engine.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
        par_m = par_engine.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        monkeypatch.setenv("PYGB_PARALLEL", "0")
        assert not par_engine.parallel_enabled()
        ser_v = par_engine.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
        ser_m = par_engine.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc())
        assert np.array_equal(par_v.indices, ser_v.indices)
        assert np.array_equal(par_v.values, ser_v.values)
        assert np.array_equal(par_m.indptr, ser_m.indptr)
        assert np.array_equal(par_m.indices, ser_m.indices)
        assert np.array_equal(par_m.values, ser_m.values)


# ----------------------------------------------------------------------
# serial/parallel artifacts coexist in one cache
# ----------------------------------------------------------------------
def test_parallel_flag_changes_spec_hash():
    base = dict(a="float64", u="float64", c="float64", t_dtype="float64",
                add="Plus", mult="Times")
    serial = KernelSpec.make("mxv", **base)
    par = KernelSpec.make("mxv", **base, par=True)
    assert serial.key_hash != par.key_hash
    assert "par" not in serial.key  # old serial key shape is unchanged


def test_serial_and_parallel_artifacts_coexist(par_engine, rng, monkeypatch):
    cache_dir = par_engine.cache.cache_dir
    a = random_mat_dict(rng, N, N, density=0.02)
    u = random_vec_dict(rng, N, density=0.5)
    par_engine.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
    monkeypatch.setenv("PYGB_PARALLEL", "0")
    par_engine.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc())
    base = dict(a="float64", u="float64", c="float64", t_dtype="float64",
                add="Plus", mult="Times", accum="none", comp=0, mask="none",
                repl=0)
    serial = KernelSpec.make("mxv", **base)
    par = KernelSpec.make("mxv", **base, par=True)
    assert (cache_dir / f"{serial.module_stem}.so").exists()
    assert (cache_dir / f"{par.module_stem}.so").exists()


# ----------------------------------------------------------------------
# concurrent get_module: dedupe per spec, parallel across specs
# ----------------------------------------------------------------------
def test_concurrent_get_module_compiles_each_spec_once(tmp_path):
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("fake", variant=i) for i in range(4)]
    compile_counts: dict[str, int] = {}
    counts_lock = threading.Lock()

    def generate(spec):
        return f"# generated for {spec.key}\n"

    def compiler(src_path, out_path):
        with counts_lock:
            name = out_path.name
            compile_counts[name] = compile_counts.get(name, 0) + 1
        out_path.write_text("binary")

    n_threads = 16
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def worker(i):
        try:
            barrier.wait()
            spec = specs[i % len(specs)]
            results[i] = cache.get_module(
                spec, generate, suffix=".cpp", compiler=compiler
            )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert all(r is not None for r in results)
    # every spec compiled exactly once despite 4 racers each
    assert sorted(compile_counts.values()) == [1, 1, 1, 1]
    assert cache.stats.compiles == 4
    assert cache.stats.memory_hits == n_threads - 4


def test_precompile_report_and_idempotence(tmp_path):
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("fake", variant=i) for i in range(6)]

    def generate(spec):
        return "source\n"

    def compiler(src_path, out_path):
        out_path.write_text("binary")

    jobs = [(s, generate, ".cpp", compiler) for s in specs]
    report = cache.precompile(jobs, max_workers=3)
    assert report["requested"] == 6
    assert report["compiled"] == 6
    assert report["failed"] == []
    assert report["jobs"] == 3

    again = cache.precompile(jobs, max_workers=3)
    assert again["compiled"] == 0
    assert again["memory_hits"] == 6


def test_precompile_collects_failures(tmp_path):
    cache = JitCache(tmp_path)

    def generate(spec):
        return "source\n"

    def bad_compiler(src_path, out_path):
        raise RuntimeError("boom")

    report = cache.precompile(
        [(KernelSpec.make("fake", variant="bad"), generate, ".cpp", bad_compiler)]
    )
    assert report["compiled"] == 0
    assert len(report["failed"]) == 1
    assert "boom" in report["failed"][0][1]


# ----------------------------------------------------------------------
# cache warming covers the algorithms (drift guard)
# ----------------------------------------------------------------------
def test_warm_cache_covers_algorithms(rng, no_faults):
    """After warm_cache, running every bundled algorithm (operation-wise
    and whole-module) must be all cache hits — zero inline compiles.
    (Compile-count exact, so ambient chaos injection is opted out: an
    injected ``kernel_fail`` on a cpp dispatch falls back to pyjit,
    whose module is an inline compile warm_cache never promised.)"""
    from repro.algorithms import (
        bfs_levels,
        connected_components,
        lower_triangle,
        pagerank,
        sssp_distances,
        triangle_count,
    )
    from repro.algorithms.compiled import (
        bfs_compiled,
        pagerank_compiled,
        sssp_compiled,
        triangle_count_compiled,
    )
    from repro.io.generators import erdos_renyi, grid_graph, scale_free
    from repro.jit.cache import default_cache
    from repro.jit.precompile import warm_cache

    report = warm_cache()
    assert report["failed"] == []

    cache = default_cache()
    before = cache.stats.compiles
    with gb.use_engine("cpp"):
        g = erdos_renyi(12, seed=3)
        bfs_levels(g, 0)
        wg = grid_graph(4, weighted=True, seed=5, dtype=float)
        sssp_distances(wg, 0)
        pg = scale_free(12, seed=7)
        pr = gb.Vector(shape=(12,), dtype=float)
        pagerank(pg, pr, threshold=1e-6)
        r, c, _ = g.to_coo()
        A = gb.Matrix(
            (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=g.shape, dtype=int,
        )
        L = lower_triangle(A)
        triangle_count(L)
        connected_components(g)
    bfs_compiled(g._store, 0)
    sssp_compiled(wg._store, 0)
    pagerank_compiled(pg._store)
    triangle_count_compiled(L._store)
    assert cache.stats.compiles == before, (
        "algorithms compiled kernels warm_cache missed — update the "
        "traced uses of their rows in repro.jit.kernels.KERNELS"
    )


# ----------------------------------------------------------------------
# silent serial fallback when the compiler rejects -fopenmp
# ----------------------------------------------------------------------
def test_serial_fallback_without_openmp(tmp_path, rng, monkeypatch):
    from repro.jit.cppengine import CppJitEngine, find_cxx_compiler, openmp_available

    real = find_cxx_compiler()
    wrapper = tmp_path / "noomp-g++"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do\n'
        '  [ "$a" = "-fopenmp" ] && { echo "error: unrecognized option" >&2; exit 1; }\n'
        "done\n"
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)

    monkeypatch.setenv("PYGB_CXX", str(wrapper))
    monkeypatch.setenv("PYGB_PARALLEL", "1")
    engine = CppJitEngine(JitCache(tmp_path / "cache"))
    assert engine.cxx == str(wrapper)
    assert not openmp_available(engine.cxx)
    assert not engine.parallel_enabled()  # silent fallback, no error

    n = 32
    a = random_mat_dict(rng, n, n, density=0.2)
    u = random_vec_dict(rng, n, density=0.5)
    got = engine.mxv(
        _vs({}, n), _ms(a, n, n), _vs(u, n), "Plus", "Times", OpDesc()
    )
    want = InterpretedEngine().mxv(
        _vs({}, n), _ms(a, n, n), _vs(u, n), "Plus", "Times", OpDesc()
    )
    _same_pattern_close(got, want)


# ----------------------------------------------------------------------
# the CLI entry point
# ----------------------------------------------------------------------
def test_precompile_cli(capsys):
    from repro.__main__ import main

    assert main(["precompile", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "compiler:" in out
    assert "warmed" in out
