"""Fault-tolerance suite for the resilient JIT runtime.

Exercises every recovery path the resilience layer promises: compile
failures and timeouts, corrupt/truncated artifacts, dlopen failures,
unwritable cache directories, quarantine/backoff semantics, strict
mode (``JitFallbackWarning`` made an error by the warnings filter), and
the acceptance criterion that a
machine with a broken compiler still runs every bundled algorithm
correctly with exactly one warning per quarantined kernel spec.
"""

import os
import subprocess
import time
import warnings

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.core.dispatch import (
    InterpretedEngine,
    ResilientEngine,
    make_engine,
)
from repro.exceptions import (
    BackendUnavailable,
    CompilationError,
    JitFallbackWarning,
    KernelQuarantined,
)
from repro.jit.cache import CACHE_FORMAT_VERSION, JitCache
from repro.jit.health import DEFAULT_RETRIES, EngineHealth
from repro.jit.pycodegen import generate_source
from repro.jit.pyengine import PyJitEngine
from repro.jit.spec import CODEGEN_VERSION, KernelSpec
from repro.testing import FAULTS, fault_injection


@pytest.fixture(autouse=True)
def _clean_faults():
    """No fault rule may leak between tests (or in from the env)."""
    FAULTS.clear()
    yield
    FAULTS.clear()


def _have_compiler() -> bool:
    from repro.jit.cppengine import toolchain_works

    return toolchain_works()


needs_cxx = pytest.mark.skipif(not _have_compiler(), reason="no C++ toolchain")


def _spec(**extra):
    base = dict(
        a="float64", b="float64", c="float64", t_dtype="float64",
        op="Plus", mask="none", comp=False, repl=False, accum="none",
    )
    base.update(extra)
    return KernelSpec.make("ewise_add_vec", **base)


def _vec_args():
    u = SparseVector.from_sorted(8, np.arange(8), np.arange(8, dtype=np.float64))
    v = SparseVector.from_sorted(8, np.arange(8), np.ones(8))
    out = SparseVector.empty(8, np.float64)
    return out, u, v


_EXPECTED = InterpretedEngine().ewise_add_vec(*_vec_args(), "Plus", OpDesc()).values


def _cpp_chain(tmp_path):
    from repro.jit.cppengine import CppJitEngine

    cache = JitCache(tmp_path)
    return cache, ResilientEngine(
        [CppJitEngine(cache), PyJitEngine(cache), InterpretedEngine()]
    )


# ----------------------------------------------------------------------
# the fault plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rate_one_fires_every_call(self):
        with fault_injection("compile_fail", rate=1.0):
            assert [FAULTS.fire("compile_fail") for _ in range(4)] == [True] * 4

    def test_half_rate_is_deterministic(self):
        with fault_injection("compile_fail", rate=0.5):
            pattern = [FAULTS.fire("compile_fail") for _ in range(6)]
        # first eligible call always fires, then every other one
        assert pattern == [True, False, True, False, True, False]

    def test_times_bounds_firing(self):
        with fault_injection("compile_fail", rate=1.0, times=2):
            assert [FAULTS.fire("compile_fail") for _ in range(4)] == [
                True, True, False, False,
            ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FAULTS.install("explode_randomly")

    def test_env_var_configures_plan(self, monkeypatch):
        monkeypatch.setenv("PYGB_FAULT", "compile_fail:0.5,slow_compile")
        active = FAULTS.active()
        assert active["compile_fail"]["rate"] == 0.5
        assert active["slow_compile"]["rate"] == 1.0
        monkeypatch.setenv("PYGB_FAULT", "")
        assert FAULTS.active() == {}

    def test_env_var_bad_kind_raises(self, monkeypatch):
        # the tile-worker kinds went with the row-tile fan-out: an old
        # chaos setting must fail loudly, not inject nothing
        for raw in ("no_such_fault", "worker_crash:0.05", "worker_hang"):
            with monkeypatch.context() as patch, pytest.raises(ValueError):
                patch.setenv("PYGB_FAULT", raw)

    def test_context_manager_clears_on_exit(self):
        with fault_injection("dlopen_fail"):
            assert "dlopen_fail" in FAULTS.active()
        assert FAULTS.active() == {}


# ----------------------------------------------------------------------
# quarantine / circuit breaker
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_failure_quarantines_and_warns_once(self):
        health = EngineHealth(backoff=60.0)
        err = CompilationError("boom")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert health.record_failure("cpp", "k1", err) is True
            assert health.record_failure("cpp", "k1", err) is False
        assert len(caught) == 1
        assert issubclass(caught[0].category, JitFallbackWarning)
        with pytest.raises(KernelQuarantined):
            health.check("cpp", "k1")

    def test_backoff_expiry_allows_half_open_retry(self):
        health = EngineHealth(retries=5, backoff=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            health.record_failure("cpp", "k1", CompilationError("x"))
        time.sleep(0.05)
        health.check("cpp", "k1")  # must not raise once backoff expired

    def test_quarantine_permanent_after_max_attempts(self):
        health = EngineHealth(retries=2, backoff=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            health.record_failure("cpp", "k1", CompilationError("x"))
            time.sleep(0.01)
            health.record_failure("cpp", "k1", CompilationError("x"))
        snap = health.snapshot()
        assert snap["specs"][0]["state"] == "quarantined (permanent)"
        time.sleep(0.02)
        with pytest.raises(KernelQuarantined):
            health.check("cpp", "k1")

    def test_success_clears_the_record(self):
        health = EngineHealth(backoff=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            health.record_failure("cpp", "k1", CompilationError("x"))
        health.record_success("cpp", "k1")
        assert health.snapshot()["specs"] == []
        health.check("cpp", "k1")  # healthy again

    def test_retries_env_override(self):
        """``EngineHealth(retries=)`` sets the attempts before a spec's
        quarantine is permanent; the default is ``DEFAULT_RETRIES``."""
        for health, retries in ((EngineHealth(retries=7, backoff=0.0), 7),
                                (EngineHealth(backoff=0.0), DEFAULT_RETRIES)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _ in range(retries - 1):
                    health.record_failure("cpp", "k1", CompilationError("x"))
                assert health.snapshot()["specs"][0]["state"] == "retry allowed"
                health.record_failure("cpp", "k1", CompilationError("x"))
            assert health.snapshot()["specs"][0]["state"] == "quarantined (permanent)"
        assert DEFAULT_RETRIES == 3

    def test_strict_mode_raises_and_still_records(self):
        """With ``JitFallbackWarning`` an error, the first failure of a
        spec raises it, and the failure is recorded for ``doctor``."""
        health = EngineHealth(retries=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", JitFallbackWarning)
            with pytest.raises(JitFallbackWarning, match="k1"):
                health.record_failure("cpp", "k1", CompilationError("x"))
        assert health.snapshot()["failures"] == 1


# ----------------------------------------------------------------------
# pyjit fallback chain (no compiler required)
# ----------------------------------------------------------------------
class TestPyJitFallback:
    def test_pyjit_failure_falls_back_to_interpreted(self, tmp_path):
        cache = JitCache(tmp_path)
        eng = ResilientEngine([PyJitEngine(cache), InterpretedEngine()])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with fault_injection("pyjit_fail", rate=1.0):
                result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)
        fallback_warnings = [
            w for w in caught if issubclass(w.category, JitFallbackWarning)
        ]
        assert len(fallback_warnings) == 1
        assert cache.stats.jit_failures == 1
        assert cache.stats.fallbacks == 1

    def test_make_engine_wraps_pyjit_in_fallback_chain(self):
        from repro.guard import GuardedEngine

        eng = make_engine("pyjit")
        # composition order: Guard(Resilient(pyjit -> interpreted))
        assert isinstance(eng, GuardedEngine)
        assert isinstance(eng._inner, ResilientEngine)
        assert eng.name == "pyjit"  # chain reports the primary's name

    def test_strict_mode_raises_through_dsl(self, tmp_path):
        """Strict mode is the warnings filter: the chain's degradation
        raises out of the DSL statement instead of running on the
        interpreter."""
        eng = ResilientEngine([PyJitEngine(JitCache(tmp_path)), InterpretedEngine()])
        u = gb.Vector([1.0, 2.0])
        with gb.use_engine(eng), fault_injection("pyjit_fail", rate=1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", JitFallbackWarning)
                with pytest.raises(JitFallbackWarning) as exc_info:
                    gb.Vector(u + u)
        assert isinstance(exc_info.value.__context__, CompilationError)


# ----------------------------------------------------------------------
# C++ engine fault paths
# ----------------------------------------------------------------------
@pytest.mark.cpp
@needs_cxx
class TestCppFaults:
    def test_compile_failure_quarantines_and_falls_back(self, tmp_path):
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with fault_injection("compile_fail", rate=1.0):
                result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)
        assert len([w for w in caught
                    if issubclass(w.category, JitFallbackWarning)]) == 1
        assert cache.stats.jit_failures == 1
        assert cache.stats.fallbacks == 1
        assert cache.health.snapshot()["failures"] == 1

    def test_quarantined_spec_skips_recompile(self, tmp_path):
        """The second dispatch of a failed spec must not invoke the
        compiler hook again — the circuit breaker fast-fails it."""
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with fault_injection("compile_fail", rate=1.0):
                eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
                fired = FAULTS.active()["compile_fail"]["fired"]
                eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
                assert FAULTS.active()["compile_fail"]["fired"] == fired

    def test_corrupt_artifact_detected_and_rebuilt(self, tmp_path):
        """corrupt_so:0.5 corrupts the first build only; dlopen fails,
        the artifact is invalidated, and the rebuild succeeds."""
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with fault_injection("corrupt_so", rate=0.5):
                result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)
        assert cache.stats.integrity_rebuilds == 1
        # recovery is invisible to health: nothing quarantined
        assert cache.health.snapshot()["specs"] == []

    def test_dlopen_failure_invalidates_and_rebuilds(self, tmp_path):
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with fault_injection("dlopen_fail", rate=0.5):
                result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)

    def test_persistent_dlopen_failure_falls_back(self, tmp_path):
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with fault_injection("dlopen_fail", rate=1.0):
                result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)
        assert cache.stats.jit_failures == 1

    def test_compile_timeout_raises_and_cleans_tmp(self, tmp_path, monkeypatch):
        from repro.jit.cppengine import CppJitEngine

        monkeypatch.setenv("PYGB_COMPILE_TIMEOUT", "0.3")
        cache = JitCache(tmp_path)
        eng = CppJitEngine(cache)
        with fault_injection("slow_compile", rate=1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(CompilationError, match="timed out"):
                    eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert not list(tmp_path.glob("*.tmp"))

    def test_double_fault_reaches_interpreted(self, tmp_path):
        cache, eng = _cpp_chain(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            FAULTS.install("compile_fail", rate=1.0)
            FAULTS.install("pyjit_fail", rate=1.0)
            result = eng.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert np.allclose(result.values, _EXPECTED)
        assert cache.stats.fallbacks == 2  # cpp -> pyjit -> interpreted


class TestCompileTimeoutConfig:
    def test_default(self, monkeypatch):
        from repro.jit.cppengine import DEFAULT_COMPILE_TIMEOUT, compile_timeout

        monkeypatch.delenv("PYGB_COMPILE_TIMEOUT", raising=False)
        assert compile_timeout() == DEFAULT_COMPILE_TIMEOUT

    def test_env_override_and_disable(self, monkeypatch):
        from repro.jit.cppengine import compile_timeout

        monkeypatch.setenv("PYGB_COMPILE_TIMEOUT", "7.5")
        assert compile_timeout() == 7.5
        monkeypatch.setenv("PYGB_COMPILE_TIMEOUT", "0")
        assert compile_timeout() is None


# ----------------------------------------------------------------------
# cache-directory resilience
# ----------------------------------------------------------------------
class TestCacheDirResilience:
    def test_uncreatable_cache_dir_relocates_with_warning(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should go")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = JitCache(blocker / "cache")
        assert cache.relocated
        assert cache.cache_dir.is_dir()
        assert any(issubclass(w.category, JitFallbackWarning) for w in caught)
        # and the relocated cache is fully functional
        mod = cache.get_module(_spec(), generate_source)
        assert hasattr(mod, "run")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
    def test_readonly_cache_dir_relocates(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o555)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cache = JitCache(ro)
            assert cache.relocated
            assert cache.cache_dir != ro
        finally:
            ro.chmod(0o755)

    def test_writable_cache_dir_not_relocated(self, tmp_path):
        cache = JitCache(tmp_path)
        assert not cache.relocated
        assert cache.cache_dir == tmp_path


class TestTmpSweep:
    def test_dead_writer_tmp_swept_live_and_fresh_kept(self, tmp_path):
        # pre-stamp the directory so the format-version sweep (which
        # clears everything pygb_* in an unstamped dir) stays out of the way
        (tmp_path / "CACHE_FORMAT").write_text(f"{CACHE_FORMAT_VERSION}\n")
        proc = subprocess.Popen(["true"])
        proc.wait()  # reaped: the pid is now dead
        dead = tmp_path / f"pygb_x.py.{proc.pid}.140000000.tmp"
        dead.write_text("")
        mine = tmp_path / f"pygb_y.py.{os.getpid()}.140000000.tmp"
        mine.write_text("")
        odd_fresh = tmp_path / "strange.tmp"
        odd_fresh.write_text("")
        odd_old = tmp_path / "ancient.tmp"
        odd_old.write_text("")
        two_hours_ago = time.time() - 7200
        os.utime(odd_old, (two_hours_ago, two_hours_ago))

        cache = JitCache(tmp_path)
        assert not dead.exists()
        assert mine.exists()  # our own pid is alive
        assert odd_fresh.exists()  # unparseable but young: grace period
        assert not odd_old.exists()  # unparseable and stale
        assert cache.stats.tmp_swept == 2


class TestFormatStamp:
    def test_stale_format_sweeps_artifacts(self, tmp_path):
        (tmp_path / "CACHE_FORMAT").write_text("0\n")
        stale = tmp_path / "pygb_old_artifact.py"
        stale.write_text("# from an older cache layout")
        JitCache(tmp_path)
        assert not stale.exists()
        assert (tmp_path / "CACHE_FORMAT").read_text().strip() == str(
            CACHE_FORMAT_VERSION
        )

    def test_current_format_keeps_artifacts(self, tmp_path):
        cache = JitCache(tmp_path)
        cache.get_module(_spec(), generate_source)
        artifacts = sorted(p.name for p in tmp_path.glob("pygb_*"))
        cache2 = JitCache(tmp_path)
        assert sorted(p.name for p in tmp_path.glob("pygb_*")) == artifacts
        cache2.clear_memory()
        cache2.get_module(_spec(), generate_source)
        assert cache2.stats.disk_hits == 1  # survived re-construction


# ----------------------------------------------------------------------
# broken-compiler acceptance: every algorithm still runs correctly
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.path.exists("/bin/false"), reason="needs /bin/false"
)
class TestBrokenCompilerAcceptance:
    @pytest.fixture
    def broken_chain(self, tmp_path, monkeypatch):
        from repro.jit.cppengine import CppJitEngine

        monkeypatch.setenv("PYGB_CXX", "/bin/false")
        cache = JitCache(tmp_path)
        chain = ResilientEngine(
            [CppJitEngine(cache), PyJitEngine(cache), InterpretedEngine()]
        )
        return cache, chain

    @pytest.fixture
    def sym_graph(self):
        # two triangles sharing vertex 2, plus a pendant vertex 6
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5),
                 (5, 6)]
        rows = [e[0] for e in edges] + [e[1] for e in edges]
        cols = [e[1] for e in edges] + [e[0] for e in edges]
        return gb.Matrix(
            (np.ones(len(rows), dtype=np.int64), (rows, cols)),
            shape=(7, 7), dtype=np.int64,
        )

    def test_every_algorithm_completes_with_one_warning_per_spec(
        self, broken_chain, sym_graph
    ):
        from repro.algorithms import (
            bfs_levels,
            connected_components,
            k_truss,
            lower_triangle,
            pagerank,
            triangle_count,
        )

        cache, chain = broken_chain

        def run_all():
            results = {}
            results["bfs"] = bfs_levels(sym_graph, 0).to_coo()
            ranks = gb.Vector(shape=(sym_graph.nrows,), dtype=float)
            pagerank(sym_graph, ranks, threshold=1e-8)
            results["pagerank"] = ranks.to_numpy()
            results["triangles"] = triangle_count(lower_triangle(sym_graph))
            results["components"] = connected_components(sym_graph).to_coo()
            results["ktruss"] = k_truss(sym_graph, 3).to_coo()
            return results

        with gb.use_engine("interpreted"):
            expected = run_all()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with gb.use_engine(chain):
                got = run_all()

        for name in ("bfs", "components", "ktruss"):
            for e, g in zip(expected[name], got[name]):
                np.testing.assert_array_equal(e, g, err_msg=name)
        np.testing.assert_allclose(
            got["pagerank"], expected["pagerank"], rtol=1e-6
        )
        assert got["triangles"] == expected["triangles"] == 2

        # exactly one JitFallbackWarning per quarantined spec — a hot loop
        # must not spam one warning per iteration
        fallback = [
            str(w.message)
            for w in caught
            if issubclass(w.category, JitFallbackWarning)
        ]
        assert len(fallback) == len(set(fallback))
        quarantined = cache.health.snapshot()["specs"]
        assert len(quarantined) == len(fallback)
        assert all(row["engine"] == "cpp" for row in quarantined)
        assert cache.stats.jit_failures == len(quarantined)
        assert cache.stats.fallbacks >= len(quarantined)

    def test_strict_mode_restores_raise(self, broken_chain):
        """A failing cpp compile under an ``"error"`` filter for
        ``JitFallbackWarning`` raises out of the chain, with the compile
        error as its context, instead of falling back."""
        cache, chain = broken_chain
        with warnings.catch_warnings():
            warnings.simplefilter("error", JitFallbackWarning)
            with pytest.raises(JitFallbackWarning) as exc_info:
                chain.ewise_add_vec(*_vec_args(), "Plus", OpDesc())
        assert isinstance(exc_info.value.__context__, CompilationError)
        assert cache.stats.fallbacks == 0


# ----------------------------------------------------------------------
# the JIT'd MatrixMarket fast loader degrades too
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.path.exists("/bin/false"), reason="needs /bin/false"
)
class TestFastLoaderDegradation:
    def test_loader_compile_failure_falls_back_to_python_reader(
        self, tmp_path, monkeypatch
    ):
        from repro.jit.cache import reset_default_cache

        monkeypatch.setenv("PYGB_CXX", "/bin/false")
        monkeypatch.setenv("PYGB_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_cache()
        try:
            self._run(tmp_path)
        finally:
            monkeypatch.undo()
            reset_default_cache()

    def _run(self, tmp_path):
        import repro.io.fastload as fl
        from repro.io.matrixmarket import mmwrite
        from repro.jit.cache import default_cache
        m = gb.Matrix(
            (np.array([1.0, 2.0]), ([0, 1], [1, 0])), shape=(2, 2), dtype=float
        )
        path = tmp_path / "g.mtx"
        mmwrite(path, m)
        with pytest.warns(JitFallbackWarning):
            loaded = fl.mmread_fast(path, dtype=float)
        assert loaded.to_coo()[2].tolist() == [1.0, 2.0]
        # the parser is quarantined: the second read is silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fl.mmread_fast(path, dtype=float).isequal(loaded)
        assert not [
            w for w in caught if issubclass(w.category, JitFallbackWarning)
        ]
        cache = default_cache()
        assert [row["key"] for row in cache.health.snapshot()["specs"]] == [
            f"v{CODEGEN_VERSION}:mmread(c=float64)"]
        assert cache.stats.fallbacks == 2


# ----------------------------------------------------------------------
# the compiled whole algorithms and the fast loader are kernel-table rows:
# a corrupt shared object is invalidated and rebuilt once, as for every
# other kernel, and nothing latches
# ----------------------------------------------------------------------
@needs_cxx
class TestNativeRowsRecover:
    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        from repro.jit.cache import reset_default_cache

        monkeypatch.setenv("PYGB_CACHE_DIR", str(tmp_path / "cache"))
        yield reset_default_cache()
        monkeypatch.undo()
        reset_default_cache()

    @staticmethod
    def _algorithm(name):
        """``(compiled call, expected result)`` of one whole algorithm."""
        from repro.algorithms import lower_triangle, pagerank_native, triangle_count_native
        from repro.algorithms.compiled import pagerank_compiled, triangle_count_compiled
        from repro.io.generators import erdos_renyi, scale_free

        if name == "pagerank":
            g = scale_free(60, seed=31)._store
            want = pagerank_native(g, threshold=1e-13).to_dense()
            return (lambda: pagerank_compiled(g, threshold=1e-13)[0].to_dense()), want
        g = erdos_renyi(60, seed=37)
        r, c, _ = g.to_coo()
        sym = gb.Matrix(
            (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=g.shape, dtype=int,
        )
        L = lower_triangle(sym)._store
        return (lambda: triangle_count_compiled(L)[0]), triangle_count_native(L)

    @pytest.mark.parametrize("name", ["pagerank", "triangle_count"])
    def test_corrupt_so_rebuilds_once(self, fresh_cache, name):
        call, want = self._algorithm(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", JitFallbackWarning)
            with fault_injection("corrupt_so", times=1):
                got = call()
            again = call()  # and the process is not left latched
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        assert np.allclose(again, want, rtol=0, atol=1e-9)
        assert fresh_cache.stats.integrity_rebuilds == 1
        assert fresh_cache.health.snapshot()["specs"] == []

    def test_corrupt_loader_rebuilds_instead_of_latching(self, fresh_cache, tmp_path):
        from repro.io.fastload import mmread_fast
        from repro.io.matrixmarket import mmread, mmwrite

        path = tmp_path / "g.mtx"
        mmwrite(path, gb.Matrix(
            (np.array([2.5, -1.0, 4.0]), ([0, 1, 2], [2, 0, 1])), shape=(3, 3)))
        want = mmread(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", JitFallbackWarning)
            with fault_injection("corrupt_so", times=1):
                assert mmread_fast(path).isequal(want)
            assert mmread_fast(path).isequal(want)
        snap = fresh_cache.stats.snapshot()
        assert (snap["integrity_rebuilds"], snap["fallbacks"]) == (1, 0)
        assert fresh_cache.health.snapshot()["specs"] == []


# ----------------------------------------------------------------------
# env-selected engine degradation vs. explicit selection
# ----------------------------------------------------------------------
class TestEngineDegradation:
    def test_env_selected_cpp_degrades_to_pyjit(self, monkeypatch):
        import threading

        monkeypatch.setenv("PYGB_BACKEND", "cpp")
        monkeypatch.setenv("PYGB_CXX", "/nonexistent/pygb-no-such-compiler")
        seen = {}

        def worker():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                seen["name"] = gb.current_backend_engine().name
                seen["warnings"] = [
                    w for w in caught
                    if issubclass(w.category, JitFallbackWarning)
                ]

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["name"] == "pyjit"
        assert len(seen["warnings"]) == 1

    def test_env_selected_cpp_strict_raises(self, monkeypatch):
        """With ``JitFallbackWarning`` an error, an env-selected ``cpp``
        with no toolchain raises instead of degrading to pyjit."""
        import threading

        monkeypatch.setenv("PYGB_BACKEND", "cpp")
        monkeypatch.setenv("PYGB_CXX", "/nonexistent/pygb-no-such-compiler")
        errors = []

        def worker():
            try:
                gb.current_backend_engine()
            except JitFallbackWarning as exc:
                errors.append(exc)

        with warnings.catch_warnings():  # the filter list is process-wide
            warnings.simplefilter("error", JitFallbackWarning)
            t = threading.Thread(target=worker)
            t.start()
            t.join(30)
        assert not t.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0].__context__, BackendUnavailable)
