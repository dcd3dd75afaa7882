"""JIT-layer tests: kernel specs, the memory→disk→compile cache of the
paper's Fig. 9, Python code generation, and cross-process disk-cache
persistence."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.svector import SparseVector
from repro.exceptions import CompilationError
from repro.jit.cache import JitCache
from repro.jit.kernels import KERNELS
from repro.jit.pycodegen import generate_source
from repro.jit.pyengine import PyJitEngine
from repro.jit.spec import CODEGEN_VERSION, KernelSpec


class TestKernelSpec:
    def test_params_canonicalised_and_sorted(self):
        s1 = KernelSpec.make("mxv", add="Plus", mult="Times", ta=True)
        s2 = KernelSpec.make("mxv", ta=True, mult="Times", add="Plus")
        assert s1 == s2
        assert s1.key == s2.key
        assert s1.key_hash == s2.key_hash

    def test_different_params_different_hash(self):
        s1 = KernelSpec.make("mxv", add="Plus")
        s2 = KernelSpec.make("mxv", add="Min")
        assert s1.key_hash != s2.key_hash

    def test_flags_and_none_canonical(self):
        s = KernelSpec.make("mxv", ta=False, accum=None)
        assert s.get("ta") == "0"
        assert s.get("accum") == "none"
        assert not s.flag("ta")

    def test_hash_is_stable_across_processes(self):
        # the disk cache relies on this: same spec -> same file name
        code = textwrap.dedent(
            """
            from repro.jit.spec import KernelSpec
            print(KernelSpec.make("mxv", add="Plus", mult="Times", a="float64").key_hash)
            """
        )
        out1 = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.strip()
        local = KernelSpec.make("mxv", add="Plus", mult="Times", a="float64").key_hash
        assert out1 == local

    def test_version_in_key(self):
        s = KernelSpec.make("mxv")
        assert f"v{CODEGEN_VERSION}:" in s.key

    def test_make_returns_the_same_instance_for_equal_arguments(self):
        # a dispatch asks for its spec every time; the instance carries
        # the memoised key forms, so it must be the one made before
        s1 = KernelSpec.make("mxv", add="Plus", mult="Times", ta=True, accum=None)
        s2 = KernelSpec.make("mxv", add="Plus", mult="Times", ta=True, accum=None)
        assert s1 is s2
        for other in (
            KernelSpec.make("mxv", add="Plus", mult="Times", ta=False, accum=None),
            KernelSpec.make("vxm", add="Plus", mult="Times", ta=True, accum=None),
            KernelSpec.make("mxv", add="Plus", mult="Times", ta=True),
        ):
            assert other is not s1 and other != s1
        # another keyword order is another memo entry, the same spec
        swapped = KernelSpec.make("mxv", mult="Times", add="Plus", ta=True, accum=None)
        assert swapped == s1 and swapped.key_hash == s1.key_hash

    def test_make_with_an_unhashable_argument_still_builds(self):
        s1 = KernelSpec.make("mxv", add=["Plus"])
        s2 = KernelSpec.make("mxv", add=["Plus"])
        assert s1 == s2 and s1 is not s2
        assert s1.get("add") == "['Plus']"

    def test_cxx_defines(self):
        s = KernelSpec.make("mxv", a="float64", add="Plus", mask="none")
        defines = s.cxx_defines()
        assert "-DA_TYPE=double" in defines
        assert "-DADD=Plus" in defines
        assert "-DPYGB_FUNC_MXV" in defines

    def test_dtype_accessor(self):
        s = KernelSpec.make("mxv", a="int32")
        assert s.dtype("a") == np.int32
        assert s.dtype("missing") is None


class TestPyCodegen:
    def _spec(self, func, **extra):
        base = dict(
            a="float64", b="float64", u="float64", c="float64",
            t_dtype="float64", p="float64", add="Plus", mult="Times",
            op="Plus", rop="Plus",
            mask="none", comp=False, repl=False, accum="none",
            ta=False, tb=False, form="unary", side="none",
        )
        base.update(extra)
        return KernelSpec.make(func, **base)

    @pytest.mark.parametrize("func", sorted(f for f, row in KERNELS.items() if row.py))
    def test_every_generator_produces_compilable_source(self, func):
        extra = {}
        if func.startswith("apply"):
            extra["op"] = "Identity"
        elif func == "select_mat":
            extra["op"] = "Tril"
        elif func == "select_vec":
            extra["op"] = "NonZero"
        src = generate_source(self._spec(func, **extra))
        compile(src, f"<{func}>", "exec")  # syntax check

    def test_header_records_spec_and_defines(self):
        src = generate_source(self._spec("mxv"))
        assert "spec: v" in src
        assert "g++" in src and "-DA_TYPE=double" in src

    def test_unknown_func_raises(self):
        with pytest.raises(CompilationError):
            generate_source(KernelSpec.make("frobnicate"))

    def test_masked_variant_differs_from_unmasked(self):
        plain = generate_source(self._spec("mxv"))
        masked = generate_source(self._spec("mxv", mask="value", repl=True))
        assert plain != masked
        assert "restrict" in masked and "restrict" not in plain

    def test_accum_variant_binds_operator(self):
        src = generate_source(self._spec("mxv", accum="Min"))
        assert '_ops.BINARY_OPS["Min"]' in src


class TestJitCache:
    def test_lookup_order_memory_disk_compile(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make(
            "mxv", a="float64", u="float64", c="float64", t_dtype="float64",
            add="Plus", mult="Times", ta=False,
            mask="none", comp=False, repl=False, accum="none",
        )
        mod1 = cache.get_module(spec, generate_source)
        assert cache.stats.compiles == 1
        mod2 = cache.get_module(spec, generate_source)
        assert mod2 is mod1
        assert cache.stats.memory_hits == 1
        cache.clear_memory()
        mod3 = cache.get_module(spec, generate_source)
        assert cache.stats.disk_hits == 1
        assert mod3 is not mod1
        assert mod3.run is not None

    def test_artifact_on_disk(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make(
            "reduce_vec_scalar", a="float64", op="Plus"
        )
        cache.get_module(spec, generate_source)
        files = list(Path(tmp_path).glob("pygb_reduce_vec_scalar_*.py"))
        assert len(files) == 1

    def test_clear_disk(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
        cache.get_module(spec, generate_source)
        cache.clear_disk()
        assert not list(Path(tmp_path).glob("pygb_*"))
        cache.get_module(spec, generate_source)
        assert cache.stats.compiles == 2

    def test_stats_snapshot_and_reset(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
        cache.get_module(spec, generate_source)
        snap = cache.stats.snapshot()
        assert snap["compiles"] == 1
        assert snap["per_func"] == {"reduce_vec_scalar": 1}
        assert snap["generate_seconds"] >= 0.0
        cache.stats.reset()
        assert cache.stats.snapshot()["compiles"] == 0

    def test_broken_generated_module_raises_compilation_error(self, tmp_path):
        cache = JitCache(tmp_path)
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
        with pytest.raises(CompilationError):
            cache.get_module(spec, lambda s: "this is not ( valid python")


class TestPyJitEngine:
    def test_identical_calls_reuse_module(self, tmp_path):
        eng = PyJitEngine(JitCache(tmp_path))
        u = SparseVector.from_coo(5, [0, 2], [1.0, 2.0])
        w = SparseVector.empty(5, np.float64)
        eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        eng.ewise_add_vec(w, u, u, "Plus", OpDesc())
        assert eng.cache.stats.compiles == 1
        assert eng.cache.stats.memory_hits == 1

    def test_different_dtypes_compile_separately(self, tmp_path):
        # Sec. V: the module is keyed on operand data types
        eng = PyJitEngine(JitCache(tmp_path))
        uf = SparseVector.from_coo(5, [0], [1.0])
        ui = SparseVector.from_coo(5, [0], [1], dtype=np.int64)
        eng.ewise_add_vec(SparseVector.empty(5, np.float64), uf, uf, "Plus", OpDesc())
        eng.ewise_add_vec(SparseVector.empty(5, np.int64), ui, ui, "Plus", OpDesc())
        assert eng.cache.stats.compiles == 2

    def test_different_descriptors_compile_separately(self, tmp_path):
        eng = PyJitEngine(JitCache(tmp_path))
        u = SparseVector.from_coo(5, [0], [1.0])
        mask = SparseVector.from_coo(5, [0], [True], dtype=np.bool_)
        eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
        eng.ewise_add_vec(
            SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc(mask=mask)
        )
        assert eng.cache.stats.compiles == 2

    def test_disk_cache_shared_across_processes(self, tmp_path):
        """A fresh interpreter hits the disk cache, not the compiler —
        'the cost of compiling the code can be amortized over future
        runs of the same code' (Sec. V)."""
        code = textwrap.dedent(
            f"""
            import numpy as np
            from repro.backend.kernels import OpDesc
            from repro.backend.svector import SparseVector
            from repro.jit.cache import JitCache
            from repro.jit.pyengine import PyJitEngine
            eng = PyJitEngine(JitCache({str(tmp_path)!r}))
            u = SparseVector.from_coo(5, [0], [1.0])
            eng.ewise_add_vec(SparseVector.empty(5, np.float64), u, u, "Plus", OpDesc())
            print(eng.cache.stats.compiles, eng.cache.stats.disk_hits)
            """
        )
        out1 = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd="/root/repo",
        ).stdout.split()
        out2 = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd="/root/repo",
        ).stdout.split()
        assert out1 == ["1", "0"]  # first process compiles
        assert out2 == ["0", "1"]  # second process reads the disk artifact


class TestEngineSelection:
    def test_default_engine_is_pyjit(self):
        import os

        if os.environ.get("PYGB_BACKEND", "pyjit") == "pyjit":
            assert gb.current_backend_engine().name == "pyjit"

    def test_use_engine_scoped(self):
        with gb.use_engine("interpreted"):
            assert gb.current_backend_engine().name == "interpreted"

    def test_unknown_engine_rejected(self):
        with pytest.raises(gb.BackendUnavailable):
            gb.use_engine("turbo")

    def test_engines_agree_on_results(self):
        a = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        results = []
        for name in ("interpreted", "pyjit"):
            with gb.use_engine(name):
                results.append(gb.Matrix(a @ a).to_numpy())
        assert np.array_equal(results[0], results[1])
