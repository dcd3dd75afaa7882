"""The kernel table's shape, and golden byte-identity of the kernel space.

Two digests pin what the JIT names and generates, independently of how
the code that builds the specs is organised:

* every catalog spec (``catalog_kernel_specs`` serial and parallel, and
  ``pyjit_kernel_specs``) with the sha256 of the source its code
  generator emits — a change to a key or a byte of a generated module
  moves it, and either one orphans every existing cache and baked pack;
* the spec keys each Engine method (and ``CppJitEngine.normalize_rows``)
  asks ``JitCache`` for, on pyjit and on cpp, for small fixed operands.

The engine half stops each call at its cache lookup, so it needs no
compiler run and no kernel executes.  When a digest moves on purpose,
``CODEGEN_VERSION`` must move with it.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.jit.cache import JitCache
from repro.jit.catalog import catalog_kernel_specs, pyjit_kernel_specs
from repro.jit.cppcodegen import generate_cpp_source
from repro.jit.kernels import KERNELS
from repro.jit.pycodegen import generate_source
from repro.jit.pyengine import PyJitEngine
from repro.jit.spec import CODEGEN_VERSION

CATALOG_DIGEST = "9627d73972bbe1a1cce04bf6abc23320ff4201cc1f023f861e1ad3c266c1ab14"
ENGINE_DIGESTS = {
    "pyjit": "7188970385c8bf936b45acfdc923c89bb2d036fc061dbc4aec605a0a693f2162",
    "cpp": "7333d1e8080ba20622b70cc7b8e844b1bda6d9596ee917d758bb005bb2e34b52",
    "cpp-parallel": "5912b4593814d4b8ff58ba185f2df8647a87eed3c7ef727578f4c51b5ed8f214",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_table_has_one_row_per_kernel():
    """The interface rows are the Engine methods, the fused rows the fused
    kernels; each row has a reference kernel and a generator for every
    engine that runs it (pyjit runs every interface row; cpp the rows with
    an argument layout, delegating the rest to pyjit)."""
    from repro.backend.kernels import FUSED_KERNELS
    from repro.core.dispatch import _DISPATCH_METHODS

    assert {f for f, row in KERNELS.items() if row.interface} == _DISPATCH_METHODS
    assert {f for f, row in KERNELS.items() if row.fused} == FUSED_KERNELS
    for func, row in KERNELS.items():
        assert callable(row.reference), func
        assert (row.cpp is None) == (row.layout is None), func
        assert row.py is not None or not row.interface, func
        assert row.dtypes and all(len(t) == len(row.transposes) for t in row.baked_transposes)
    assert {f for f, row in KERNELS.items() if not row.interface} == {"normalize_rows"}
    assert (len(catalog_kernel_specs()), len(pyjit_kernel_specs())) == (234, 427)


def test_codegen_version_is_pinned():
    assert CODEGEN_VERSION == 16


def test_catalog_keys_and_generated_sources_are_byte_identical():
    entries = [(s.key, _sha(generate_cpp_source(s)))
               for parallel in (False, True) for s in catalog_kernel_specs(parallel)]
    entries += [(s.key, _sha(generate_source(s))) for s in pyjit_kernel_specs()]
    assert len(entries) == 895
    assert _digest(f"{key}\t{src}" for key, src in entries) == CATALOG_DIGEST


# ----------------------------------------------------------------------
# the spec keys each engine method asks the cache for
# ----------------------------------------------------------------------
class _Asked(Exception):
    """Raised by the recording cache in place of a module lookup."""


class _RecordingCache(JitCache):
    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.asked: list[str] = []

    def get_module(self, spec, generate, suffix=".py", compiler=None):
        self.asked.append(f"{'.so' if compiler else suffix} {spec.key}")
        raise _Asked(spec.key)


def _vec(size, idx, vals, dtype):
    return SparseVector.from_sorted(size, np.asarray(idx, np.int64), np.asarray(vals, dtype))


def _mat(dtype, n=3):
    rows, cols = np.array([0, 1, 2, 2]), np.array([1, 2, 0, 2])
    return SparseMatrix.from_coo(n, n, rows, cols, np.array([1, 2, 3, 4], dtype), dtype=dtype)


def _calls():
    """``(method, args)`` for every Engine method: one plain call, one
    masked and accumulated call, and the transpose / direction variants
    the method takes."""
    i64, f64, b = np.int64, np.float64, np.bool_
    a_i, a_f, a_b = _mat(i64), _mat(f64), _mat(b)
    u_f, u_b = _vec(3, [0, 2], [1.5, 2.5], f64), _vec(3, [1], [True], b)
    u_i = _vec(3, [0, 1], [4, 5], i64)
    out_v = {dt: SparseVector.empty(3, dt) for dt in (i64, f64, b)}
    out_m = {dt: SparseMatrix.empty(3, 3, dt) for dt in (i64, f64, b)}
    plain = OpDesc()
    vmask = OpDesc(mask=u_b, complement=True, replace=True, accum="Plus")
    mmask = OpDesc(mask=a_b, complement=False, replace=False, accum="Min")
    idx = np.array([0, 2], np.int64)
    sched = {d: SimpleNamespace(direction=d, candidates=idx) for d in ("dense", "push", "pull")}
    calls = []
    for desc_v, desc_m in ((plain, plain), (vmask, mmask)):
        for ta in (False, True):
            calls += [
                ("mxv", (out_v[f64], a_i, u_f, "Plus", "Times", desc_v, ta)),
                ("vxm", (out_v[f64], u_f, a_i, "Min", "Plus", desc_v, ta)),
                ("apply_mat", (out_m[i64], a_f, ("bind", "Times", 2.5, "second"), desc_m, ta)),
                ("reduce_rows", (out_v[f64], a_i, "Plus", desc_v, ta)),
                ("select_mat", (out_m[f64], a_f, "Tril", 0, desc_m, ta)),
                ("extract_mat", (out_m[f64], a_i, idx, idx, desc_m, ta)),
                ("assign_mat", (out_m[f64], a_i, idx, idx, desc_m, ta)),
            ]
            for tb in (False, True):
                calls += [
                    ("mxm", (out_m[i64], a_i, a_b, "Plus", "Times", desc_m, ta, tb)),
                    ("ewise_add_mat", (out_m[f64], a_i, a_f, "Plus", desc_m, ta, tb)),
                    ("ewise_mult_mat", (out_m[b], a_b, a_b, "Plus", desc_m, ta, tb)),
                    ("kronecker", (out_m[f64], a_i, a_f, "Times", desc_m, ta, tb)),
                ]
        for s in sched.values():
            calls += [
                ("mxv", (out_v[b], a_i, u_b, "LogicalOr", "LogicalAnd", desc_v, False, s)),
                ("vxm", (out_v[b], u_b, a_i, "LogicalOr", "LogicalAnd", desc_v, False, s)),
            ]
        calls += [
            ("ewise_add_vec", (out_v[f64], u_i, u_f, "Minus", desc_v)),
            ("ewise_mult_vec", (out_v[i64], u_b, u_b, "Plus", desc_v)),
            ("apply_vec", (out_v[f64], u_i, ("unary", "AdditiveInverse"), desc_v)),
            ("apply_vec", (out_v[i64], u_i, ("bind", "Minus", 1, "first"), desc_v)),
            ("transpose", (out_m[f64], a_i, desc_m)),
            ("select_vec", (out_v[f64], u_f, "ValueGT", 0.5, desc_v)),
            ("extract_vec", (out_v[f64], u_i, idx, desc_v)),
            ("assign_vec", (out_v[f64], u_i, idx, desc_v)),
            ("assign_mat_scalar", (out_m[i64], 7, idx, idx, desc_m)),
            ("assign_vec_scalar", (out_v[b], True, idx, desc_v)),
        ]
    calls += [
        ("reduce_mat_scalar", (a_i, "Plus", None)),
        ("reduce_mat_scalar", (a_b, "LogicalOr", None)),
        ("reduce_vec_scalar", (u_f, "Max", "MaxIdentity")),
        ("ewise_add_vec_reduce_scalar", (u_i, u_f, "Plus", "Plus")),
        ("ewise_mult_vec_reduce_scalar", (u_f, u_f, "Times", "Max", 0.0)),
    ]
    return calls


def _asked(engine, calls) -> list[str]:
    for method, args in calls:
        with pytest.raises(_Asked):
            getattr(engine, method)(*args)
    return engine.cache.asked


def test_every_engine_method_is_called():
    from repro.core.dispatch import _DISPATCH_METHODS

    assert {method for method, _ in _calls()} == _DISPATCH_METHODS


def test_pyjit_spec_keys_are_pinned(tmp_path):
    asked = _asked(PyJitEngine(_RecordingCache(tmp_path)), _calls())
    assert len(asked) == len(_calls())
    assert _digest(asked) == ENGINE_DIGESTS["pyjit"], "\n".join(asked)


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_cpp_spec_keys_are_pinned(tmp_path, parallel):
    from repro.jit.cppengine import CppJitEngine, find_cxx_compiler

    if find_cxx_compiler() is None:
        pytest.skip("the cpp engine needs a C++ compiler on PATH")
    engine = CppJitEngine(_RecordingCache(tmp_path))
    engine.parallel_enabled = lambda: parallel  # no -fopenmp probe
    asked = _asked(engine, _calls() + [("normalize_rows", (_mat(np.int64),))])
    with pytest.raises(_Asked):
        engine.normalize_rows(_mat(np.float32))
    digest = ENGINE_DIGESTS["cpp-parallel" if parallel else "cpp"]
    assert _digest(asked) == digest, "\n".join(asked)
