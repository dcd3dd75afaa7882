"""The compiled whole-algorithm execution versions (paper Sec. VI).

Each function here JIT-compiles the complete algorithm as a single C++
module, calls it once, and returns ``(result, elapsed_ns)`` where
``elapsed_ns`` was measured *inside* the C++ code with ``std::chrono``.
BFS and SSSP are k=1 calls of the cpp engine's k-source traversal rows
(the kernels the graph service runs, so there is one native BFS and one
native SSSP); PageRank and triangle counting are whole-algorithm modules
(:mod:`~repro.jit.algorithm_codegen`):

* timing the Python call from outside gives the paper's **version 2**
  (Python calls a complete C++ algorithm — includes the single FFI
  crossing and buffer marshalling);
* the returned ``elapsed_ns`` is the paper's **version 3** (native C++
  timing, no Python anywhere on the measured path).

All functions require a C++ toolchain and raise
:class:`~repro.exceptions.BackendUnavailable` otherwise.
"""

from __future__ import annotations

import ctypes
from ctypes import byref, c_double, c_int64, c_void_p

import numpy as np

from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..exceptions import BackendUnavailable
from ..jit.algorithm_codegen import generate_algorithm_source
from ..jit.cache import default_cache
from ..jit.cppengine import CppJitEngine, compiler_available
from ..jit.spec import KernelSpec

__all__ = [
    "bfs_compiled",
    "sssp_compiled",
    "pagerank_compiled",
    "triangle_count_compiled",
]

_I64 = np.dtype(np.int64)


class _AlgoRunner:
    """Shared compile/load plumbing for whole-algorithm modules."""

    def __init__(self):
        if not compiler_available():
            raise BackendUnavailable(
                "compiled algorithm versions need a C++ toolchain (g++)"
            )
        self._engine = CppJitEngine()  # reuse its compiler + cache dir
        self._libs: dict[str, ctypes.CDLL] = {}

    def lib(self, func: str, vtype, scalar_out: bool = False) -> ctypes.CDLL:
        params = {"vtype": KernelSpec.dt(vtype)}
        if self._engine.parallel_enabled():
            # whole-algorithm modules inline the mini-GBTL kernels, so
            # building with -fopenmp parallelises their inner loops too
            params["par"] = True
        spec = KernelSpec.make(func, **params)
        artifact = default_cache().get_module(
            spec,
            generate_algorithm_source,
            suffix=".cpp",
            compiler=self._engine.compiler_for(spec),
        )
        key = str(artifact)
        lib = self._libs.get(key)
        if lib is None:
            lib = ctypes.CDLL(key)
            lib.pygb_run.restype = None if scalar_out else c_int64
            self._libs[key] = lib
        return lib


_runner: _AlgoRunner | None = None


def _get_runner() -> _AlgoRunner:
    global _runner
    if _runner is None:
        _runner = _AlgoRunner()
    return _runner


def _csr_ptrs(m: SparseMatrix):
    indptr = np.ascontiguousarray(m.indptr, _I64)
    indices = np.ascontiguousarray(m.indices, _I64)
    values = np.ascontiguousarray(m.values)
    if values.dtype == np.bool_:
        values = values.view(np.uint8)
    return indptr, indices, values


def _ptr(a: np.ndarray):
    return None if a.size == 0 else a.ctypes.data_as(c_void_p)


def _out_buffers(size: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """NumPy-owned ``(indices, values)`` buffers the module writes its
    result vector into (at most *size* entries)."""
    return np.empty(size, _I64), np.empty(size, np.dtype(dtype))


def _take_vec(nnz: int, idx, vals, size: int) -> SparseVector:
    return SparseVector.from_sorted(size, idx[:nnz], vals[:nnz])


def _traversal(func: str, graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """A k=1 call of the cpp engine's k-source traversal family: row 0 of
    the result, and the kernel's own clock (``pygb_kernel_ns``)."""
    engine = _get_runner()._engine
    result = getattr(engine, func)(graph, [source])
    elapsed = engine._kernel(func, (graph.dtype,), ()).kernel_ns()
    return SparseVector.from_sorted(graph.ncols, result.indices, result.values), elapsed


def bfs_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """BFS as one compiled C++ call (``bfs_multi`` from one source).
    Takes the backend store of the graph; returns ``(levels,
    elapsed_ns)``."""
    return _traversal("bfs_multi", graph, source)


def sssp_compiled(graph: SparseMatrix, source: int) -> tuple[SparseVector, int]:
    """SSSP (converging variant) as one compiled C++ call
    (``sssp_multi`` from one source)."""
    return _traversal("sssp_multi", graph, source)


def pagerank_compiled(
    graph: SparseMatrix,
    damping_factor: float = 0.85,
    threshold: float = 1.0e-5,
    max_iters: int = 100000,
) -> tuple[SparseVector, int]:
    """PageRank as one compiled C++ module (graph values are cast to the
    rank type, float64, before the call)."""
    g = graph.astype(np.float64)
    lib = _get_runner().lib("algo_pagerank", np.float64)
    indptr, indices, values = _csr_ptrs(g)
    out_idx, out_vals = _out_buffers(g.nrows, np.float64)
    elapsed = c_int64(0)
    nnz = lib.pygb_run(
        c_int64(g.nrows), _ptr(indptr), _ptr(indices), _ptr(values),
        c_double(damping_factor), c_double(threshold), c_int64(max_iters),
        _ptr(out_idx), _ptr(out_vals), byref(elapsed),
    )
    return _take_vec(nnz, out_idx, out_vals, g.nrows), elapsed.value


def triangle_count_compiled(L: SparseMatrix) -> tuple[int, int]:
    """Triangle counting as one compiled C++ module; returns
    ``(triangles, elapsed_ns)``."""
    lib = _get_runner().lib("algo_triangle_count", L.dtype, scalar_out=True)
    lt = L.transposed()
    l_indptr, l_indices, l_values = _csr_ptrs(L)
    t_indptr, t_indices, t_values = _csr_ptrs(lt)
    dt = np.dtype(L.dtype)
    out = np.zeros(1, dtype=np.uint8 if dt == np.bool_ else dt)
    elapsed = c_int64(0)
    lib.pygb_run(
        c_int64(L.nrows), _ptr(l_indptr), _ptr(l_indices), _ptr(l_values),
        _ptr(t_indptr), _ptr(t_indices), _ptr(t_values),
        _ptr(out.view(np.uint8) if dt == np.bool_ else out), byref(elapsed),
    )
    count = int(out.view(np.bool_)[0]) if dt == np.bool_ else int(out[0])
    return count, elapsed.value
