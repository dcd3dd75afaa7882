"""The ``cpp`` execution engine: dynamic compilation into C++ (the
paper's actual design).

On the first use of an ``(operation, dtypes, operators, flags)``
combination the engine writes the binding translation unit produced by
:mod:`~repro.jit.cppcodegen` into the cache directory, compiles it with
``g++ -std=c++17 -O2 -shared -fPIC`` against the bundled mini-GBTL header,
and loads the shared object through :mod:`ctypes`; later calls hit the
memory/disk caches.  One FFI call per GraphBLAS operation, mirroring the
paper's pybind-style boundary, and like those bindings the operands stay
resident across calls:

* each engine method finds its kernel in a plain dict keyed on the raw
  values it already holds (dtypes, operator names, descriptor flags) and
  gets back a :class:`_Bound` — entry points with ``argtypes`` set once;
* each (immutable) backend store carries its marshalled argument tuple
  (:mod:`repro.backend.ffipack`), which the C++ side wraps in non-owning
  views — nothing is copied in;
* results are NumPy-owned, under one of four rules: a vector kernel
  writes into two size-long buffers; an unmasked, unaccumulated
  ``apply_mat`` (and GBTL's ``normalize_rows`` helper) writes one values
  buffer and borrows ``indptr`` / ``indices`` from its (immutable)
  operand — nothing held, nothing fetched; a k-source traversal
  (``bfs_multi`` / ``sssp_multi``, the whole loop in one call) writes
  its k×n result into buffers of capacity k·n; every other matrix
  result (nnz unknown up front) is parked in the shared object's
  ``thread_local`` holder and fetched once, into exactly-sized arrays,
  by a second call.

Operations without a native C++ binding (assign/extract of a matrix
operand and standalone transpose — none of which appear in
the evaluated algorithms' hot loops) delegate to the Python JIT engine;
the native set is the rows of ``repro.jit.kernels.KERNELS`` that have a
C++ generator.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from ctypes import c_double, c_int64, c_void_p
from functools import partial
from pathlib import Path

import numpy as np

from .. import obs, schedule as _schedule
from ..backend.ffipack import address
from ..backend.kernels.traversal import check_traversal
from ..backend.ops_table import (
    DEFAULT_IDENTITY_NAME, identity_value, unary_domain,
)
from ..backend.smatrix import SparseMatrix
from ..backend.svector import SparseVector
from ..config import Config, current as _config
from ..exceptions import (
    BackendUnavailable,
    CompilationError,
    IndexOutOfBounds,
    OperationCancelled,
)
from ..guard import _TLS as _THREAD  # this thread's cancel cell
from ..testing.faults import FAULTS
from ..types import CXX_NAMES
from .cache import JitCache, default_cache
from .cppcodegen import generate_cpp_source
from .gbtl_lite import GBTL_LITE_HEADER, HEADER_FILENAME
from .kernels import KERNELS, apply_ops, spec as kernel_spec
from .pyengine import PyJitEngine
from .spec import KernelSpec

__all__ = [
    "CppJitEngine",
    "find_cxx_compiler",
    "compiler_available",
    "toolchain_works",
    "openmp_available",
    "compile_timeout",
    "native_engine",
]

DEFAULT_COMPILE_TIMEOUT = Config.compile_timeout


def compile_timeout() -> float | None:
    """Wall-clock limit for one compiler invocation, in seconds
    (``$PYGB_COMPILE_TIMEOUT``, default 120; 0 or negative disables).
    A wedged compiler otherwise hangs the calling thread — and the
    precompile pool — forever."""
    return _config().compile_timeout

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def find_cxx_compiler() -> str | None:
    """Path of the C++ compiler (``$PYGB_CXX`` override, else ``g++``,
    else ``c++``), or None when this machine has none."""
    env = _config().cxx
    if env:
        return env if shutil.which(env) else None
    for cand in ("g++", "c++"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def compiler_available() -> bool:
    return find_cxx_compiler() is not None


# ----------------------------------------------------------------------
# OpenMP support probe (one tiny test compile per compiler, memoised)
# ----------------------------------------------------------------------
_OPENMP_PROBES: dict[str, bool] = {}
_PROBE_LOCK = threading.Lock()


def _probe_openmp(cxx: str) -> bool:
    source = (
        "#include <omp.h>\n"
        'extern "C" int pygb_probe() { return omp_get_max_threads(); }\n'
    )
    try:
        with tempfile.TemporaryDirectory(prefix="pygb_omp_probe_") as td:
            src = Path(td) / "probe.cpp"
            src.write_text(source)
            out = Path(td) / "probe.so"
            proc = subprocess.run(
                [cxx, "-std=c++17", "-shared", "-fPIC", "-fopenmp",
                 str(src), "-o", str(out)],
                capture_output=True,
                text=True,
            )
            return proc.returncode == 0 and out.exists()
    except OSError:
        return False


def openmp_available(cxx: str | None = None) -> bool:
    """Whether *cxx* (default: the discovered compiler) accepts
    ``-fopenmp``; probed once per compiler path with a tiny test compile
    and cached for the life of the process.  A passing probe built a
    shared object, so it settles :func:`toolchain_works` for *cxx* too."""
    cxx = cxx or find_cxx_compiler()
    if cxx is None:
        return False
    with _PROBE_LOCK:
        cached = _OPENMP_PROBES.get(cxx)
    if cached is not None:
        return cached
    result = _probe_openmp(cxx)
    with _PROBE_LOCK:
        _OPENMP_PROBES[cxx] = result
        if result:
            _TOOLCHAIN_PROBES[cxx] = True
    return result


_TOOLCHAIN_PROBES: dict[str, bool] = {}


def _probe_toolchain(cxx: str) -> bool:
    source = 'extern "C" int pygb_probe() { return 42; }\n'
    try:
        with tempfile.TemporaryDirectory(prefix="pygb_cxx_probe_") as td:
            src = Path(td) / "probe.cpp"
            src.write_text(source)
            out = Path(td) / "probe.so"
            proc = subprocess.run(
                [cxx, "-std=c++17", "-shared", "-fPIC", str(src), "-o", str(out)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            return proc.returncode == 0 and out.exists()
    except (OSError, subprocess.TimeoutExpired):
        return False


def toolchain_works(cxx: str | None = None) -> bool:
    """Whether the discovered compiler can actually build a shared object.

    :func:`compiler_available` only checks PATH resolution; a compiler
    that resolves but fails every invocation (a broken install, or the
    fault-tolerance CI leg's ``PYGB_CXX=/bin/false``) passes that check
    and fails this one.  Probed once per compiler path with a tiny test
    compile (none when :func:`openmp_available` already built one) and
    memoised for the life of the process."""
    cxx = cxx or find_cxx_compiler()
    if cxx is None:
        return False
    with _PROBE_LOCK:
        cached = _TOOLCHAIN_PROBES.get(cxx)
    if cached is not None:
        return cached
    result = _probe_toolchain(cxx)
    with _PROBE_LOCK:
        _TOOLCHAIN_PROBES[cxx] = result
    return result


def _float_pair(value) -> tuple:
    """``(double, int64)`` encodings of a scalar for a floating-point
    kernel; the generated C++ selects one leg by element type, so the
    unused one is zero (``int(inf)`` would raise)."""
    return float(value), 0


def _int_pair(value) -> tuple:
    """As :func:`_float_pair` for integer/bool kernels; a value with no
    integer form (nan, inf) zeroes the leg the kernel would read."""
    try:
        ival = int(value)
    except (OverflowError, ValueError):
        ival = 0
    return float(value), ival


def _bool_pair(value) -> tuple:
    """As :func:`_int_pair` for bool kernels, whose integer leg carries
    NumPy's truth of the value (0.5 and nan are ``True``)."""
    return float(value), int(bool(value))


# ----------------------------------------------------------------------
# binding: the ctypes side of a kernel-table row's argument layout
# ----------------------------------------------------------------------
_P, _I, _D = c_void_p, c_int64, c_double

#: argument groups of a generated ``pygb_run`` signature (cppcodegen),
#: after its leading cancel cell; stores pass as the raw addresses of
#: their resident packs
_GROUPS = {
    "M": (_I, _I, _P, _P, _P),  # matrix: nrows, ncols, indptr, indices, values
    "m": (_P, _P, _P),  # matrix sharing those dims; a matrix mask
    "V": (_I, _P, _P, _I),  # vector: size, indices, values, nvals
    "v": (_P, _P, _I),  # vector sharing that size; a vector mask
    "I": (_P, _I),  # index list (the loader's bytes): pointer, length
    "S": (_D, _I),  # scalar constant in both encodings
    "D": (_D,),  # a double parameter
    "N": (_I,),  # an integer parameter
    "O": (_P, _P),  # vector result buffers: indices, values
    "W": (_P,),  # values of a matrix result on its operand's pattern; one result value
    "P": (_P,),  # scalar result
    "R": (_P, _P, _P),  # result buffers of known capacity: indptr (rows), indices, values
}

_NO_VEC_MASK = (None, None, 0)
_NO_MAT_MASK = (None, None, None)
_NO_CONST = (0.0, 0)


def _apply_dtype(op_spec, a_dtype, c_dtype):
    """The dtype an ``apply`` operator computes at, when it is not
    *c_dtype* (``None`` otherwise): the NumPy engines and
    ``backend/reference.py`` apply a unary operator at
    :func:`~repro.backend.ops_table.unary_domain` over the operand and a
    bound operator ``op(a, const)`` at the promotion of operand and
    constant — a selector at the dtype it selects — and cast to the
    output last, so ``Times 2.5`` into ``int64`` is ``int64(a * 2.5)``
    and ``LogicalNot`` of ``0.5`` is false.  ``Identity`` commutes with
    the cast and keeps ``None``.  The spec carries the dtype as
    ``t_dtype``."""
    if op_spec[0] != "bind":
        if op_spec[1] == "Identity":
            return None
        t = unary_domain(op_spec[1], a_dtype)
    else:
        _, name, const, side = op_spec
        k = np.asarray(const).dtype
        x, y = (k, a_dtype) if side == "first" else (a_dtype, k)
        t = x if name == "First" else y if name == "Second" else np.promote_types(x, y)
    return None if t == c_dtype or t not in CXX_NAMES else t


def _t(m: SparseMatrix, transpose: bool) -> SparseMatrix:
    return m.transposed() if transpose else m


class _Bound:
    """One loaded kernel with everything a dispatch needs fixed at bind
    time: entry points with ``argtypes``/``restype`` set once, the
    scalar-constant encoder and the scalar result dtype."""

    __slots__ = ("spec", "run", "fetch", "kernel_ns", "edges", "lib_name", "const",
                 "scalar_dtype")

    def __init__(self, spec: KernelSpec, lib: ctypes.CDLL, layout: str, const_dtype, scalar_dtype):
        self.spec = spec
        self.run = lib.pygb_run
        # the calling thread's cancel cell, then the layout's groups
        self.run.argtypes = [_P] + [t for group in layout for t in _GROUPS[group]]
        self.run.restype = None if layout[-1] == "P" else c_int64
        self.fetch = None
        if layout[-1] not in "OPRW":
            self.fetch = lib.pygb_fetch
            self.fetch.argtypes = (_P, _P, _P)
            self.fetch.restype = None
        # observability accessor generated alongside every kernel
        self.kernel_ns = lib.pygb_kernel_ns
        self.kernel_ns.restype = c_int64
        # deterministic traversal counter; pull TUs only
        self.edges = None
        if spec.get("dir") == "pull":
            self.edges = lib.pygb_edges_examined
            self.edges.restype = c_int64
        self.lib_name = os.path.basename(lib._name) if lib._name else None
        self.const = {"f": _float_pair, "b": _bool_pair}.get(const_dtype.kind, _int_pair)
        self.scalar_dtype = scalar_dtype


class CppJitEngine:
    """Engine-interface implementation backed by JIT-compiled C++."""

    name = "cpp"
    supports_fusion = True

    def __init__(self, cache: JitCache | None = None):
        self.cxx = find_cxx_compiler()
        if self.cxx is None:
            raise BackendUnavailable(
                "the cpp engine needs a C++ compiler (g++/c++) on PATH; "
                "set $PYGB_CXX or use the pyjit engine"
            )
        self.cache = cache if cache is not None else default_cache()
        self._fallback = PyJitEngine(self.cache)
        self._libs: dict[str, ctypes.CDLL] = {}
        self._libs_lock = threading.Lock()
        self._header_lock = threading.Lock()
        self._header_written = False
        self._openmp: bool | None = None  # -fopenmp probe result, memoised
        #: (cache generation, {raw dispatch key: bound kernel}) — one
        #: attribute, replaced whole, so no thread can pair a new
        #: generation with the table of the old one
        self._bound: tuple[int, dict[tuple, _Bound]] = (self.cache.generation, {})

    # ------------------------------------------------------------------
    # compilation plumbing
    # ------------------------------------------------------------------
    def parallel_enabled(self) -> bool:
        """Whether new specs should request OpenMP kernels: the
        ``$PYGB_PARALLEL`` switch is on *and* the compiler passed the
        ``-fopenmp`` probe (silent serial fallback otherwise)."""
        if not _config().parallel:
            return False
        if self._openmp is None:
            self._openmp = openmp_available(self.cxx)
        return self._openmp

    def _ensure_header(self) -> None:
        if self._header_written:
            return
        with self._header_lock:
            if self._header_written:
                return
            path = self.cache.cache_dir / HEADER_FILENAME
            if not path.exists() or path.read_text() != GBTL_LITE_HEADER:
                tmp = path.with_name(
                    f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
                )
                tmp.write_text(GBTL_LITE_HEADER)
                os.replace(tmp, path)
            self._header_written = True

    def _compile(self, src_path: Path, out_path: Path, parallel: bool = False) -> None:
        self._ensure_header()
        if FAULTS.fire("compile_fail"):
            raise CompilationError(f"injected compile failure for {src_path.name}")
        tmp = out_path.with_name(
            f"{out_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        cmd = [self.cxx, "-std=c++17", "-O2", "-shared", "-fPIC"]
        if parallel and openmp_available(self.cxx):
            cmd.append("-fopenmp")
        cmd += [f"-I{self.cache.cache_dir}", str(src_path), "-o", str(tmp)]
        timeout = compile_timeout()
        if FAULTS.fire("slow_compile"):
            # a sleeper in place of the compiler, so the timeout
            # machinery below trips exactly as it would for a wedged g++
            delay = 4 * (timeout if timeout is not None else 1.0)
            cmd = [sys.executable, "-c", f"import time; time.sleep({delay})"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            tmp.unlink(missing_ok=True)
            raise CompilationError(
                f"C++ compiler timed out after {timeout:g}s for {src_path.name} "
                "(raise $PYGB_COMPILE_TIMEOUT for very large translation units)"
            ) from None
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise CompilationError(
                f"g++ failed for {src_path.name}:\n{proc.stderr[-4000:]}"
            )
        os.replace(tmp, out_path)
        if FAULTS.fire("corrupt_so"):
            # truncate to the ELF header alone — a half-truncated .so can
            # still dlopen and then SIGBUS at call time, which no userspace
            # handler can recover from; header-only truncation guarantees
            # dlopen itself fails with a clean OSError
            data = out_path.read_bytes()
            out_path.write_bytes(data[:512])

    def compiler_for(self, spec: KernelSpec):
        """The compile callable matching *spec*: ``par=1`` specs build
        with ``-fopenmp`` (when supported), everything else with the
        serial flag set."""
        return partial(self._compile, parallel=True) if spec.flag("par") else self._compile

    def _lib(self, spec: KernelSpec) -> ctypes.CDLL:
        """Compiled module for *spec*, with the resilience wrapper: a
        quarantined spec fails fast (:class:`KernelQuarantined`, caught by
        the dispatch fallback chain); compile/load failures are recorded
        against this engine's health so hot loops stop re-attempting a
        broken build."""
        health = self.cache.health
        health.check(self.name, spec.key)
        try:
            lib = self._load_lib(spec)
        except CompilationError as exc:
            self.cache.note_jit_failure()
            health.record_failure(self.name, spec.key, exc)
            raise
        health.record_success(self.name, spec.key)
        return lib

    def _load_lib(self, spec: KernelSpec) -> ctypes.CDLL:
        artifact = self.cache.get_module(
            spec, generate_cpp_source, suffix=".cpp", compiler=self.compiler_for(spec)
        )
        key = str(artifact)
        with self._libs_lock:
            lib = self._libs.get(key)
            if lib is not None:
                return lib
        try:
            lib = self._dlopen(artifact)
        except OSError as exc:
            # a truncated or corrupt shared object that slipped past the
            # manifest checksum (or an injected dlopen fault): invalidate
            # the artifact, recompile once, then give up on this engine
            self.cache.invalidate(spec, ".so")
            artifact = self.cache.get_module(
                spec, generate_cpp_source, suffix=".cpp",
                compiler=self.compiler_for(spec),
            )
            try:
                lib = self._dlopen(artifact)
            except OSError as exc2:
                raise CompilationError(
                    f"cannot load compiled kernel {artifact.name} even after "
                    f"rebuilding: {exc2} (first failure: {exc})"
                ) from exc2
        with self._libs_lock:
            return self._libs.setdefault(str(artifact), lib)

    @staticmethod
    def _dlopen(artifact) -> ctypes.CDLL:
        if FAULTS.fire("dlopen_fail"):
            raise OSError(f"injected dlopen failure for {artifact}")
        return ctypes.CDLL(str(artifact))

    # ------------------------------------------------------------------
    # the bound-kernel cache
    # ------------------------------------------------------------------
    def _kernel(self, func: str, dtypes: tuple, ops: tuple, desc=None, direction=None) -> _Bound:
        """The bound kernel for one dispatch, looked up on the raw values
        the engine method already holds.  A hit costs one dict probe (and
        still counts as a memory-tier hit); only a miss builds the
        :class:`KernelSpec` and goes through health check → ``JitCache`` →
        ``dlopen``.  The table is dropped whenever the cache's generation
        moves (``clear_memory``, ``invalidate``, a recorded failure), so
        fault tolerance and the pack tier see every lookup they used to."""
        t0 = time.perf_counter_ns() if obs.ACTIVE else 0
        par = self.parallel_enabled()
        if desc is None:
            key = (func, dtypes, ops, direction, par)
        else:
            key = (func, dtypes, ops, desc.mask is None, desc.complement, desc.replace,
                   desc.accum, direction, par)
        cache = self.cache
        generation, table = self._bound
        if generation != cache.generation:
            table = {}
            self._bound = (cache.generation, table)
        bound = table.get(key)
        if bound is None:
            bound = table[key] = self._bind(func, dtypes, ops, desc, direction, par)
        else:
            cache.note_memory_hit(bound.spec, ".so")
        if obs.ACTIVE:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.record(
                    "module_lookup",
                    "jit",
                    t0,
                    time.perf_counter_ns() - t0,
                    {"engine": self.name, "spec": bound.spec.key},
                )
        return bound

    def _bind(self, func, dtypes, ops, desc, direction, par) -> _Bound:
        spec = kernel_spec(func, dtypes, ops, desc, direction, parallel=par)
        lib = self._lib(spec)
        layout = KERNELS[func].layout
        if direction == "pull":
            layout = layout[:-1] + "IO"  # the mask's candidate rows
        elif func == "apply_mat" and spec.unmerged():
            layout = "MSW"
        if layout[-1] == "P":
            # the (fused) producer dtype when there is one, else the operand's
            scalar_dtype = spec.dtype("p" if spec.get("p") else "a")
            const_dtype = scalar_dtype
        else:
            scalar_dtype = None
            # a bound apply constant is read at the dtype its functor runs at
            const_dtype = next(dt for dt in map(spec.dtype, ("t_dtype", "c", "a"))
                               if dt is not None)
        return _Bound(spec, lib, layout, const_dtype, scalar_dtype)

    # ------------------------------------------------------------------
    # the FFI boundary
    # ------------------------------------------------------------------
    def _call(self, bound: _Bound, args: tuple):
        """One ``pygb_run`` invocation, passing this thread's cancel cell,
        with the observability split: Python's monotonic clock around the
        whole call (FFI total) and the kernel's own C++-side clock pair
        read back through ``pygb_kernel_ns()``; the difference is the
        ctypes/marshalling boundary cost (the per-op overhead of paper
        Figs. 7/8)."""
        cell = _THREAD.cancel_addr
        if not obs.ACTIVE:
            return bound.run(cell, *args)
        tracer = obs.active_tracer()
        if tracer is None:
            return bound.run(cell, *args)
        t0 = time.perf_counter_ns()
        try:
            return bound.run(cell, *args)
        finally:
            dur = time.perf_counter_ns() - t0
            kernel_ns = int(bound.kernel_ns())
            tracer.record(
                "ffi_call",
                "ffi",
                t0,
                dur,
                {
                    "engine": "cpp",
                    "lib": bound.lib_name,
                    "kernel_ns": kernel_ns,
                    "boundary_ns": dur - kernel_ns,
                },
            )

    def _run(self, bound: _Bound, args: tuple, out=None) -> int:
        nnz = self._call(bound, args)
        if nnz < 0:
            if nnz == -2:
                # cancellation sentinel: this thread's cell was raised, and
                # the kernel bailed before the writeback — nothing was
                # written or parked
                raise OperationCancelled("C++ kernel observed its thread's cancel cell")
            if nnz in (-3, -4):
                # an index list reached past *out* (the reference kernels'
                # check and message); nothing was written or parked
                what, limit = ("row", out.nrows) if nnz == -3 else ("column", out.ncols)
                raise IndexOutOfBounds(f"{what} index out of range (limit {limit})")
            raise CompilationError("C++ kernel signalled failure")
        return nnz

    def _vec_out(self, bound: _Bound, args: tuple, out: SparseVector) -> SparseVector:
        """Run a vector-valued kernel straight into NumPy-owned buffers:
        nnz(result) <= size is known up front, so nothing is copied out."""
        size = out.size
        idx = np.empty(size, _I64)
        vals = np.empty(size, out.dtype)
        nnz = self._run(bound, args + (address(idx), address(vals)))
        if nnz < size:
            idx, vals = idx[:nnz], vals[:nnz]
            if 2 * nnz < size:
                # much sparser than the bound (a one-entry frontier): trim
                # by copy so the result does not pin two size-long buffers
                idx, vals = idx.copy(), vals.copy()
        return SparseVector.from_sorted(size, idx, vals)

    def _mat_out(self, bound: _Bound, args: tuple, out: SparseMatrix) -> SparseMatrix:
        """Run a matrix-valued kernel, then fetch the result it parked in
        its ``thread_local`` holder into exactly-sized NumPy arrays (nnz
        is only known after the kernel ran)."""
        nnz = self._run(bound, args, out)
        indptr = np.empty(out.nrows + 1, _I64)
        indices = np.empty(nnz, _I64)
        values = np.empty(nnz, out.dtype)
        bound.fetch(address(indptr), address(indices), address(values))
        return SparseMatrix(out.nrows, out.ncols, indptr, indices, values)

    def _scalar_out(self, bound: _Bound, args: tuple, identity):
        out = np.empty(1, bound.scalar_dtype)
        self._call(bound, args + bound.const(identity) + (address(out),))
        return out[0]

    @staticmethod
    def _vec_mask(desc) -> tuple:
        return _NO_VEC_MASK if desc.mask is None else desc.mask.ffi_pack().mask_args()

    @staticmethod
    def _mat_mask(desc) -> tuple:
        return _NO_MAT_MASK if desc.mask is None else desc.mask.ffi_pack().mask_args()

    @staticmethod
    def _const(bound: _Bound, op_spec) -> tuple:
        """The bound constant of an apply operator (unary ops have none)."""
        return bound.const(op_spec[2]) if op_spec[0] == "bind" else _NO_CONST

    # ------------------------------------------------------------------
    # engine interface
    # ------------------------------------------------------------------
    @staticmethod
    def _frontier_edges(s: SparseMatrix, u: SparseVector) -> int:
        """Σ degree(frontier) over the scatter matrix's row pointers —
        exactly the edges the GB::vxm scatter kernel walks."""
        if u.nvals == 0:
            return 0
        rows = np.asarray(u.indices, _I64)
        indptr = np.asarray(s.indptr)
        return int((indptr[rows + 1] - indptr[rows]).sum())

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        # orientation resolves here, as for plain transposes: dense/pull
        # TUs compile against the gather matrix, push TUs against its
        # transpose (the scatter form GB::vxm walks)
        a = _t(a, ta != (direction == "push"))
        bound = self._kernel(
            "mxv", (a.dtype, u.dtype, out.dtype), (add, mult), desc,
            None if direction == "dense" else direction,
        )
        result = self._spmv_run(bound, out, a, u, desc, sched if direction == "pull" else None)
        if sched is not None:
            if direction == "pull":
                _schedule.note_edges("pull", int(bound.edges()))
            elif direction == "push":
                _schedule.note_edges("push", self._frontier_edges(a, u))
            else:
                _schedule.note_edges("dense", int(a.indices.size))
        return result

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        # GB::vxm is natively a scatter kernel, so dense and push share
        # the effective matrix (and the legacy spec/artifact); pull
        # gathers over its transpose with the mask's candidate rows
        pull = direction == "pull"
        a = _t(a, ta != pull)
        bound = self._kernel(
            "vxm", (a.dtype, u.dtype, out.dtype), (add, mult), desc, "pull" if pull else None
        )
        result = self._spmv_run(bound, out, a, u, desc, sched if pull else None)
        if sched is not None:
            if pull:
                _schedule.note_edges("pull", int(bound.edges()))
            else:
                # the scatter kernel's scan is a frontier degree sum even
                # for the "dense" (legacy) schedule — count honestly
                _schedule.note_edges(direction, self._frontier_edges(a, u))
        return result

    def _spmv_run(self, bound, out, a, u, desc, pull_sched):
        args = a.ffi_pack().args + u.ffi_pack().args + out.ffi_pack().args + self._vec_mask(desc)
        if pull_sched is not None:
            cand = np.ascontiguousarray(pull_sched.candidates, _I64)
            args += (address(cand), cand.size)
        return self._vec_out(bound, args, out)

    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        a, b = _t(a, ta), _t(b, tb)
        bound = self._kernel("mxm", (a.dtype, b.dtype, out.dtype), (add, mult), desc)
        args = a.ffi_pack().args + b.ffi_pack().args + out.ffi_pack().args
        return self._mat_out(bound, args + self._mat_mask(desc), out)

    def _ewise_vec(self, func, out, u, v, op, desc):
        bound = self._kernel(func, (u.dtype, v.dtype, out.dtype), (op,), desc)
        args = u.ffi_pack().args + v.ffi_pack().args[1:] + out.ffi_pack().args
        return self._vec_out(bound, args + self._vec_mask(desc), out)

    def ewise_add_vec(self, out, u, v, op, desc):
        return self._ewise_vec("ewise_add_vec", out, u, v, op, desc)

    def ewise_mult_vec(self, out, u, v, op, desc):
        return self._ewise_vec("ewise_mult_vec", out, u, v, op, desc)

    def _ewise_mat(self, func, out, a, b, op, desc, ta, tb):
        a, b = _t(a, ta), _t(b, tb)
        bound = self._kernel(func, (a.dtype, b.dtype, out.dtype), (op,), desc)
        args = a.ffi_pack().args + b.ffi_pack().args[2:] + out.ffi_pack().args[2:]
        return self._mat_out(bound, args + self._mat_mask(desc), out)

    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise_mat("ewise_add_mat", out, a, b, op, desc, ta, tb)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise_mat("ewise_mult_mat", out, a, b, op, desc, ta, tb)

    def apply_vec(self, out, u, op_spec, desc):
        dtypes = (u.dtype, out.dtype, _apply_dtype(op_spec, u.dtype, out.dtype))
        bound = self._kernel("apply_vec", dtypes, apply_ops(op_spec), desc)
        args = u.ffi_pack().args + out.ffi_pack().args + self._vec_mask(desc)
        return self._vec_out(bound, args + self._const(bound, op_spec), out)

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        a = _t(a, ta)
        dtypes = (a.dtype, out.dtype, _apply_dtype(op_spec, a.dtype, out.dtype))
        bound = self._kernel("apply_mat", dtypes, apply_ops(op_spec), desc)
        const = self._const(bound, op_spec)
        if bound.fetch is None:
            # no mask, no accumulator: f(A) stores exactly where A does
            values = np.empty(a.nvals, out.dtype)
            self._run(bound, a.ffi_pack().args + const + (address(values),))
            return a.with_values(values)
        args = a.ffi_pack().args + out.ffi_pack().args[2:] + self._mat_mask(desc)
        return self._mat_out(bound, args + const, out)

    def _reduce_scalar(self, func, x, op, identity):
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[op]
        bound = self._kernel(func, (x.dtype,), (op,))
        return self._scalar_out(bound, x.ffi_pack().args, identity_value(identity, x.dtype))

    def reduce_mat_scalar(self, a, op, identity):
        return self._reduce_scalar("reduce_mat_scalar", a, op, identity)

    def reduce_vec_scalar(self, u, op, identity):
        return self._reduce_scalar("reduce_vec_scalar", u, op, identity)

    def reduce_rows(self, out, a, op, desc, ta=False):
        a = _t(a, ta)
        bound = self._kernel("reduce_rows", (a.dtype, out.dtype), (op,), desc)
        args = a.ffi_pack().args + out.ffi_pack().args + self._vec_mask(desc)
        return self._vec_out(bound, args, out)

    def _indexed_vec(self, func, out, u, idx, desc):
        """assign/extract family: ``(out, u, index list, mask)``."""
        bound = self._kernel(func, (u.dtype, out.dtype), (), desc)
        idx = np.ascontiguousarray(idx, _I64)
        args = out.ffi_pack().args + u.ffi_pack().args + (address(idx), idx.size)
        return self._vec_out(bound, args + self._vec_mask(desc), out)

    def assign_vec(self, out, u, idx, desc):
        return self._indexed_vec("assign_vec", out, u, idx, desc)

    def extract_vec(self, out, u, idx, desc):
        return self._indexed_vec("extract_vec", out, u, idx, desc)

    def assign_vec_scalar(self, out, value, idx, desc):
        bound = self._kernel("assign_vec_scalar", (out.dtype,), (), desc)
        idx = np.ascontiguousarray(idx, _I64)
        args = out.ffi_pack().args + bound.const(value) + (address(idx), idx.size)
        return self._vec_out(bound, args + self._vec_mask(desc), out)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        bound = self._kernel("assign_mat_scalar", (out.dtype,), (), desc)
        rows = np.ascontiguousarray(rows, _I64)
        cols = np.ascontiguousarray(cols, _I64)
        args = out.ffi_pack().args + bound.const(value)
        args += (address(rows), rows.size, address(cols), cols.size)
        return self._mat_out(bound, args + self._mat_mask(desc), out)

    # ------------------------------------------------------------------
    # the reduce-site fused pair: one FFI call for gb.reduce(u ⊕ v), the
    # elementwise result stays inside the shared object
    # ------------------------------------------------------------------
    def _ewise_reduce_scalar(self, func, u, v, op, rop, identity):
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[rop]
        bound = self._kernel(func, (u.dtype, v.dtype), (op, rop))
        args = u.ffi_pack().args + v.ffi_pack().args[1:]
        return self._scalar_out(bound, args, identity_value(identity, bound.scalar_dtype))

    def ewise_add_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar("ewise_add_vec_reduce_scalar", u, v, op, rop, identity)

    def ewise_mult_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar("ewise_mult_vec_reduce_scalar", u, v, op, rop, identity)

    # ------------------------------------------------------------------
    # whole k-source traversals: one FFI call runs the listing's loop
    # ------------------------------------------------------------------
    def _traversal(self, func, graph: SparseMatrix, sources, dtype) -> tuple[SparseMatrix, int]:
        """Run *func*'s generated loop from *sources* into NumPy-owned
        buffers of capacity k·n (every row has at most n entries); the
        result and the kernel's own clock."""
        sources = check_traversal(graph, sources)
        bound = self._kernel(func, (graph.dtype,), ())
        k, n = sources.size, graph.ncols
        indptr = np.empty(k + 1, _I64)
        indices = np.empty(k * n, _I64)
        values = np.empty(k * n, dtype)
        args = graph.ffi_pack().args + (address(sources), k)
        nnz = self._run(bound, args + (address(indptr), address(indices), address(values)))
        if 2 * nnz < k * n:
            # trim by copy, so the result does not pin two k·n buffers
            indices, values = indices[:nnz].copy(), values[:nnz].copy()
        else:
            indices, values = indices[:nnz], values[:nnz]
        return SparseMatrix(k, n, indptr, indices, values), bound.kernel_ns()

    def bfs_multi(self, graph, sources):
        return self._traversal("bfs_multi", graph, sources, _I64)[0]

    def sssp_multi(self, graph, sources):
        return self._traversal("sssp_multi", graph, sources, graph.dtype)[0]

    # ------------------------------------------------------------------
    # GBTL's normalize_rows helper: not part of the Engine interface,
    # ``utilities.normalize_rows`` calls it when the thread's engine is cpp
    # ------------------------------------------------------------------
    def normalize_rows(self, a: SparseMatrix) -> SparseMatrix:
        """*a* with each row divided by the left-to-right double sum of
        its stored values (1 where that is zero), as one compiled pass per
        row: new values on *a*'s own ``indptr``/``indices``, ``float32``
        for ``float32`` input and ``float64`` for every other dtype."""
        c_dtype = a.dtype if a.dtype == np.float32 else _F64
        bound = self._kernel("normalize_rows", (a.dtype, c_dtype), ())
        values = np.empty(a.nvals, c_dtype)
        self._run(bound, a.ffi_pack().args + (address(values),))
        return a.with_values(values)

    # ------------------------------------------------------------------
    # whole algorithms and the fast loader's parser (paper Fig. 10 v2/v3,
    # Sec. VIII): not part of the Engine interface, called through
    # :func:`native_engine` by ``algorithms.compiled`` and ``io.fastload``;
    # the algorithms also return their kernel's own clock (v3)
    # ------------------------------------------------------------------
    def pagerank(self, graph: SparseMatrix, damping: float, threshold: float,
                 max_iters: int) -> tuple[SparseVector, int]:
        """Fig. 8's loop as one call: the rank vector, of *graph*'s dtype."""
        bound = self._kernel("pagerank", (graph.dtype,), ())
        args = graph.ffi_pack().args + (damping, threshold, max_iters)
        ranks = self._vec_out(bound, args, SparseVector.empty(graph.nrows, graph.dtype))
        return ranks, bound.kernel_ns()

    def triangle_count(self, lower: SparseMatrix) -> tuple:
        """Fig. 5b as one call: the Plus-reduce of ``B<L> = L ⊕.⊗ Lᵀ``."""
        bound = self._kernel("triangle_count", (lower.dtype,), ())
        out = np.zeros(1, lower.dtype)
        args = lower.ffi_pack().args + lower.transposed().ffi_pack().args[2:]
        self._run(bound, args + (address(out),))
        return out[0], bound.kernel_ns()

    def mmread(self, body: bytes, nnz: int, nrows: int, ncols: int):
        """``(status, rows, cols, values)`` of a MatrixMarket coordinate
        section of *nnz* real entries, 0-based; status -1 is a malformed
        body, 1 entries already in CSR order and in range, 0 any other."""
        bound = self._kernel("mmread", (_F64,), ())
        rows, cols, vals = np.empty(nnz, _I64), np.empty(nnz, _I64), np.empty(nnz, _F64)
        status = self._call(bound, (body, len(body), nnz, nrows, ncols, address(rows),
                                    address(cols), address(vals)))
        return status, rows, cols, vals

    # -- Python-JIT fallbacks (index-heavy matrix forms) -----------------
    def transpose(self, out, a, desc):
        return self._fallback.transpose(out, a, desc)

    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        return self._fallback.extract_mat(out, a, rows, cols, desc, ta)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        return self._fallback.assign_mat(out, a, rows, cols, desc, ta)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        return self._fallback.select_mat(out, a, op, thunk, desc, ta)

    def select_vec(self, out, u, op, thunk, desc):
        return self._fallback.select_vec(out, u, op, thunk, desc)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        return self._fallback.kronecker(out, a, b, op, desc, ta, tb)


#: ((configuration, cache), engine) of :func:`native_engine`
_NATIVE: tuple | None = None


def native_engine() -> CppJitEngine:
    """The cpp engine ``algorithms.compiled`` and ``io.fastload`` call their
    kernel-table rows through: built at first use on the default cache,
    and again once the configuration (``$PYGB_CXX``) or the default cache
    is replaced.  Raises :class:`BackendUnavailable` without a compiler."""
    global _NATIVE
    key = (_config(), default_cache())
    if _NATIVE is None or _NATIVE[0] != key:
        _NATIVE = (key, CppJitEngine(key[1]))
    return _NATIVE[1]
