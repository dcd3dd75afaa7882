"""JIT-compiled C++ MatrixMarket loader (paper Sec. VIII).

The paper's Fig. 11 discussion: "C++ is much faster at this operation,
and wrapping a C++ function to directly load a matrix instead of first
loading into Python lists would be trivial."  This module is that
function: a C++ coordinate-section parser compiled once through the same
JIT cache as the operation kernels.

Nothing changes owner across the FFI (docs/architecture.md, *The write
path*): Python reads the header and size line with the code
:func:`~repro.io.matrixmarket.mmread` uses, hands the C++ side the rest
of the file as ``bytes`` plus three ``np.empty(nnz)`` arrays to fill, and
gets back a status — malformed, parsed, or parsed and already a valid
CSR order, in which case the arrays are adopted without a sort.

``mmread_fast`` transparently falls back to the pure-Python reader when
no compiler is available or the file uses a feature the C++ parser does
not cover (``pattern`` fields, ``symmetric`` storage).
"""

from __future__ import annotations

import ctypes
import warnings
from ctypes import c_char_p, c_int64, c_void_p

import numpy as np

from ..exceptions import InvalidValue
from ..jit.cache import default_cache
from ..jit.spec import KernelSpec

__all__ = ["mmread_fast", "fast_loader_available"]

_LOADER_SOURCE = r"""
// Auto-generated by the PyGB JIT (MatrixMarket fast loader) — do not edit.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <system_error>

namespace {

inline bool is_space(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

// start of the next token, past one leading '+': NumPy's parser (the
// Python reader) takes it, from_chars does not
inline const char* token_start(const char* p, const char* end) {
    while (p != end && is_space(*p)) ++p;
    return (end - p > 1 && p[0] == '+' && p[1] != '+' && p[1] != '-') ? p + 1 : p;
}

// a token is well formed only if it ends at whitespace or the end of input
inline const char* token_end(const char* p, const char* end) {
    return (p == end || is_space(*p)) ? p : nullptr;
}

// both parsers return the first byte after the token, or nullptr
inline const char* parse_index(const char* p, const char* end, int64_t& out) {
    auto res = std::from_chars(token_start(p, end), end, out);
    return res.ec == std::errc() ? token_end(res.ptr, end) : nullptr;
}

inline const char* parse_real(const char* p, const char* end, double& out) {
    p = token_start(p, end);
    if (p == end) return nullptr;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    auto res = std::from_chars(p, end, out);
    if (res.ec == std::errc()) return token_end(res.ptr, end);
    if (res.ec != std::errc::result_out_of_range) return nullptr;
#endif
    // no floating-point from_chars in this standard library, or the token
    // overflows a double (strtod yields +-inf / 0, as NumPy does); the
    // buffer is a Python bytes object, NUL-terminated, so strtod stops
    char* stop = nullptr;
    out = std::strtod(p, &stop);
    return (stop == p || stop > end) ? nullptr : token_end(stop, end);
}

}  // namespace

// Parses exactly `nnz` "row col value" entries (1-based) from buf[0, len)
// into the caller's arrays (0-based).  -1: an entry is malformed, missing,
// or followed by anything but whitespace; 1: every entry is in range and
// they are strictly increasing in row-major order (a CSR as they stand:
// no sort, duplicate fold or bounds pass needed); 0 otherwise.
extern "C" int64_t pygb_run(const char* buf, int64_t len, int64_t nnz,
                            int64_t nrows, int64_t ncols,
                            int64_t* rows, int64_t* cols, double* vals)
{
    const char* p = buf;
    const char* const end = buf + len;
    bool canonical = true;
    int64_t prev_r = -1, prev_c = -1;
    for (int64_t k = 0; k < nnz; ++k) {
        int64_t r, c;
        if (!(p = parse_index(p, end, r))) return -1;
        if (!(p = parse_index(p, end, c))) return -1;
        if (!(p = parse_real(p, end, vals[k]))) return -1;
        // 0-based; anything below 1 becomes -1 (r - 1 could overflow) and
        // is reported by the bounds check of the non-canonical path
        r = r < 1 ? -1 : r - 1;
        c = c < 1 ? -1 : c - 1;
        canonical = canonical && r >= 0 && r < nrows && c >= 0 && c < ncols &&
                    (r > prev_r || (r == prev_r && c > prev_c));
        rows[k] = prev_r = r;
        cols[k] = prev_c = c;
    }
    if (token_start(p, end) != end) return -1;
    return canonical ? 1 : 0;
}
"""

_lib = None
_lib_failed = False


def fast_loader_available() -> bool:
    """True when the C++ loader can be (or already is) compiled."""
    from ..jit.cppengine import compiler_available

    return compiler_available()


def _loader():
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    from ..exceptions import CompilationError, JitFallbackWarning
    from ..jit.cppengine import CppJitEngine, compiler_available

    if not compiler_available():
        _lib_failed = True
        return None
    try:
        engine = CppJitEngine()
        spec = KernelSpec.make("fastload_mm")
        artifact = default_cache().get_module(
            spec, lambda _s: _LOADER_SOURCE, suffix=".cpp", compiler=engine._compile
        )
        lib = ctypes.CDLL(str(artifact))
    except (CompilationError, OSError) as exc:
        # the loader is an optimisation, not a capability: a compiler that
        # fails (or a .so that won't load) degrades to the Python reader
        _lib_failed = True
        default_cache().note_jit_failure()
        warnings.warn(
            "pygb: C++ fast MatrixMarket loader unavailable "
            f"({str(exc).splitlines()[0][:200]}); using the pure-Python reader",
            JitFallbackWarning,
            stacklevel=3,
        )
        return None
    lib.pygb_run.restype = c_int64
    lib.pygb_run.argtypes = [c_char_p] + [c_int64] * 4 + [c_void_p] * 3
    _lib = lib
    return _lib


def mmread_fast(path, dtype=None):
    """Read a MatrixMarket file through the JIT-compiled C++ parser,
    falling back to :func:`repro.io.matrixmarket.mmread` when the fast
    path cannot handle the file (or no compiler exists)."""
    from ..backend.smatrix import SparseMatrix
    from ..core.matrix import Matrix
    from .matrixmarket import _read_preamble, mmread

    lib = _loader()
    if lib is None:
        return mmread(path, dtype=dtype)
    try:
        with open(path, "rb") as fh:
            field, symmetry, nrows, ncols, nnz = _read_preamble(fh)
            if field == "pattern" or symmetry == "symmetric":
                return mmread(path, dtype=dtype)  # unsupported flavour: fall back
            body = fh.read()
    except OSError as exc:
        raise InvalidValue(f"cannot open {path}") from exc
    # an entry takes at least five bytes: a larger promise is a malformed
    # file, not a reason to attempt the allocation
    if nnz > len(body):
        raise InvalidValue(f"size line promised {nnz} entries, {path} cannot hold them")
    rows, cols = np.empty(nnz, np.int64), np.empty(nnz, np.int64)
    vals = np.empty(nnz, np.float64)
    status = lib.pygb_run(
        body, len(body), nnz, nrows, ncols,
        rows.ctypes.data, cols.ctypes.data, vals.ctypes.data,
    )
    if status < 0:
        raise InvalidValue(f"malformed MatrixMarket file {path}")
    if field == "integer":
        vals = vals.astype(np.int64)
    if status == 0:  # unsorted, duplicated or out of range: the general build
        return Matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=dtype)
    return Matrix(SparseMatrix.from_coo_sorted(nrows, ncols, rows, cols, vals), dtype=dtype)
