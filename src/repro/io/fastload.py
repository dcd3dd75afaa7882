"""JIT-compiled C++ MatrixMarket loader (paper Sec. VIII).

The paper's Fig. 11 discussion: "C++ is much faster at this operation,
and wrapping a C++ function to directly load a matrix instead of first
loading into Python lists would be trivial."  This module is that
function: the coordinate-section parser is the ``mmread`` row of the
kernel table, built and cached like every other kernel and called
through :func:`~repro.jit.cppengine.native_engine`.

Nothing changes owner across the FFI (docs/architecture.md, *The write
path*): Python reads the header and size line with the code
:func:`~repro.io.matrixmarket.mmread` uses, hands the C++ side the rest
of the file as ``bytes`` plus three ``np.empty(nnz)`` arrays to fill, and
gets back a status — malformed, parsed, or parsed and already a valid
CSR order, in which case the arrays are adopted without a sort.

``mmread_fast`` transparently falls back to the pure-Python reader when
no compiler is available, the parser does not build (the engine's health
layer warns once and quarantines it) or the file uses a feature the C++
parser does not cover (``pattern`` fields, ``symmetric`` storage).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import BackendUnavailable, CompilationError, InvalidValue

__all__ = ["mmread_fast", "fast_loader_available"]


def fast_loader_available() -> bool:
    """True when the C++ loader can be (or already is) compiled."""
    from ..jit.cppengine import compiler_available

    return compiler_available()


def mmread_fast(path, dtype=None):
    """Read a MatrixMarket file through the JIT-compiled C++ parser,
    falling back to :func:`repro.io.matrixmarket.mmread` when the fast
    path cannot handle the file (or no compiler exists)."""
    from ..backend.smatrix import SparseMatrix
    from ..core.matrix import Matrix
    from ..jit.cppengine import native_engine
    from .matrixmarket import _read_preamble, mmread

    try:
        engine = native_engine()
    except BackendUnavailable:
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
    try:
        status, rows, cols, vals = engine.mmread(body, nnz, nrows, ncols)
    except CompilationError:
        # the loader is an optimisation, not a capability: the engine's
        # health layer has warned once (JitFallbackWarning) and
        # quarantines the parser, so later reads come straight here
        engine.cache.note_fallback()
        return mmread(path, dtype=dtype)
    if status < 0:
        raise InvalidValue(f"malformed MatrixMarket file {path}")
    if field == "integer":
        vals = vals.astype(np.int64)
    if status == 0:  # unsorted, duplicated or out of range: the general build
        return Matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=dtype)
    return Matrix(SparseMatrix.from_coo_sorted(nrows, ncols, rows, cols, vals), dtype=dtype)
