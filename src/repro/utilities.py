"""Utility routines mirroring GBTL's helper functions.

``gb.utilities.normalize_rows`` appears in the paper's PageRank (Fig. 7
line 9, ``GB::normalize_rows`` in Fig. 8 line 16).  On the cpp engine it
runs as that helper does, one compiled pass per row
(``GB::normalize_rows`` in ``jit/gbtl_lite.py``); every other engine, and
a cpp engine whose compiler fails, runs the NumPy fold of
``backend/kernels/normalize.py`` — the same fold, so the same bits.
"""

from __future__ import annotations

from .backend.kernels import normalize
from .backend.smatrix import SparseMatrix
from .core.context import current_raw_engine
from .core.matrix import Matrix
from .exceptions import CompilationError
from .jit.health import jit_strict

__all__ = ["normalize_rows", "normalize_cols", "normalized_rows"]


def normalized_rows(store: SparseMatrix) -> SparseMatrix:
    """*store* with each row scaled so its stored values sum to 1 (a row
    summing to zero is kept as it is): a plain store on *store*'s
    pattern, ``float32`` for ``float32`` input and ``float64`` otherwise.
    The row sums fold left to right in double on every path."""
    engine = current_raw_engine()
    if engine.name == "cpp":
        try:
            return engine.normalize_rows(store)
        except CompilationError:
            # the kernel is an optimisation, not a capability: the engine's
            # health layer has warned once (JitFallbackWarning) and
            # quarantines the spec, so later calls come straight here
            if jit_strict():
                raise
            engine.cache.note_fallback()
    return normalize.normalize_rows(store)


def normalize_rows(m: Matrix) -> Matrix:
    """Scale each row of *m* in place so its stored values sum to 1.

    Rows with zero sum (or no stored values) are left untouched.  Integer
    matrices are promoted to float64.  Returns *m* for chaining.
    """
    store = m._store
    if store.nvals == 0:
        return m
    m._store = normalized_rows(store)
    return m


def normalize_cols(m: Matrix) -> Matrix:
    """Column counterpart of :func:`normalize_rows` (in place)."""
    store = m._store
    if store.nvals == 0:
        return m
    m._store = normalize.normalize_cols(store)
    return m
