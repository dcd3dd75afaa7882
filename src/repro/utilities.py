"""Utility routines mirroring GBTL's helper functions.

``gb.utilities.normalize_rows`` appears in the paper's PageRank (Fig. 7
line 9, ``GB::normalize_rows`` in Fig. 8 line 16).
"""

from __future__ import annotations

import numpy as np

from .backend.smatrix import SparseMatrix
from .core.matrix import Matrix

__all__ = ["normalize_rows", "normalize_cols"]


def _divisors(lines: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """What each of *n* lines divides by: the sum of its *values*, or 1
    where that is zero (``x / 1.0`` is ``x``, so such a line stays as it
    is).  ``bincount`` folds left to right, as a per-line loop would;
    ``np.add.reduceat`` is faster still but sums pairwise."""
    sums = np.bincount(lines, weights=values, minlength=n)
    sums[sums == 0] = 1.0
    return sums


def _scaled(store: SparseMatrix, divisor_per_entry: np.ndarray) -> SparseMatrix:
    vals = np.divide(store.values, divisor_per_entry)
    if store.dtype.kind == "f":
        vals = vals.astype(store.dtype, copy=False)
    # integer matrices are promoted to float64, matching GBTL's PageRank
    # usage where the graph is first copied into a floating-point matrix
    return SparseMatrix(store.nrows, store.ncols, store.indptr, store.indices, vals)


def normalize_rows(m: Matrix) -> Matrix:
    """Scale each row of *m* in place so its stored values sum to 1.

    Rows with zero sum (or no stored values) are left untouched.  Integer
    matrices are promoted to float64.  Returns *m* for chaining.
    """
    store = m._store
    if store.nvals == 0:
        return m
    lengths = store.row_lengths()
    rows = np.repeat(np.arange(store.nrows, dtype=np.int64), lengths)
    m._store = _scaled(store, np.repeat(_divisors(rows, store.values, store.nrows), lengths))
    return m


def normalize_cols(m: Matrix) -> Matrix:
    """Column counterpart of :func:`normalize_rows` (in place)."""
    store = m._store
    if store.nvals == 0:
        return m
    divisors = _divisors(store.indices, store.values, store.ncols)
    m._store = _scaled(store, divisors[store.indices])
    return m
