"""GBTL's ``normalize_rows`` / ``normalize_cols`` helpers as NumPy folds.

``normalize_rows`` is the reference of the cpp engine's compiled
``GB::normalize_rows`` pass and what every other engine runs: the row
sums fold left to right in double, as a per-row loop would, so the two
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..smatrix import SparseMatrix

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


def normalize_rows(store: SparseMatrix) -> SparseMatrix:
    """*store* with each row divided by the sum of its stored values."""
    lengths = store.row_lengths()
    rows = np.repeat(np.arange(store.nrows, dtype=np.int64), lengths)
    return _scaled(store, np.repeat(_divisors(rows, store.values, store.nrows), lengths))


def normalize_cols(store: SparseMatrix) -> SparseMatrix:
    """*store* with each column divided by the sum of its stored values."""
    divisors = _divisors(store.indices, store.values, store.ncols)
    return _scaled(store, divisors[store.indices])
