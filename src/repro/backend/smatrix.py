"""Sparse matrix storage for the NumPy backend.

:class:`SparseMatrix` is a CSR (compressed sparse row) container with
sorted, duplicate-free column indices within each row — the same layout
GBTL's ``LilSparseMatrix``/CSR backends expose to their kernels.  The
transpose is materialised lazily and cached, because the evaluated
algorithms (BFS, SSSP) multiply by ``graph.T`` on every iteration.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ..exceptions import DimensionMismatch, IndexOutOfBounds
from ..types import normalize_dtype
from . import primitives as P
from .ffipack import ArgPack, resident

__all__ = ["SparseMatrix"]

#: guards lazy memo construction (transpose, row lengths, degree stats)
#: when server threads share one preloaded matrix.  Module-level to keep
#: __slots__ instances light; reentrant because ``transposed`` builds
#: through ``coo`` → ``row_lengths`` under the same lock.
_MEMO_LOCK = threading.RLock()


class SparseMatrix:
    """CSR sparse matrix; kernels treat instances as immutable."""

    __slots__ = (
        "nrows",
        "ncols",
        "indptr",
        "indices",
        "values",
        "_transpose_cache",
        "_lengths_cache",
        "_degree_stats_cache",
        "_ffi_cache",
        "__weakref__",
    )

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.values = values
        # the transpose this store built (strong), or on that transpose a
        # weakref back to its source — never a strong cycle, so a dropped
        # store and its transpose are freed by refcount, not by the collector
        self._transpose_cache: "SparseMatrix | weakref.ref | None" = None
        # memoized degree statistics (row_lengths / degree_stats); like the
        # transpose cache these are safe because instances are immutable by
        # convention, never shared across copy/astype, and built under
        # _MEMO_LOCK when concurrent server threads race the first touch
        self._lengths_cache: np.ndarray | None = None
        self._degree_stats_cache: tuple[int, int] | None = None
        self._ffi_cache: ArgPack | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype) -> "SparseMatrix":
        dt = normalize_dtype(dtype)
        return cls(
            nrows,
            ncols,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dt),
        )

    @classmethod
    def from_coo(
        cls, nrows: int, ncols: int, rows, cols, values, dtype=None, dup_op="Second"
    ) -> "SparseMatrix":
        """Build from unordered COO triples, combining duplicates with
        *dup_op* (default last-wins, GBTL's build behaviour)."""
        from . import ops_table

        r = np.asarray(rows, dtype=np.int64).ravel()
        c = np.asarray(cols, dtype=np.int64).ravel()
        v = np.asarray(values)
        if np.isscalar(values) or v.ndim == 0:
            v = np.broadcast_to(v, r.shape).copy()
        dt = normalize_dtype(dtype) if dtype is not None else None
        if dt is not None:
            v = v.astype(dt, copy=False)
        if not (r.size == c.size == v.size):
            raise DimensionMismatch(
                f"COO arrays disagree: {r.size} rows, {c.size} cols, {v.size} values"
            )
        if r.size:
            if r.min() < 0 or r.max() >= nrows:
                raise IndexOutOfBounds(f"row index out of range for {nrows} rows")
            if c.min() < 0 or c.max() >= ncols:
                raise IndexOutOfBounds(f"column index out of range for {ncols} columns")
        if int(nrows) * int(ncols) >= 2**63:
            order = np.lexsort((c, r))  # the fused key would overflow int64
        else:
            key = r * np.int64(ncols) + c
            if P.strictly_increasing(key):
                # already row-major and duplicate-free (generators, to_coo(),
                # mmwrite output, SciPy tocoo() of a CSR): nothing to sort or
                # fold; copy, because asarray aliases an ndarray argument
                return cls.from_coo_sorted(nrows, ncols, r, c.copy(), v.copy())
            order = np.argsort(key, kind="stable")
        r, c, v = r[order], c[order], v[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        if not first.all():
            starts, v = ops_table.fold_duplicates(dup_op, first, v)
            r, c = r[starts], c[starts]
        return cls.from_coo_sorted(nrows, ncols, r, c, v)

    @classmethod
    def from_coo_sorted(
        cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "SparseMatrix":
        """Build from row-major-sorted, duplicate-free COO arrays (no sort)."""
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        if rows.size:
            np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        return cls(nrows, ncols, indptr, cols.astype(np.int64, copy=False), values)

    @classmethod
    def from_dense(cls, array, dtype=None) -> "SparseMatrix":
        """Build from a dense 2-D array.  Matching GBTL's dense constructor,
        **all** elements (zeros included) become stored entries."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got shape {arr.shape}")
        dt = normalize_dtype(dtype) if dtype is not None else None
        vals = arr.astype(dt) if dt is not None else arr.copy()
        nrows, ncols = arr.shape
        indptr = np.arange(0, nrows * ncols + 1, ncols, dtype=np.int64)
        indices = np.tile(np.arange(ncols, dtype=np.int64), nrows)
        return cls(nrows, ncols, indptr, indices, vals.ravel())

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    # ------------------------------------------------------------------
    # derived forms
    # ------------------------------------------------------------------
    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` in row-major order (cols ascend within
        each row); rows are expanded from the CSR row pointer."""
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), self.row_lengths()
        )
        return rows, self.indices, self.values

    def row_lengths(self) -> np.ndarray:
        """Per-row entry counts (memoized, read-only).

        The schedule cost model consults these on every traversal
        iteration and the tile splitter on every partition decision, so
        the ``np.diff`` scan over ``indptr`` runs at most once per store.
        """
        lengths = self._lengths_cache
        if lengths is None:
            with _MEMO_LOCK:
                lengths = self._lengths_cache
                if lengths is None:
                    lengths = np.diff(self.indptr)
                    lengths.flags.writeable = False
                    self._lengths_cache = lengths
        return lengths

    def degree_stats(self) -> tuple[int, int]:
        """``(total_nnz, max_degree)``, memoized alongside row_lengths."""
        stats = self._degree_stats_cache
        if stats is None:
            with _MEMO_LOCK:
                stats = self._degree_stats_cache
                if stats is None:
                    lengths = self.row_lengths()
                    stats = self._degree_stats_cache = (
                        int(self.indptr[-1]) if self.indptr.size else 0,
                        int(lengths.max()) if lengths.size else 0,
                    )
        return stats

    def transpose_memo(self) -> "SparseMatrix | None":
        """The transpose if one is at hand — built by this store, or the
        still-living store this one was built from — else None."""
        t = self._transpose_cache
        return t() if type(t) is weakref.ref else t

    def transposed(self) -> "SparseMatrix":
        """CSR of the transpose (cached; shared immutable arrays)."""
        t = self.transpose_memo()
        if t is None:
            with _MEMO_LOCK:
                t = self.transpose_memo()
                if t is None:
                    t = self._build_transpose()
                    t._transpose_cache = weakref.ref(self)
                    self._transpose_cache = t
        return t

    def __reduce__(self):
        # copy / deepcopy / pickle carry the arrays and extents, no memo
        return type(self), (self.nrows, self.ncols, self.indptr, self.indices, self.values)

    def _build_transpose(self) -> "SparseMatrix":
        rows, cols, vals = self.coo()
        # row-major entries stably sorted by column are column-major with
        # ascending rows: one key, not lexsort's two — and a 16-bit key
        # takes NumPy's radix sort (8x faster at 262144 entries)
        key = cols.astype(np.uint16) if self.ncols <= 65536 else cols
        order = np.argsort(key, kind="stable")
        return SparseMatrix.from_coo_sorted(
            self.ncols, self.nrows, cols[order], rows[order], vals[order]
        )

    def set_elements(self, rows, cols, values) -> "SparseMatrix":
        """A new store with ``self[rows[k], cols[k]] = values[k]`` applied
        in the order given (a later write to the same position wins) —
        the merge behind buffered ``m[i, j] = v`` statements.  Positions
        must be in range; O(nvals + k log k)."""
        r, c = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        order = np.lexsort((c, r))  # stable: ties stay in program order
        r, c, v = r[order], c[order], np.asarray(values, dtype=self.dtype)[order]
        last = np.ones(r.size, dtype=bool)
        last[:-1] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        r, c, v = r[last], c[last], v[last]
        # each position's slot: one binary search per touched row (a fused
        # row*ncols+col key would be one search, but overflows wide extents)
        pos = np.empty(r.size, dtype=np.int64)
        starts = P.segment_starts(r)
        bounds = [*starts.tolist(), r.size]
        lows, highs = self.indptr[r[starts]].tolist(), self.indptr[r[starts] + 1].tolist()
        for s, e, lo, hi in zip(bounds, bounds[1:], lows, highs):
            pos[s:e] = lo + np.searchsorted(self.indices[lo:hi], c[s:e])
        indices, values, miss = P.overwrite_or_insert(
            self.indices, self.values, pos, self.indptr[r + 1], c, v
        )
        indptr = self.indptr
        if miss.any():
            indptr = indptr.copy()
            indptr[1:] += np.cumsum(np.bincount(r[miss], minlength=self.nrows))
        return SparseMatrix(self.nrows, self.ncols, indptr, indices, values)

    def ffi_pack(self) -> ArgPack:
        """``(nrows, ncols, indptr, indices, values)`` as the cpp engine
        passes this matrix to a kernel, ``.mask_args()`` for mask position
        — built on the first cpp dispatch, then resident (see
        :mod:`~repro.backend.ffipack`)."""
        return self._ffi_cache or resident(
            self, (self.nrows, self.ncols), (self.indptr, self.indices)
        )

    def row_vector(self, i: int):
        """Row *i* as a SparseVector of size ``ncols`` (zero-copy slices)."""
        from .svector import SparseVector

        if not 0 <= i < self.nrows:
            raise IndexOutOfBounds(f"row {i} out of range for {self.nrows} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector.from_sorted(self.ncols, self.indices[lo:hi], self.values[lo:hi])

    def to_dense(self, fill=0) -> np.ndarray:
        out = np.full((self.nrows, self.ncols), fill, dtype=self.dtype)
        rows, cols, vals = self.coo()
        out[rows, cols] = vals
        return out

    def get(self, i: int, j: int, default=None):
        """Stored value at ``(i, j)``, or *default*."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfBounds(f"({i}, {j}) out of range for shape {self.shape}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], j)
        if pos < hi and self.indices[pos] == j:
            return self.values[pos]
        return default

    def with_values(self, values: np.ndarray) -> "SparseMatrix":
        """A plain store of *values* on this store's pattern: ``indptr``
        and ``indices`` are shared, not copied (stores are immutable)."""
        return SparseMatrix(self.nrows, self.ncols, self.indptr, self.indices, values)

    def astype(self, dtype) -> "SparseMatrix":
        dt = normalize_dtype(dtype)
        if dt == self.dtype:
            return self
        return self.with_values(self.values.astype(dt))

    def copy(self) -> "SparseMatrix":
        return SparseMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
        )

    def to_dict(self) -> dict[tuple[int, int], object]:
        """Plain ``{(i, j): value}`` dict (reference-implementation format)."""
        rows, cols, vals = self.coo()
        return dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseMatrix(shape={self.shape}, nvals={self.nvals}, dtype={self.dtype})"
        )
