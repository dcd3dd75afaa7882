"""Row-blocked CSR storage for the tiled data plane.

:class:`TiledMatrix` is a :class:`SparseMatrix` whose row space carries a
partition into contiguous row blocks with nnz-balanced boundaries (computed
from the memoized ``row_lengths()`` cumulative sums already stored in
``indptr``).  Because it *is* a ``SparseMatrix`` — same arrays, same
invariants — every existing kernel can consume it monolithically; the
``PartitionedEngine`` in ``core/dispatch.py`` additionally knows how to fan
row-disjoint operations out over the blocks and merge the partial results.

Tiles themselves are plain ``SparseMatrix`` zero-copy views: block *k*
covering rows ``[r0, r1)`` shares ``indices``/``values`` slices and rebases
``indptr`` by a single vectorised subtraction.  The helpers below implement
the row-space algebra the executor needs: slicing vectors, masks and
descriptors down to a block, and concatenating per-block outputs back into
one container (CSR stacking for matrices, index rebasing for vectors).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..types import normalize_dtype
from .smatrix import SparseMatrix
from .svector import SparseVector

__all__ = [
    "TiledMatrix",
    "nnz_balanced_splits",
    "row_block",
    "slice_vec_rows",
    "slice_desc_rows",
    "concat_vec_parts",
    "concat_mat_parts",
]


def nnz_balanced_splits(indptr: np.ndarray, nrows: int, ntiles: int) -> np.ndarray:
    """Row boundaries ``[0, r1, ..., nrows]`` splitting the matrix into at
    most *ntiles* contiguous blocks with roughly equal nnz.

    ``indptr`` already *is* the cumulative row-length sum, so the k-th
    boundary is just a ``searchsorted`` for ``k/ntiles`` of the total nnz —
    no rescan of the row lengths.  Degenerate rows (a single hub holding
    most of the nnz) collapse neighbouring cuts; ``np.unique`` then yields
    fewer, still-balanced tiles rather than empty ones.
    """
    n = min(int(ntiles), max(int(nrows), 1))
    if n <= 1 or nrows <= 1:
        return np.array([0, nrows], dtype=np.int64)
    nnz = int(indptr[-1]) if len(indptr) else 0
    if nnz == 0:
        cuts = np.linspace(0, nrows, n + 1).astype(np.int64)
    else:
        targets = np.arange(1, n, dtype=np.float64) * (nnz / n)
        inner = np.searchsorted(indptr, targets, side="left").astype(np.int64)
        inner = np.clip(inner, 1, nrows - 1)
        cuts = np.concatenate(([0], inner, [nrows]))
    return np.unique(cuts)


def row_block(m: SparseMatrix, r0: int, r1: int) -> SparseMatrix:
    """Rows ``[r0, r1)`` of *m* as a plain CSR view (zero-copy data)."""
    lo = int(m.indptr[r0])
    hi = int(m.indptr[r1])
    return SparseMatrix(
        r1 - r0,
        m.ncols,
        m.indptr[r0 : r1 + 1] - lo,
        m.indices[lo:hi],
        m.values[lo:hi],
    )


class TiledMatrix(SparseMatrix):
    """CSR matrix carrying an nnz-balanced row partition.

    Invariants: ``splits`` is a strictly increasing int64 array starting at
    0 and ending at ``nrows``; ``ntiles == len(splits) - 1``.  A trivial
    partition (``[0, nrows]``) is allowed and means "monolithic".
    """

    __slots__ = ("splits", "_tiles_cache")

    def __init__(self, nrows, ncols, indptr, indices, values, splits=None):
        super().__init__(nrows, ncols, indptr, indices, values)
        if splits is None:
            splits = np.array([0, self.nrows], dtype=np.int64)
        self.splits = splits
        self._tiles_cache: list[SparseMatrix] | None = None

    @classmethod
    def from_monolithic(cls, m: SparseMatrix, ntiles: int) -> "TiledMatrix":
        """Re-view *m*'s arrays under an nnz-balanced partition (no copy).

        The degree-statistic memos carry over (read-only arrays, same
        data); the transpose cache does not — a tiled matrix transposes
        into a tiled matrix with its own row-balanced splits.
        """
        t = cls(
            m.nrows,
            m.ncols,
            m.indptr,
            m.indices,
            m.values,
            nnz_balanced_splits(m.indptr, m.nrows, ntiles),
        )
        t._lengths_cache = m._lengths_cache
        t._degree_stats_cache = m._degree_stats_cache
        return t

    @property
    def ntiles(self) -> int:
        return len(self.splits) - 1

    def tiles(self) -> list[SparseMatrix]:
        """The row blocks as plain CSR views (lazy, cached)."""
        if self._tiles_cache is None:
            self._tiles_cache = [
                row_block(self, int(self.splits[k]), int(self.splits[k + 1]))
                for k in range(self.ntiles)
            ]
        return self._tiles_cache

    def _build_transpose(self) -> "TiledMatrix":
        return TiledMatrix.from_monolithic(super()._build_transpose(), self.ntiles)

    def __reduce__(self):
        return type(self), (*super().__reduce__()[1], self.splits)

    def astype(self, dtype) -> "TiledMatrix":
        dt = normalize_dtype(dtype)
        if dt == self.dtype:
            return self
        return TiledMatrix(
            self.nrows,
            self.ncols,
            self.indptr,
            self.indices,
            self.values.astype(dt),
            self.splits,
        )

    def copy(self) -> "TiledMatrix":
        return TiledMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
            self.splits.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TiledMatrix(shape={self.shape}, nvals={self.nvals}, "
            f"dtype={self.dtype}, ntiles={self.ntiles})"
        )


def slice_vec_rows(v: SparseVector, r0: int, r1: int) -> SparseVector:
    """Entries of *v* with index in ``[r0, r1)``, rebased to the block."""
    lo = int(np.searchsorted(v.indices, r0))
    hi = int(np.searchsorted(v.indices, r1))
    return SparseVector.from_sorted(r1 - r0, v.indices[lo:hi] - r0, v.values[lo:hi])


def slice_desc_rows(desc, r0: int, r1: int):
    """Descriptor restricted to output rows ``[r0, r1)``.

    Masks are positionwise, so slicing the mask's row range commutes with
    ``finalize`` — this is what makes per-block finalize + concat
    bit-identical to the monolithic path.  ``accum``/``replace``/
    ``complement`` carry over unchanged.
    """
    mask = desc.mask
    if mask is None:
        return desc
    if isinstance(mask, SparseMatrix):
        sliced = row_block(mask, r0, r1)
    else:
        sliced = slice_vec_rows(mask, r0, r1)
    return dataclasses.replace(desc, mask=sliced)


def concat_vec_parts(parts, size: int, splits: np.ndarray) -> SparseVector:
    """Merge per-block vector outputs: rebase indices by the block start
    and concatenate (blocks are row-disjoint and in ascending order)."""
    idx = [
        p.indices + int(splits[k]) for k, p in enumerate(parts) if p.indices.size
    ]
    if not idx:
        return SparseVector.from_sorted(
            size, np.empty(0, dtype=np.int64), np.empty(0, dtype=parts[0].values.dtype)
        )
    vals = [p.values for p in parts if p.indices.size]
    return SparseVector.from_sorted(size, np.concatenate(idx), np.concatenate(vals))


def concat_mat_parts(parts, ncols: int) -> SparseMatrix:
    """Merge per-block matrix outputs by CSR stacking: shift each block's
    row pointer by the running nnz offset and concatenate the data."""
    nrows = sum(p.nrows for p in parts)
    indptrs = [np.asarray(parts[0].indptr, dtype=np.int64)]
    off = int(parts[0].indptr[-1])
    for p in parts[1:]:
        indptrs.append(p.indptr[1:] + off)
        off += int(p.indptr[-1])
    return SparseMatrix(
        nrows,
        ncols,
        np.concatenate(indptrs),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.values for p in parts]),
    )
