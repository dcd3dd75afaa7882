"""Sparse vector storage for the NumPy backend.

A :class:`SparseVector` stores the stored (explicit) entries of a
GraphBLAS vector as a pair of parallel arrays — strictly increasing
``indices`` and same-length ``values`` — mirroring GBTL's
``Vector`` container.  Entries absent from ``indices`` are *implied
zeros* in the GraphBLAS sense: they do not participate in operations.
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import DimensionMismatch, IndexOutOfBounds
from ..types import normalize_dtype
from . import primitives as P
from .ffipack import ArgPack, resident

__all__ = ["SparseVector"]

#: guards lazy memo construction when server threads share one vector.
#: Module-level (not per-instance) to keep __slots__ instances light —
#: builds are rare, so contention is negligible; reentrant because
#: ``true_bitmap`` builds via ``bool_indices`` under the same lock.
_MEMO_LOCK = threading.RLock()


class SparseVector:
    """Immutable-by-convention sorted-coordinate sparse vector.

    Kernels never mutate a ``SparseVector`` in place; they build new ones
    via :meth:`from_sorted` / :meth:`from_coo`.  This keeps aliasing rules
    trivial (``w[None] += A @ w`` reads and writes the same vector).
    """

    __slots__ = ("size", "indices", "values", "_repr_cache", "_ffi_cache")

    def __init__(self, size: int, indices: np.ndarray, values: np.ndarray):
        self.size = int(size)
        self.indices = indices
        self.values = values
        # lazily built dense representations (dense_lookup / bool_indices
        # / true_bitmap results); safe to memoize because vectors are
        # immutable by convention — see the class docstring
        self._repr_cache = None
        # the cpp engine's resident argument pack: same immutability
        # argument, its own slot because every cpp dispatch reads it
        self._ffi_cache: ArgPack | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, size: int, dtype) -> "SparseVector":
        """A vector of dimension *size* with no stored entries."""
        dt = normalize_dtype(dtype)
        return cls(size, np.empty(0, dtype=np.int64), np.empty(0, dtype=dt))

    @classmethod
    def from_coo(cls, size: int, indices, values, dtype=None, dup_op="Second") -> "SparseVector":
        """Build from unordered coordinate data, combining duplicate
        indices with *dup_op* (default: last one wins, matching GBTL's
        build with ``Second``)."""
        from . import ops_table

        idx = np.asarray(indices, dtype=np.int64).ravel()
        dt = normalize_dtype(dtype) if dtype is not None else None
        vals = np.asarray(values)
        if np.isscalar(values) or vals.ndim == 0:
            vals = np.broadcast_to(vals, idx.shape).copy()
        if dt is not None:
            vals = vals.astype(dt, copy=False)
        if idx.size != vals.size:
            raise DimensionMismatch(
                f"index array has {idx.size} entries but value array has {vals.size}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise IndexOutOfBounds(f"vector index out of range for size {size}")
        if P.strictly_increasing(idx):
            # nothing to sort or fold; copy, because asarray aliases an
            # ndarray argument
            return cls(size, idx.copy(), vals.copy())
        order = np.argsort(idx, kind="stable")
        idx, vals = idx[order], vals[order]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = idx[1:] != idx[:-1]
        if not first.all():
            starts, vals = ops_table.fold_duplicates(dup_op, first, vals)
            idx = idx[starts]
        return cls(size, idx, vals)

    @classmethod
    def from_sorted(cls, size: int, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        """Wrap already-sorted, duplicate-free coordinate arrays (no copy)."""
        return cls(size, indices, values)

    @classmethod
    def from_dense(cls, array, dtype=None) -> "SparseVector":
        """Build from a dense 1-D array; **every** element becomes a stored
        entry (GraphBLAS containers built from dense data are full)."""
        arr = np.asarray(array)
        if arr.ndim != 1:
            raise DimensionMismatch(f"expected 1-D data, got shape {arr.shape}")
        dt = normalize_dtype(dtype) if dtype is not None else None
        vals = arr.astype(dt, copy=True) if dt is not None else arr.copy()
        return cls(arr.size, np.arange(arr.size, dtype=np.int64), vals)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int]:
        return (self.size,)

    @property
    def nvals(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    # ------------------------------------------------------------------
    # conversions / access
    # ------------------------------------------------------------------
    def to_dense(self, fill=0) -> np.ndarray:
        """Dense 1-D array with *fill* in place of implied zeros."""
        out = np.full(self.size, fill, dtype=self.dtype)
        out[self.indices] = self.values
        return out

    def dense_lookup(self, fill=0) -> tuple[np.ndarray, np.ndarray]:
        """``(values, present)`` dense arrays for O(1) gather by index.

        The default (``fill=0``) pair is built once and memoized
        (read-only) — the schedule layer's dense-frontier fast path, so
        repeated dispatches against the same vector (engine fallback
        retries, multi-op iterations) scatter at most once."""
        zero_fill = isinstance(fill, (int, float, bool)) and fill == 0

        def build():
            vals = np.full(self.size, 0 if zero_fill else fill, dtype=self.dtype)
            present = np.zeros(self.size, dtype=bool)
            vals[self.indices] = self.values
            present[self.indices] = True
            if zero_fill:
                vals.setflags(write=False)
                present.setflags(write=False)
            return vals, present

        if zero_fill:
            return self._memo("dense", build)
        return build()

    def get(self, i: int, default=None):
        """Stored value at index *i*, or *default*."""
        if not 0 <= i < self.size:
            raise IndexOutOfBounds(f"index {i} out of range for size {self.size}")
        pos = np.searchsorted(self.indices, i)
        if pos < self.indices.size and self.indices[pos] == i:
            return self.values[pos]
        return default

    def set_elements(self, indices, values) -> "SparseVector":
        """A new store with ``self[indices[k]] = values[k]`` applied in the
        order given (a later write to the same index wins) — the merge
        behind buffered ``v[i] = x`` statements.  Indices must be in
        range; O(nvals + k log k)."""
        idx = np.asarray(indices, dtype=np.int64)
        order = np.argsort(idx, kind="stable")  # ties stay in program order
        idx, vals = idx[order], np.asarray(values, dtype=self.dtype)[order]
        last = np.ones(idx.size, dtype=bool)
        last[:-1] = idx[1:] != idx[:-1]
        idx, vals = idx[last], vals[last]
        pos = np.searchsorted(self.indices, idx)
        indices, out, _ = P.overwrite_or_insert(
            self.indices, self.values, pos, self.indices.size, idx, vals
        )
        return SparseVector(self.size, indices, out)

    def bool_indices(self) -> np.ndarray:
        """Indices of entries whose value coerces to True (mask support).

        Memoized (read-only): masks are consulted by both the schedule
        resolver and the write-back stage of the same dispatch."""
        def build():
            out = self.indices[self.values.astype(bool)]
            out.setflags(write=False)
            return out

        return self._memo("bool", build)

    def true_bitmap(self) -> np.ndarray:
        """Dense boolean bitmap of the true-valued entries — the schedule
        layer's dense frontier representation (memoized, read-only)."""
        def build():
            bitmap = np.zeros(self.size, dtype=bool)
            bitmap[self.bool_indices()] = True
            bitmap.setflags(write=False)
            return bitmap

        return self._memo("bitmap", build)

    def ffi_pack(self) -> ArgPack:
        """``(size, indices, values, nvals)`` as the cpp engine passes this
        vector to a kernel, ``.mask_args()`` for mask position — built on
        the first cpp dispatch, then resident (see
        :mod:`~repro.backend.ffipack`)."""
        return self._ffi_cache or resident(self, (self.size,), (self.indices,), (self.nvals,))

    def _memo(self, key: str, build):
        """Double-checked memoization: lock-free on a hit; on a miss,
        *build* runs exactly once under the module lock.  Without the
        lock, two server threads touching a shared vector could each
        build the representation and one could publish into a dict the
        other just replaced, losing the memo."""
        cache = self._repr_cache
        if cache is not None:
            value = cache.get(key)
            if value is not None:
                return value
        with _MEMO_LOCK:
            if self._repr_cache is None:
                self._repr_cache = {}
            value = self._repr_cache.get(key)
            if value is None:
                value = build()
                self._repr_cache[key] = value
            return value

    def astype(self, dtype) -> "SparseVector":
        dt = normalize_dtype(dtype)
        if dt == self.dtype:
            return self
        return SparseVector(self.size, self.indices, self.values.astype(dt))

    def copy(self) -> "SparseVector":
        return SparseVector(self.size, self.indices.copy(), self.values.copy())

    def to_dict(self) -> dict[int, object]:
        """Plain ``{index: value}`` dict (reference-implementation format)."""
        return dict(zip(self.indices.tolist(), self.values.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseVector(size={self.size}, nvals={self.nvals}, dtype={self.dtype})"
        )
