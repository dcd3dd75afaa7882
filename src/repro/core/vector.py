"""The PyGB ``Vector`` container (paper Sec. III, Fig. 3).

Construction mirrors the paper's examples::

    v = gb.Vector((vals, idx), shape=(l,))     # sparse coordinates
    v = gb.Vector([1, 2, 3, 4, 5])             # dense list
    v = gb.Vector(np.arange(10.0))             # NumPy
    v = gb.Vector(shape=(n,), dtype=float)     # empty
"""

from __future__ import annotations

import numpy as np

from ..backend.svector import SparseVector
from ..exceptions import EmptyObject, InvalidValue
from ..types import default_dtype_for, normalize_dtype
from .base import Container, _is_scalar
from .context import current_backend_engine
from .expressions import Expression, ExtractVec, MXV, VXM, TransposeView
from .indexing import parse_vector_index
from .masks import SetKey, build_desc

__all__ = ["Vector"]

_Matrix = None  # bound by the first ``u @ A``: matrix.py imports this module


def _shape_to_size(shape) -> int:
    if isinstance(shape, tuple):
        if len(shape) != 1:
            raise InvalidValue(f"a Vector shape must be (n,), got {shape!r}")
        return int(shape[0])
    return int(shape)


class Vector(Container):
    """A GraphBLAS vector: a 1-D container of stored values over an
    implied-zero background."""

    is_vector = True

    def __init__(self, data=None, shape=None, dtype=None):
        if isinstance(data, SparseVector):  # internal: wrap a backend store
            self._store = data if dtype is None else data.astype(dtype)
            return
        if isinstance(data, Expression):
            self._store = data.new(dtype=dtype)._store
            return
        if isinstance(data, Vector):
            src = data._store
            store = src.astype(dtype) if dtype is not None else src.copy()
            if store is src:
                # astype() to the same dtype returns the source store;
                # the copy-construction contract requires independent
                # storage, so never alias the source (or its memoized
                # dense-lookup/bitmap frontier representations)
                store = src.copy()
            self._store = store
            return
        if data is None:
            if shape is None:
                raise InvalidValue("an empty Vector needs an explicit shape")
            self._store = SparseVector.empty(
                _shape_to_size(shape),
                normalize_dtype(dtype) if dtype is not None else np.float64,
            )
            return
        if isinstance(data, tuple) and len(data) == 2:
            vals, idx = data
            vals_arr = np.asarray(vals)
            size = (
                _shape_to_size(shape)
                if shape is not None
                else (int(np.max(idx)) + 1 if len(idx) else 0)
            )
            dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(vals_arr)
            self._store = SparseVector.from_coo(size, idx, vals_arr, dt)
            return
        arr = np.asarray(data)
        if arr.ndim != 1:
            raise InvalidValue(f"cannot build a Vector from {arr.ndim}-D data")
        dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(arr)
        self._store = SparseVector.from_dense(arr, dt)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        # extent is write-invariant: no merge of buffered writes on shape reads
        return self._backing.size

    @property
    def shape(self) -> tuple[int]:
        return (self._backing.size,)

    # ------------------------------------------------------------------
    # multiplication builds deferred expressions
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        """``u @ A`` — vector-matrix product (PageRank Fig. 7 line 22)."""
        global _Matrix
        if _Matrix is None:
            from .matrix import Matrix as _Matrix
        if isinstance(other, (_Matrix, TransposeView)) or (
            isinstance(other, Expression) and other.produces_matrix
        ):
            return VXM(self, other)
        raise InvalidValue("a Vector can only be matmul-ed with a Matrix")

    def __rmatmul__(self, other):
        return MXV(other, self)

    # ------------------------------------------------------------------
    # extract / assign
    # ------------------------------------------------------------------
    def _full_slice(self):
        return slice(None)

    def _extract(self, key):
        idx, kind = parse_vector_index(key, self.size)
        if kind == "scalar":
            val = self._store.get(int(idx[0]))
            if val is None:
                raise EmptyObject(f"no stored value at index {int(idx[0])}")
            return val.item() if hasattr(val, "item") else val
        return ExtractVec(lambda: self._store, self.size, idx)

    def _assign(self, setkey: SetKey, index_key, value, accum=None):
        idx, kind = parse_vector_index(index_key, self.size)
        if kind == "scalar" and setkey.mask is None and accum is None and _is_scalar(value):
            self._buffer_write((int(idx[0]),), value)
            return
        desc = build_desc(setkey, accum)
        eng = current_backend_engine()
        if isinstance(value, Expression):
            value = value.new()
        if _is_scalar(value):
            self._store = eng.assign_vec_scalar(self._store, value, idx, desc)
            return
        if isinstance(value, Vector):
            self._store = eng.assign_vec(self._store, value._store, idx, desc)
            return
        raise InvalidValue(f"cannot assign object of type {type(value).__name__}")

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_numpy(self, fill=0) -> np.ndarray:
        """Dense ndarray copy with *fill* for implied zeros."""
        return self._store.to_dense(fill)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` copies of the stored entries."""
        return self._store.indices.copy(), self._store.values.copy()

    def get(self, i: int, default=None):
        """Stored value at *i* or *default* (non-throwing extract)."""
        val = self._store.get(i)
        if val is None:
            return default
        return val.item() if hasattr(val, "item") else val

    def dup(self) -> "Vector":
        """Deep copy (``GrB_Vector_dup``)."""
        return Vector(self._store.copy())

    def clear(self) -> None:
        """Remove every stored value, keeping size and dtype."""
        self._store = SparseVector.empty(self.size, self.dtype)

    def __repr__(self) -> str:
        return f"<Vector size={self.size}, {self.nvals} stored values, dtype={self.dtype}>"
