"""The PyGB ``Matrix`` container (paper Sec. III, Fig. 3).

Construction mirrors the paper's examples::

    m = gb.Matrix((vals, (row_idx, col_idx)), shape=(r, c))   # sparse COO
    m = gb.Matrix([[1, 2, 3], [4, 5, 6]])                     # dense rows
    m = gb.Matrix(np.random.rand(3, 3))                       # NumPy
    m = gb.Matrix(sc.sparse.diags([1, 1, 1], [-1, 0, 1]))     # SciPy sparse
    m = gb.Matrix(nx.balanced_tree(r=4, h=8))                 # NetworkX
    m = gb.Matrix(shape=(r, c), dtype=float)                  # empty

Construction copies the data (the paper does the same and lists zero-copy
sharing as future work).
"""

from __future__ import annotations

import numpy as np

from ..backend.smatrix import SparseMatrix
from ..exceptions import EmptyObject, InvalidValue
from ..tiling import maybe_tile
from ..types import default_dtype_for, normalize_dtype
from .base import Container, _is_scalar
from .context import current_backend_engine
from .expressions import (
    Expression,
    ExtractMat,
    ExtractVec,
    MXM,
    MXV,
    TransposeView,
    _is_vec,
)
from .indexing import parse_matrix_indices
from .masks import SetKey, build_desc

__all__ = ["Matrix"]


class Matrix(Container):
    """A GraphBLAS matrix: a 2-D container of stored values over an
    implied-zero background."""

    is_vector = False

    def __init__(self, data=None, shape=None, dtype=None):
        if isinstance(data, SparseMatrix):  # internal: wrap a backend store
            self._store = maybe_tile(data if dtype is None else data.astype(dtype))
            return
        if isinstance(data, Expression):
            self._store = data.new(dtype=dtype)._store
            return
        if isinstance(data, TransposeView):
            self._store = data.parent._store.transposed()
            if dtype is not None:
                self._store = self._store.astype(dtype)
            self._store = maybe_tile(self._store)
            return
        if isinstance(data, Matrix):
            src = data._store
            store = src.astype(dtype) if dtype is not None else src.copy()
            if store is src:
                # astype() to the same dtype returns the source store;
                # container semantics promise an independent copy, so
                # never alias (mutating either matrix would corrupt the
                # other, along with its cached transpose/degree memos)
                store = src.copy()
            self._store = maybe_tile(store)
            return
        if data is None:
            if shape is None:
                raise InvalidValue("an empty Matrix needs an explicit shape")
            self._store = maybe_tile(SparseMatrix.empty(
                shape[0], shape[1], normalize_dtype(dtype) if dtype is not None else np.float64
            ))
            return
        if isinstance(data, tuple) and len(data) == 2:
            vals, rc = data
            if not (isinstance(rc, tuple) and len(rc) == 2):
                raise InvalidValue(
                    "sparse construction expects (values, (row_idx, col_idx))"
                )
            rows, cols = rc
            vals_arr = np.asarray(vals)
            if shape is None:
                r = int(np.max(rows)) + 1 if len(rows) else 0
                c = int(np.max(cols)) + 1 if len(cols) else 0
                shape = (r, c)
            dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(vals_arr)
            self._store = maybe_tile(
                SparseMatrix.from_coo(shape[0], shape[1], rows, cols, vals_arr, dt)
            )
            return
        if hasattr(data, "tocoo"):  # SciPy sparse (duck-typed)
            coo = data.tocoo()
            dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(coo.data)
            self._store = maybe_tile(SparseMatrix.from_coo(
                coo.shape[0], coo.shape[1], coo.row, coo.col, coo.data, dt
            ))
            return
        if hasattr(data, "adjacency"):  # NetworkX graph (duck-typed)
            from ..io.convert import networkx_to_coo

            nrows, ncols, rows, cols, vals = networkx_to_coo(data)
            dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(vals)
            self._store = maybe_tile(
                SparseMatrix.from_coo(nrows, ncols, rows, cols, vals, dt)
            )
            return
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise InvalidValue(f"cannot build a Matrix from {arr.ndim}-D data")
        dt = normalize_dtype(dtype) if dtype is not None else default_dtype_for(arr)
        self._store = maybe_tile(SparseMatrix.from_dense(arr, dt))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        # extent is write-invariant: no merge of buffered writes on shape reads
        return self._backing.shape

    @property
    def nrows(self) -> int:
        return self._backing.nrows

    @property
    def ncols(self) -> int:
        return self._backing.ncols

    @property
    def T(self) -> TransposeView:
        """Transpose view; materialised only where needed (Table I)."""
        return TransposeView(self)

    # ------------------------------------------------------------------
    # multiplication builds deferred expressions
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        if _is_vec(other):
            return MXV(self, other)
        return MXM(self, other)

    def __rmatmul__(self, other):
        return MXM(other, self)

    # ------------------------------------------------------------------
    # extract / assign
    # ------------------------------------------------------------------
    def _full_slice(self):
        return (slice(None), slice(None))

    def _extract(self, key):
        rows, cols, kind = parse_matrix_indices(key, self.shape)
        if kind == "scalar":
            val = self._store.get(int(rows[0]), int(cols[0]))
            if val is None:
                raise EmptyObject(
                    f"no stored value at ({int(rows[0])}, {int(cols[0])})"
                )
            return val.item() if hasattr(val, "item") else val
        if kind == "row":
            i = int(rows[0])
            return ExtractVec(lambda: self._store.row_vector(i), self.ncols, cols)
        if kind == "col":
            j = int(cols[0])
            return ExtractVec(
                lambda: self._store.transposed().row_vector(j), self.nrows, rows
            )
        return ExtractMat(self, rows, cols)

    def _assign(self, setkey: SetKey, index_key, value, accum=None):
        rows, cols, kind = parse_matrix_indices(index_key, self.shape)
        if kind == "scalar" and setkey.mask is None and accum is None and _is_scalar(value):
            self._buffer_write((int(rows[0]), int(cols[0])), value)
            return
        from .vector import Vector

        desc = build_desc(setkey, accum)
        eng = current_backend_engine()
        if isinstance(value, Expression):
            # e.g. C[2:4, 2:4] = A @ B: GBTL cannot fuse mxm+assign, so the
            # expression is forced into a temporary first (paper Sec. IV)
            value = value.new()
        if _is_scalar(value):
            self._store = eng.assign_mat_scalar(self._store, value, rows, cols, desc)
            return
        ta = False
        if isinstance(value, TransposeView):
            value, ta = value.parent, True
        if isinstance(value, Vector):
            # row / column assign: embed the vector as a 1×n or n×1 matrix
            vs = value._store
            if kind == "row":
                src = SparseMatrix.from_coo_sorted(
                    1, vs.size, np.zeros(vs.nvals, dtype=np.int64), vs.indices, vs.values
                )
            elif kind == "col":
                src = SparseMatrix.from_coo_sorted(
                    vs.size, 1, vs.indices, np.zeros(vs.nvals, dtype=np.int64), vs.values
                )
            else:
                raise InvalidValue("a Vector can only be assigned to a row or column")
            self._store = eng.assign_mat(self._store, src, rows, cols, desc)
            return
        if isinstance(value, Matrix):
            self._store = eng.assign_mat(self._store, value._store, rows, cols, desc, ta)
            return
        raise InvalidValue(f"cannot assign object of type {type(value).__name__}")

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_numpy(self, fill=0) -> np.ndarray:
        """Dense ndarray copy with *fill* for implied zeros."""
        return self._store.to_dense(fill)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` copies of the stored entries."""
        r, c, v = self._store.coo()
        return r.copy(), c.copy(), v.copy()

    def get(self, i: int, j: int, default=None):
        """Stored value at ``(i, j)`` or *default* (non-throwing extract)."""
        val = self._store.get(i, j)
        if val is None:
            return default
        return val.item() if hasattr(val, "item") else val

    def dup(self) -> "Matrix":
        """Deep copy (``GrB_Matrix_dup``)."""
        return Matrix(self._store.copy())

    def clear(self) -> None:
        """Remove every stored value, keeping shape and dtype."""
        self._store = SparseMatrix.empty(self.nrows, self.ncols, self.dtype)

    def __repr__(self) -> str:
        return (
            f"<Matrix {self.nrows}x{self.ncols}, {self.nvals} stored values, "
            f"dtype={self.dtype}>"
        )
