"""GraphBLAS ``assign``: scatter a container or scalar into a region of a
larger container.

Semantics follow ``GrB_assign``: inside the addressed region the existing
pattern is replaced by (or, with an accumulator, merged with) the source;
outside the region the container is untouched — and the mask/replace stage
then applies over the *whole* output domain.
"""

from __future__ import annotations

import numpy as np

from ..smatrix import SparseMatrix
from ..svector import SparseVector
from .. import ops_table, primitives as P
from ...exceptions import DimensionMismatch, IndexOutOfBounds
from .common import OpDesc, mask_keys_mat, mask_keys_vec

__all__ = ["assign_mat", "assign_vec", "assign_mat_scalar", "assign_vec_scalar"]


def _check_indices(idx, limit: int, what: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise IndexOutOfBounds(f"{what} index out of range (limit {limit})")
    return idx


def _assign_merge(old_keys, old_vals, region_keys, t_keys, t_vals, accum, out_dtype):
    """Region-local merge: Z = (C \\ region) ∪ inside, where *inside* is the
    mapped source, accumulated with the region's old entries (in C's
    domain, as :func:`~repro.backend.primitives.finalize` does) when an
    accumulator is bound."""
    if accum is not None:
        in_old_keys, in_old_vals = P.restrict(old_keys, old_vals, region_keys, False)
        in_keys, in_vals = P.union_merge(
            in_old_keys, in_old_vals, t_keys, np.asarray(t_vals).astype(out_dtype, copy=False),
            ops_table.binary_def(accum).func, out_dtype,
        )
    else:
        in_keys, in_vals = t_keys, np.asarray(t_vals).astype(out_dtype, copy=False)
    out_keys, out_vals = P.restrict(old_keys, old_vals, region_keys, True)
    out_vals = out_vals.astype(out_dtype, copy=False)
    keys = np.concatenate([out_keys, in_keys])
    vals = np.concatenate([out_vals, in_vals])
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def _mask_stage(old_keys, old_vals, z_keys, z_vals, mask_keys, complement, replace, out_dtype):
    """The whole-domain mask/replace stage shared by all assign variants."""
    return P.finalize(
        old_keys, old_vals, z_keys, z_vals, out_dtype,
        mask_keys, complement, replace, accum_map2=None,
    )


def assign_mat(
    c: SparseMatrix,
    a: SparseMatrix,
    row_indices,
    col_indices,
    desc: OpDesc = OpDesc(),
    transpose_a: bool = False,
) -> SparseMatrix:
    """``C<M, z>(i, j) = C(i, j) (accum) A``."""
    if transpose_a:
        a = a.transposed()
    rows = _check_indices(row_indices, c.nrows, "row")
    cols = _check_indices(col_indices, c.ncols, "column")
    if a.shape != (rows.size, cols.size):
        raise DimensionMismatch(
            f"assign: source shape {a.shape} != region shape {(rows.size, cols.size)}"
        )
    a_rows, a_cols, a_vals = a.coo()
    t_keys = P.encode_keys(rows[a_rows], cols[a_cols], c.ncols)
    order = np.argsort(t_keys, kind="stable")
    t_keys, t_vals = t_keys[order], a_vals[order]
    region = np.unique(
        P.encode_keys(
            np.repeat(rows, cols.size), np.tile(cols, rows.size), c.ncols
        )
    )
    c_rows, c_cols, c_vals = c.coo()
    old_keys = P.encode_keys(c_rows, c_cols, c.ncols)
    z_keys, z_vals = _assign_merge(old_keys, c_vals, region, t_keys, t_vals, desc.accum, c.dtype)
    keys, vals = _mask_stage(
        old_keys, c_vals, z_keys, z_vals,
        mask_keys_mat(desc.mask), desc.complement, desc.replace, c.dtype,
    )
    out_rows, out_cols = P.decode_keys(keys, c.ncols)
    return SparseMatrix.from_coo_sorted(c.nrows, c.ncols, out_rows, out_cols, vals)


def assign_mat_scalar(
    c: SparseMatrix, value, row_indices, col_indices, desc: OpDesc = OpDesc()
) -> SparseMatrix:
    """``C<M, z>(i, j) = C(i, j) (accum) s`` — the scalar fills every
    addressed position (constant assignment, Table I row *assign*)."""
    rows = _check_indices(row_indices, c.nrows, "row")
    cols = _check_indices(col_indices, c.ncols, "column")
    region = np.unique(
        P.encode_keys(np.repeat(rows, cols.size), np.tile(cols, rows.size), c.ncols)
    )
    t_vals = np.full(region.size, value, dtype=c.dtype)
    c_rows, c_cols, c_vals = c.coo()
    old_keys = P.encode_keys(c_rows, c_cols, c.ncols)
    z_keys, z_vals = _assign_merge(old_keys, c_vals, region, region, t_vals, desc.accum, c.dtype)
    keys, vals = _mask_stage(
        old_keys, c_vals, z_keys, z_vals,
        mask_keys_mat(desc.mask), desc.complement, desc.replace, c.dtype,
    )
    out_rows, out_cols = P.decode_keys(keys, c.ncols)
    return SparseMatrix.from_coo_sorted(c.nrows, c.ncols, out_rows, out_cols, vals)


def assign_vec(
    w: SparseVector, u: SparseVector, indices, desc: OpDesc = OpDesc()
) -> SparseVector:
    """``w<m, z>(i) = w(i) (accum) u``."""
    idx = _check_indices(indices, w.size, "vector")
    if u.size != idx.size:
        raise DimensionMismatch(
            f"assign: source size {u.size} != region size {idx.size}"
        )
    t_keys = idx[u.indices]
    order = np.argsort(t_keys, kind="stable")
    t_keys, t_vals = t_keys[order], u.values[order]
    region = np.unique(idx)
    z_keys, z_vals = _assign_merge(
        w.indices, w.values, region, t_keys, t_vals, desc.accum, w.dtype
    )
    keys, vals = _mask_stage(
        w.indices, w.values, z_keys, z_vals,
        mask_keys_vec(desc.mask), desc.complement, desc.replace, w.dtype,
    )
    return SparseVector.from_sorted(w.size, keys, vals)


def assign_vec_scalar(
    w: SparseVector, value, indices, desc: OpDesc = OpDesc()
) -> SparseVector:
    """``w<m, z>(i) = w(i) (accum) s`` — constant assignment; with the
    paper's ``levels[front][:] = depth`` this is a masked constant fill."""
    idx = _check_indices(indices, w.size, "vector")
    region = np.unique(idx)
    t_vals = np.full(region.size, value, dtype=w.dtype)
    z_keys, z_vals = _assign_merge(
        w.indices, w.values, region, region, t_vals, desc.accum, w.dtype
    )
    keys, vals = _mask_stage(
        w.indices, w.values, z_keys, z_vals,
        mask_keys_vec(desc.mask), desc.complement, desc.replace, w.dtype,
    )
    return SparseVector.from_sorted(w.size, keys, vals)
