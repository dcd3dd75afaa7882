"""GraphBLAS ``apply``: elementwise unary function over stored values.

Supports GBTL's three functional forms: a plain unary operator, and a
binary operator with a bound constant on either side (``BinaryOp_Bind1st``
/ ``BinaryOp_Bind2nd``), which is how the paper's ``gb.UnaryOp("Times",
damping_factor)`` is realised (Fig. 7/8).
"""

from __future__ import annotations

import numpy as np

from ..smatrix import SparseMatrix
from ..svector import SparseVector
from .. import primitives as P
from ..ops_table import apply_binary, apply_unary
from ...exceptions import DimensionMismatch
from .common import OpDesc, finalize_mat, finalize_vec

__all__ = ["apply_mat", "apply_vec", "resolve_unary"]


def resolve_unary(op_spec):
    """Turn an op spec into ``values -> values``.

    ``op_spec`` is either ``("unary", name)`` or
    ``("bind", binop_name, constant, side)`` with side ``"first"`` (the
    constant is the left operand) or ``"second"``.
    """
    kind = op_spec[0]
    if kind == "unary":
        name = op_spec[1]
        return lambda vals: apply_unary(name, vals)
    if kind == "bind":
        _, name, const, side = op_spec
        if side == "first":
            return lambda vals: apply_binary(name, np.broadcast_to(const, vals.shape), vals)
        return lambda vals: apply_binary(name, vals, np.broadcast_to(const, vals.shape))
    raise ValueError(f"bad unary op spec {op_spec!r}")


def apply_mat(
    c: SparseMatrix,
    a: SparseMatrix,
    op_spec,
    desc: OpDesc = OpDesc(),
    transpose_a: bool = False,
) -> SparseMatrix:
    """``C<M, z> = C (accum) f(A)``.  ``f(A)`` stores exactly where ``A``
    does (apply never drops or creates entries), so with no mask and no
    accumulator the result is new values on ``A``'s ``indptr`` /
    ``indices`` — stores are immutable, only the pattern is shared.
    Otherwise ``f(A)`` goes through the keyed merge of
    :func:`~repro.backend.kernels.common.finalize_mat`."""
    if transpose_a:
        a = a.transposed()
    if c.shape != a.shape:
        raise DimensionMismatch(f"apply: output shape {c.shape} != operand shape {a.shape}")
    t_vals = np.asarray(resolve_unary(op_spec)(a.values))
    if desc.mask is None and desc.accum is None:
        return a.with_values(t_vals.astype(c.dtype, copy=False))
    rows, cols, _vals = a.coo()
    return finalize_mat(c, P.encode_keys(rows, cols, a.ncols), t_vals, desc)


def apply_vec(
    w: SparseVector, u: SparseVector, op_spec, desc: OpDesc = OpDesc()
) -> SparseVector:
    """``w<m, z> = w (accum) f(u)``."""
    if w.size != u.size:
        raise DimensionMismatch(f"apply: output size {w.size} != operand size {u.size}")
    t_vals = resolve_unary(op_spec)(u.values)
    return finalize_vec(w, u.indices, np.asarray(t_vals), desc)
