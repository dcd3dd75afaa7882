"""GraphBLAS ``select``: filter stored entries by a positional or value
predicate (GBTL's ``select``, standardised as ``GrB_select``).

Predicates take an optional scalar *thunk* ``k``:

========== =====================================
``Tril``    keep ``col <= row + k``
``Triu``    keep ``col >= row + k``
``Diag``    keep ``col == row + k``
``Offdiag`` keep ``col != row + k``
``NonZero`` keep ``value != 0``
``ValueEQ`` keep ``value == k``   (``NE/GT/GE/LT/LE`` likewise)
========== =====================================
"""

from __future__ import annotations

import numpy as np

from ...exceptions import UnknownOperator
from .. import primitives as P
from ..smatrix import SparseMatrix
from ..svector import SparseVector
from .common import OpDesc, finalize_mat, finalize_vec

__all__ = ["select_mat", "select_vec", "SELECT_OPS"]

_POSITIONAL = {
    "Tril": lambda rows, cols, k: cols <= rows + k,
    "Triu": lambda rows, cols, k: cols >= rows + k,
    "Diag": lambda rows, cols, k: cols == rows + k,
    "Offdiag": lambda rows, cols, k: cols != rows + k,
}

_VALUED = {
    "NonZero": lambda vals, k: vals.astype(bool),
    "ValueEQ": lambda vals, k: vals == k,
    "ValueNE": lambda vals, k: vals != k,
    "ValueGT": lambda vals, k: vals > k,
    "ValueGE": lambda vals, k: vals >= k,
    "ValueLT": lambda vals, k: vals < k,
    "ValueLE": lambda vals, k: vals <= k,
}

#: every predicate name, for validation and documentation
SELECT_OPS = frozenset(_POSITIONAL) | frozenset(_VALUED)


def _keep_mask(op: str, rows, cols, vals, thunk):
    if op in _POSITIONAL:
        if rows is None:
            raise UnknownOperator(
                f"select operator {op!r} is positional and needs a matrix operand"
            )
        return _POSITIONAL[op](rows, cols, np.int64(thunk))
    if op in _VALUED:
        return _VALUED[op](vals, thunk)
    raise UnknownOperator(
        f"unknown select operator {op!r}; valid names: {sorted(SELECT_OPS)}"
    )


def select_mat(
    c: SparseMatrix,
    a: SparseMatrix,
    op: str,
    thunk=0,
    desc: OpDesc = OpDesc(),
    transpose_a: bool = False,
) -> SparseMatrix:
    """``C<M, z> = C (accum) select(op, A, k)``."""
    if transpose_a:
        a = a.transposed()
    rows, cols, vals = a.coo()
    keep = _keep_mask(op, rows, cols, vals, thunk)
    t_keys = P.encode_keys(rows[keep], cols[keep], a.ncols)
    return finalize_mat(c, t_keys, vals[keep], desc)


def select_vec(
    w: SparseVector, u: SparseVector, op: str, thunk=0, desc: OpDesc = OpDesc()
) -> SparseVector:
    """``w<m, z> = w (accum) select(op, u, k)`` — value predicates only
    (positional predicates are matrix concepts)."""
    keep = _keep_mask(op, None, None, u.values, thunk)
    return finalize_vec(w, u.indices[keep], u.values[keep], desc)
