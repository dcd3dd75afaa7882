"""Reference implementations of the two reduce-site fused kernels.

Each is the *literal* two-step composition ``gb.reduce(u ⊕ v)`` would
otherwise dispatch: materialise the elementwise result into a temporary
of its natural dtype, then reduce it.  By construction they are
bit-identical to the unfused sequence, which makes them the oracle the
differential tests (and the ``interpreted`` engine's methods) check the
JIT engines' single-pass modules against.
"""

from __future__ import annotations

from ..svector import SparseVector
from ..ops_table import binary_result_dtype
from .common import OpDesc
from .ewise import ewise_add_vec, ewise_mult_vec
from .reduce_ import reduce_vec_scalar

#: exactly the fused engine methods: ``kernels.FUSED_KERNELS`` is this list
__all__ = ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]


def ewise_add_vec_reduce_scalar(u, v, op, rop, identity=None):
    """``s = [⊕ over stored (u ⊕ v)(i)]``."""
    pdt = binary_result_dtype(op, u.dtype, v.dtype)
    t = ewise_add_vec(SparseVector.empty(u.size, pdt), u, v, op, OpDesc())
    return reduce_vec_scalar(t, rop, identity)


def ewise_mult_vec_reduce_scalar(u, v, op, rop, identity=None):
    """``s = [⊕ over stored (u ⊗ v)(i)]``."""
    pdt = binary_result_dtype(op, u.dtype, v.dtype)
    t = ewise_mult_vec(SparseVector.empty(u.size, pdt), u, v, op, OpDesc())
    return reduce_vec_scalar(t, rop, identity)
