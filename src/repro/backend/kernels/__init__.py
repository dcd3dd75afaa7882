"""One kernel module per GraphBLAS operation.

Each kernel implements the complete C-API pipeline
``C<M, z> = C (accum) op(args)`` on backend containers, resolving operator
names through :mod:`~repro.backend.ops_table` at call time.  This is the
*interpreted* dispatch path; the JIT layer (:mod:`repro.jit`) generates
specialised modules that bind the same primitives with operators resolved
at code-generation time instead.
"""

from .common import OpDesc
from .mxm import mxm
from .mxv import mxv, vxm
from .ewise import ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec
from .apply_ import apply_mat, apply_vec
from .reduce_ import reduce_mat_scalar, reduce_vec_scalar, reduce_rows
from .transpose_ import transpose
from .extract_ import extract_mat, extract_vec
from .select_ import select_mat, select_vec, SELECT_OPS
from .kron import kronecker
from .assign_ import (
    assign_mat,
    assign_vec,
    assign_mat_scalar,
    assign_vec_scalar,
)
from . import fused
from .fused import ewise_add_vec_reduce_scalar, ewise_mult_vec_reduce_scalar
from .traversal import bfs_multi, sssp_multi

#: the engine methods that are fused producer+consumer kernels — the one
#: list the JIT engines (``fused=True`` spec parameter) and the tracer
#: (``fused`` span attribute) take their names from
FUSED_KERNELS = frozenset(fused.__all__)

__all__ = [
    "OpDesc",
    "mxm",
    "mxv",
    "vxm",
    "ewise_add_mat",
    "ewise_add_vec",
    "ewise_mult_mat",
    "ewise_mult_vec",
    "apply_mat",
    "apply_vec",
    "reduce_mat_scalar",
    "reduce_vec_scalar",
    "reduce_rows",
    "transpose",
    "select_mat",
    "select_vec",
    "SELECT_OPS",
    "kronecker",
    "extract_mat",
    "extract_vec",
    "assign_mat",
    "assign_vec",
    "assign_mat_scalar",
    "assign_vec_scalar",
    "ewise_add_vec_reduce_scalar",
    "ewise_mult_vec_reduce_scalar",
    "bfs_multi",
    "sssp_multi",
    "FUSED_KERNELS",
]
