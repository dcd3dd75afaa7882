"""Python code generation for specialised kernel modules.

For every :class:`~repro.jit.spec.KernelSpec` this module produces the
source text of a small Python module whose single entry point ``run(...)``
executes that exact kernel variant: operator callables are bound to
module-level names at import, dtypes are baked as constants, and the
descriptor branches (mask? complemented? replace? accumulate?) are
resolved *out* of the code — the Python analog of instantiating a GBTL
C++ template with concrete template arguments.

Each generated file's header records the spec and the equivalent ``g++``
command line of the paper's Fig. 9, which the C++ backend actually runs.
"""

from __future__ import annotations

from ..backend import ops_table
from ..exceptions import CompilationError
from .spec import KernelSpec

__all__ = ["generate_source"]

_PREAMBLE = '''\
"""Auto-generated by the PyGB JIT — do not edit.

spec: {key}
equivalent native build (paper Fig. 9):
  g++ -std=c++17 -O2 -shared -fPIC operation_binding.cpp \\
      -o {stem}.so {defines}
"""
import numpy as np

from repro.backend import ops_table as _ops, primitives as P
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.guard import check_cancelled as _pygb_checkpoint
'''


def _header(spec: KernelSpec) -> str:
    return _PREAMBLE.format(
        key=spec.key, stem=spec.module_stem, defines=" ".join(spec.cxx_defines())
    )


def _bind_binary(var: str, name: str) -> str:
    ops_table.binary_def(name)  # validate at generation time
    return f'{var} = _ops.BINARY_OPS["{name}"].func\n'


def _bind_reduce(var: str, name: str) -> str:
    ops_table.reduce_ufunc(name)
    return f'{var} = _ops.BINARY_OPS["{name}"].reduce\n'


def _logical(name: str) -> str:
    return "True" if ops_table.binary_def(name).kind == "logical" else "False"


def _dtype_const(var: str, token: str) -> str:
    return f'{var} = np.dtype("{token}")\n'


def _mask_keys_expr(spec: KernelSpec, kind: str) -> str:
    """Expression evaluating to the sorted true-key array of the mask."""
    if spec.get("mask") == "none":
        return "None"
    if kind == "vec":
        return "mask.bool_indices()"
    return "_mask_keys_mat(mask)"


_MASK_MAT_HELPER = """
def _mask_keys_mat(mask):
    rows, cols, vals = mask.coo()
    truthy = vals.astype(bool)
    return P.encode_keys(rows[truthy], cols[truthy], mask.ncols)
"""


def _finalize_vec(spec: KernelSpec) -> str:
    """Specialised write-back: the branch-free residue of
    ``primitives.finalize`` for this spec's flags."""
    has_mask = spec.get("mask") != "none"
    accum = spec.get("accum", "none")
    comp = spec.flag("comp")
    repl = spec.flag("repl")
    lines = []
    if accum != "none":
        lines.append(
            "    z_keys, z_vals = P.union_merge(c.indices, c.values, t_idx, "
            "np.asarray(t_vals).astype(_C_DT, copy=False), _ACCUM, _C_DT)"
        )
    else:
        lines.append("    z_keys, z_vals = t_idx, np.asarray(t_vals).astype(_C_DT, copy=False)")
    if not has_mask:
        lines.append("    keys, vals = z_keys, z_vals")
    else:
        lines.append(f"    mk = {_mask_keys_expr(spec, 'vec')}")
        lines.append(f"    zin_keys, zin_vals = P.restrict(z_keys, z_vals, mk, {comp})")
        if repl:
            lines.append("    keys, vals = zin_keys, zin_vals")
        else:
            lines.append(
                f"    out_keys, out_vals = P.restrict(c.indices, c.values, mk, {not comp})"
            )
            lines.append("    out_vals = out_vals.astype(_C_DT, copy=False)")
            lines.append("    keys = np.concatenate([out_keys, zin_keys])")
            lines.append("    vals = np.concatenate([out_vals, zin_vals])")
            lines.append('    order = np.argsort(keys, kind="stable")')
            lines.append("    keys, vals = keys[order], vals[order]")
    lines.append("    return SparseVector.from_sorted(c.size, keys, vals)")
    return "\n".join(lines)


def _finalize_mat(spec: KernelSpec) -> str:
    has_mask = spec.get("mask") != "none"
    accum = spec.get("accum", "none")
    comp = spec.flag("comp")
    repl = spec.flag("repl")
    lines = [
        "    c_rows, c_cols, c_vals = c.coo()",
        "    old_keys = P.encode_keys(c_rows, c_cols, c.ncols)",
    ]
    if accum != "none":
        lines.append(
            "    z_keys, z_vals = P.union_merge(old_keys, c_vals, t_keys, "
            "np.asarray(t_vals).astype(_C_DT, copy=False), _ACCUM, _C_DT)"
        )
    else:
        lines.append("    z_keys, z_vals = t_keys, np.asarray(t_vals).astype(_C_DT, copy=False)")
    if not has_mask:
        lines.append("    keys, vals = z_keys, z_vals")
    else:
        lines.append(f"    mk = {_mask_keys_expr(spec, 'mat')}")
        lines.append(f"    zin_keys, zin_vals = P.restrict(z_keys, z_vals, mk, {comp})")
        if repl:
            lines.append("    keys, vals = zin_keys, zin_vals")
        else:
            lines.append(
                f"    out_keys, out_vals = P.restrict(old_keys, c_vals, mk, {not comp})"
            )
            lines.append("    out_vals = out_vals.astype(_C_DT, copy=False)")
            lines.append("    keys = np.concatenate([out_keys, zin_keys])")
            lines.append("    vals = np.concatenate([out_vals, zin_vals])")
            lines.append('    order = np.argsort(keys, kind="stable")')
            lines.append("    keys, vals = keys[order], vals[order]")
    lines.extend(
        [
            "    rows, cols = P.decode_keys(keys, c.ncols)",
            "    return SparseMatrix.from_coo_sorted(c.nrows, c.ncols, rows, cols, vals)",
        ]
    )
    return "\n".join(lines)


def _accum_binding(spec: KernelSpec) -> str:
    accum = spec.get("accum", "none")
    return _bind_binary("_ACCUM", accum) if accum != "none" else ""


def _needs_mask_helper(spec: KernelSpec, mat_output: bool) -> str:
    return _MASK_MAT_HELPER if mat_output and spec.get("mask") != "none" else ""


# ----------------------------------------------------------------------
# generators, one per operation
# ----------------------------------------------------------------------


_SCHED_IMPORT = "from repro import schedule as _sched\n"


def _pull_traversal(spec: KernelSpec, gather: str) -> str:
    """The pull (mask-candidate gather) traversal body, dispatching to
    the early-exit block-scan kernel for the LogicalOr monoid."""
    if spec.get("add") == "LogicalOr":
        return f"""{gather}    x_dense, x_present = u.dense_lookup()
    t_idx, t_vals, edges = P.spmv_pull_logical(
        g.indptr, g.indices, g.values, cand, x_dense, x_present, _MULT,
    )
    t_vals = t_vals.astype(_T_DT, copy=False)
    _sched.note_edges("pull", edges)
"""
    return f"""{gather}    x_dense, x_present = u.dense_lookup()
    t_idx, t_vals, edges = P.spmv_pull(
        g.indptr, g.indices, g.values, cand, x_dense, x_present,
        _MULT, _ADD_UF, _T_DT, logical={_logical(spec.get("add"))},
    )
    _sched.note_edges("pull", edges)
"""


def _gen_spmv(spec: KernelSpec, vxm: bool) -> str:
    """mxv / vxm generator, specialised on the schedule direction.

    ``dense`` specs keep the pre-schedule-layer spec keys and module
    layout, so scheduled and unscheduled dispatches share cache entries;
    ``push`` / ``pull`` specs carry a ``dir`` param and feed the
    deterministic edges-examined counter from inside the module.
    """
    direction = spec.get("dir", "dense")
    ta = spec.flag("ta")
    if vxm:
        mult = (
            _bind_binary("_MULT0", spec.get("mult"))
            + "def _MULT(av, xv):\n    return _MULT0(xv, av)\n"
        )
        sig = "c, u, a, mask"
        # vxm gathers over Aᵀ (unless already transposed) and scatters
        # over A itself — the push form needs no transpose at all
        gather = "    g = a\n" if ta else "    g = a.transposed()\n"
        scatter = "    s = a.transposed()\n" if ta else "    s = a\n"
    else:
        mult = _bind_binary("_MULT", spec.get("mult"))
        sig = "c, a, u, mask"
        gather = "    g = a.transposed()\n" if ta else "    g = a\n"
        scatter = "    s = a\n" if ta else "    s = a.transposed()\n"

    header = (
        _header(spec)
        + (_SCHED_IMPORT if direction != "dense" else "")
        + mult
        + _bind_reduce("_ADD_UF", spec.get("add"))
        + _accum_binding(spec)
        + _dtype_const("_T_DT", spec.get("t_dtype"))
        + _dtype_const("_C_DT", spec.get("c"))
    )
    if direction == "push":
        body = f"""{scatter}    t_idx, t_vals, edges = P.spmv_push(
        s.indptr, s.indices, s.values, u.indices, u.values,
        _MULT, _ADD_UF, _T_DT, logical={_logical(spec.get("add"))},
    )
    _sched.note_edges("push", edges)
"""
    elif direction == "pull":
        sig += ", cand"
        body = _pull_traversal(spec, gather)
    else:
        body = f"""{gather}    x_dense, x_present = u.dense_lookup()
    t_idx, t_vals = P.spmv_gather(
        g.indptr, g.indices, g.values, g.nrows, x_dense, x_present,
        _MULT, _ADD_UF, _T_DT, logical={_logical(spec.get("add"))},
    )
"""
    return header + f"\n\ndef run({sig}):\n{body}{_finalize_vec(spec)}\n"


def _gen_mxm(spec: KernelSpec) -> str:
    ta = "    a = a.transposed()\n" if spec.flag("ta") else ""
    tb = "    b = b.transposed()\n" if spec.flag("tb") else ""
    return (
        _header(spec)
        + _bind_binary("_MULT", spec.get("mult"))
        + _bind_reduce("_ADD_UF", spec.get("add"))
        + _accum_binding(spec)
        + _dtype_const("_T_DT", spec.get("t_dtype"))
        + _dtype_const("_C_DT", spec.get("c"))
        + _needs_mask_helper(spec, True)
        + f"""

def run(c, a, b, mask):
{ta}{tb}    a_rows, a_cols, a_vals = a.coo()
    t_keys, t_vals = P.spgemm_expand(
        a_rows, a_cols, a_vals, b.indptr, b.indices, b.values, b.ncols,
        _MULT, _ADD_UF, _T_DT, logical={_logical(spec.get("add"))},
    )
{_finalize_mat(spec)}
"""
    )


def _gen_ewise_vec(spec: KernelSpec, merge: str) -> str:
    return (
        _header(spec)
        + _bind_binary("_OP", spec.get("op"))
        + _accum_binding(spec)
        + _dtype_const("_T_DT", spec.get("t_dtype"))
        + _dtype_const("_C_DT", spec.get("c"))
        + f"""

def run(c, u, v, mask):
    t_idx, t_vals = P.{merge}(u.indices, u.values, v.indices, v.values, _OP, _T_DT)
{_finalize_vec(spec)}
"""
    )


def _gen_ewise_mat(spec: KernelSpec, merge: str) -> str:
    ta = "    a = a.transposed()\n" if spec.flag("ta") else ""
    tb = "    b = b.transposed()\n" if spec.flag("tb") else ""
    return (
        _header(spec)
        + _bind_binary("_OP", spec.get("op"))
        + _accum_binding(spec)
        + _dtype_const("_T_DT", spec.get("t_dtype"))
        + _dtype_const("_C_DT", spec.get("c"))
        + _needs_mask_helper(spec, True)
        + f"""

def run(c, a, b, mask):
{ta}{tb}    ka_rows, ka_cols, va = a.coo()
    kb_rows, kb_cols, vb = b.coo()
    ka = P.encode_keys(ka_rows, ka_cols, a.ncols)
    kb = P.encode_keys(kb_rows, kb_cols, b.ncols)
    t_keys, t_vals = P.{merge}(ka, va, kb, vb, _OP, _T_DT)
{_finalize_mat(spec)}
"""
    )


def _unary_binding(spec: KernelSpec) -> str:
    """Bind ``_UNARY(vals, const) -> vals`` per the spec's op form."""
    form = spec.get("form")
    name = spec.get("op")
    if form == "unary":
        ops_table.unary_def(name)
        return (
            f'_U0 = _ops.UNARY_OPS["{name}"].func\n'
            "def _UNARY(vals, const):\n    return np.asarray(_U0(vals))\n"
        )
    ops_table.binary_def(name)
    if spec.get("side") == "first":
        return (
            f'_B0 = _ops.BINARY_OPS["{name}"].func\n'
            "def _UNARY(vals, const):\n"
            "    return np.asarray(_B0(np.broadcast_to(const, vals.shape), vals))\n"
        )
    return (
        f'_B0 = _ops.BINARY_OPS["{name}"].func\n'
        "def _UNARY(vals, const):\n"
        "    return np.asarray(_B0(vals, np.broadcast_to(const, vals.shape)))\n"
    )


def _gen_apply_vec(spec: KernelSpec) -> str:
    return (
        _header(spec)
        + _unary_binding(spec)
        + _accum_binding(spec)
        + _dtype_const("_C_DT", spec.get("c"))
        + f"""

def run(c, u, mask, const):
    t_idx, t_vals = u.indices, _UNARY(u.values, const)
{_finalize_vec(spec)}
"""
    )


def _gen_apply_mat(spec: KernelSpec) -> str:
    ta = "    a = a.transposed()\n" if spec.flag("ta") else ""
    if spec.unmerged():
        # C<> = f(A) stores exactly where A does: new values on A's pattern
        return (
            _header(spec)
            + _unary_binding(spec)
            + _dtype_const("_C_DT", spec.get("c"))
            + f"""

def run(c, a, mask, const):
{ta}    return a.with_values(_UNARY(a.values, const).astype(_C_DT, copy=False))
"""
        )
    return (
        _header(spec)
        + _unary_binding(spec)
        + _accum_binding(spec)
        + _dtype_const("_C_DT", spec.get("c"))
        + _needs_mask_helper(spec, True)
        + f"""

def run(c, a, mask, const):
{ta}    rows, cols, vals = a.coo()
    t_keys = P.encode_keys(rows, cols, a.ncols)
    t_vals = _UNARY(vals, const)
{_finalize_mat(spec)}
"""
    )


def _gen_reduce_scalar(spec: KernelSpec, matrix: bool) -> str:
    op = spec.get("op")
    return (
        _header(spec)
        + _bind_reduce("_UF", op)
        + _dtype_const("_A_DT", spec.get("a"))
        + f"""
_LOGICAL = {_logical(op)}

def run(x, identity):
    values = x.values
    if values.size == 0:
        return _A_DT.type(identity)
    vals = values.astype(bool) if _LOGICAL else values
    return _A_DT.type(_UF.reduce(vals))
"""
    )


def _gen_reduce_rows(spec: KernelSpec) -> str:
    op = spec.get("op")
    ta = "    a = a.transposed()\n" if spec.flag("ta") else ""
    return (
        _header(spec)
        + _bind_reduce("_UF", op)
        + _accum_binding(spec)
        + _dtype_const("_C_DT", spec.get("c"))
        + f"""

def run(c, a, mask):
{ta}    rows, _cols, vals = a.coo()
    starts = P.segment_starts(rows)
    t_idx = rows[starts]
    t_vals = P.segment_reduce(_UF, vals, starts, {_logical(op)})
{_finalize_vec(spec)}
"""
    )


def _gen_transpose(spec: KernelSpec) -> str:
    return (
        _header(spec)
        + _accum_binding(spec)
        + _dtype_const("_C_DT", spec.get("c"))
        + _needs_mask_helper(spec, True)
        + f"""

def run(c, a, mask):
    at = a.transposed()
    rows, cols, t_vals = at.coo()
    t_keys = P.encode_keys(rows, cols, at.ncols)
{_finalize_mat(spec)}
"""
    )


def _gen_delegate(spec: KernelSpec, kernel_mod: str, kernel_fn: str, args: str) -> str:
    """Partially-specialised wrapper for the index-heavy operations
    (extract/assign): the descriptor is baked, the per-element work stays
    in the shared kernel (whose cost is dominated by the index arrays,
    which are runtime data)."""
    accum = spec.get("accum", "none")
    accum_py = "None" if accum == "none" else f'"{accum}"'
    ta = ", transpose_a=True" if spec.flag("ta") else ""
    return (
        _header(spec)
        + f"from repro.backend.kernels import {kernel_mod} as _K\n"
        + "from repro.backend.kernels.common import OpDesc as _OpDesc\n"
        + f"""

def _desc(mask):
    return _OpDesc(mask=mask, complement={spec.flag("comp")}, """
        + f"""replace={spec.flag("repl")}, accum={accum_py})


def run({args}, mask):
    return _K.{kernel_fn}({args}, _desc(mask){ta})
"""
    )


def _gen_select(spec: KernelSpec, matrix: bool) -> str:
    """Specialised select: predicate + descriptor resolved at generation
    time; the thunk scalar stays a runtime argument."""
    from ..backend.kernels import select_ as _sel_mod

    op = spec.get("op")
    if op not in _sel_mod.SELECT_OPS:
        raise CompilationError(f"unknown select operator {op!r}")
    kernel = "select_mat" if matrix else "select_vec"
    args = "c, a, thunk" if matrix else "c, u, thunk"
    accum = spec.get("accum", "none")
    accum_py = "None" if accum == "none" else f'"{accum}"'
    ta = ", transpose_a=True" if spec.flag("ta") else ""
    call_args = ("c, a" if matrix else "c, u") + f', "{op}", thunk'
    return (
        _header(spec)
        + "from repro.backend.kernels import select_ as _K\n"
        + "from repro.backend.kernels.common import OpDesc as _OpDesc\n"
        + f"""

def _desc(mask):
    return _OpDesc(mask=mask, complement={spec.flag("comp")}, """
        + f"""replace={spec.flag("repl")}, accum={accum_py})


def run({args}, mask):
    return _K.{kernel}({call_args}, _desc(mask){ta})
"""
    )


def _gen_kronecker(spec: KernelSpec) -> str:
    accum = spec.get("accum", "none")
    accum_py = "None" if accum == "none" else f'"{accum}"'
    flags = ""
    if spec.flag("ta"):
        flags += ", transpose_a=True"
    if spec.flag("tb"):
        flags += ", transpose_b=True"
    return (
        _header(spec)
        + "from repro.backend.kernels import kron as _K\n"
        + "from repro.backend.kernels.common import OpDesc as _OpDesc\n"
        + f"""

def _desc(mask):
    return _OpDesc(mask=mask, complement={spec.flag("comp")}, """
        + f"""replace={spec.flag("repl")}, accum={accum_py})


def run(c, a, b, mask):
    return _K.kronecker(c, a, b, "{spec.get('op')}", _desc(mask){flags})
"""
    )


# ----------------------------------------------------------------------
# the reduce-site fused pair: ``gb.reduce(u ⊕ v)`` in one pass
#
# Bit-identity with the unfused pair is maintained by replicating the
# intermediate container's dtype: the temporary it would have
# materialised has dtype _P_DT, so the merge computes in _P_DT and the
# reduction runs over that.
# ----------------------------------------------------------------------


def _gen_ewise_reduce_scalar(spec: KernelSpec, merge: str) -> str:
    rop = spec.get("rop")
    return (
        _header(spec)
        + _bind_binary("_OP", spec.get("op"))
        + _bind_reduce("_RED_UF", rop)
        + _dtype_const("_P_DT", spec.get("p"))
        + f"""
_LOGICAL = {_logical(rop)}

def run(u, v, identity):
    _idx, t_vals = P.{merge}(u.indices, u.values, v.indices, v.values, _OP, _P_DT)
    if t_vals.size == 0:
        return _P_DT.type(identity)
    vals = t_vals.astype(bool) if _LOGICAL else t_vals
    return _P_DT.type(_RED_UF.reduce(vals))
"""
    )


def _instrument_cancellation(source: str) -> str:
    """Insert a guard checkpoint as the first statement of ``run``.

    Python kernels are single ufunc sweeps, so (unlike the C++ loops)
    one poll at entry is the only cheap place to observe a deadline that
    expired between ops of an algorithm loop."""
    marker = "\ndef run("
    at = source.find(marker)
    if at < 0:  # pragma: no cover - all generators emit run()
        return source
    eol = source.index(":\n", at) + 2
    return source[:eol] + "    _pygb_checkpoint()\n" + source[eol:]


def generate_source(spec: KernelSpec) -> str:
    """Source text of the specialised module for *spec*."""
    from .kernels import KERNELS

    row = KERNELS.get(spec.func)
    if row is None or row.py is None:
        raise CompilationError(f"no Python generator for operation {spec.func!r}")
    return _instrument_cancellation(row.py(spec))
