"""C++ binding-file generation (the paper's ``operation_binding.cpp``).

For every :class:`~repro.jit.spec.KernelSpec` this module emits one small
translation unit that

1. fixes the template parameters via ``#define``/``using`` lines — the
   in-file equivalent of the paper's ``-DA_TYPE=int64_t -DADD_BINOP=Plus``
   command-line defines (the equivalent ``g++ -D...`` line is recorded in
   the header comment);
2. ``#include``-s the bundled mini-GBTL header
   (:mod:`~repro.jit.gbtl_lite`);
3. exposes an ``extern "C" pygb_run`` entry point that wraps the caller's
   raw index/value buffers in non-owning views (nothing is copied in),
   which the ``cpp`` engine calls through ``ctypes``.  Vector-valued
   kernels write their result into two caller-owned buffers and return
   nnz; an unmasked, unaccumulated ``apply_mat`` and GBTL's
   ``normalize_rows`` helper write their values into one caller-owned
   buffer (the pattern is the operand's); the k-source traversals write
   their k×n result into three caller buffers of capacity k·n; the other
   matrix-valued ones park their result in a ``thread_local`` holder and
   add a second entry point, ``pygb_fetch``, that copies it into
   exactly-sized caller buffers and releases it.

Operand transposition is resolved by the engine (it passes the cached
transposed CSR), so transpose flags never reach the C++ side — except for
``vxm``, which has a genuine row-scatter kernel and needs no transpose at
all.
"""

from __future__ import annotations

from ..backend import ops_table
from ..exceptions import CompilationError
from ..types import cxx_name as _cxx_name
from .spec import KernelSpec


def cxx_name(token) -> str:
    """C++ element type for a dtype token; ``bool`` maps to ``GB::Bool``
    (``std::vector<bool>`` is a bitset with no ``.data()``, and
    ``uint8_t`` is ``uint8``: a store into it truncates where a bool
    takes ``value != 0``) — one byte, as the engine marshals from NumPy."""
    name = _cxx_name(token)
    return "GB::Bool" if name == "bool" else name

__all__ = ["generate_cpp_source"]


def _cxx_header(spec: KernelSpec) -> str:
    defines = " ".join(spec.cxx_defines())
    return (
        f"// Auto-generated by the PyGB JIT — do not edit.\n"
        f"// spec: {spec.key}\n"
        f"// equivalent command-line instantiation (paper Fig. 9):\n"
        f"//   g++ -std=c++17 -O2 -shared -fPIC operation_binding.cpp {defines}\n"
        f'#include "gbtl_lite.hpp"\n'
        f"using GB::Index;\n"
    )



def _binop_using(alias: str, name: str, t: str) -> str:
    """``using {alias} = ...;`` for a binary operator — a GBTL functor for
    the built-in Fig. 6 set, or an inline functor struct generated from
    the registered C++ expression for user-defined operators
    (Sec. VIII future work)."""
    d = ops_table.binary_def(name)
    if name in ops_table.BUILTIN_BINARY:
        return f"using {alias} = GB::{name}<{t}>;"
    if not d.cxx:
        raise CompilationError(
            f"user-defined operator {name!r} has no C++ expression; "
            f"register it with cxx=... or use the pyjit engine"
        )
    expr = d.cxx.format(a="a", b="b")
    return (
        f"struct {alias} {{ using T = {t}; "
        f"T operator()(T a, T b) const {{ return {expr}; }} }};"
    )


def _product_using(alias: str, spec: KernelSpec, op: str, x: str, y: str,
                   t: str = "TT", t_param: str = "t_dtype") -> str:
    """``using {alias} = ...;`` for the operator *op* combining operands
    *x* and *y* into the product type *t*.  Two ``bool`` operands combine
    as ``bool`` (GBTL ``Plus<bool>``: true + true is true, which is also
    NumPy's bool arithmetic on the Python engines) even where the product
    is then widened to an integer *t*."""
    narrow = spec.get(x) == spec.get(y) == "bool" and spec.get(t_param) != "bool"
    return _binop_using(alias, spec.get(op), "GB::Bool" if narrow else t)


def _unary_using(alias: str, name: str, t: str) -> str:
    """Unary counterpart of :func:`_binop_using`."""
    d = ops_table.unary_def(name)
    if name in ops_table.BUILTIN_UNARY:
        return f"using {alias} = GB::{name}<{t}>;"
    if not d.cxx:
        raise CompilationError(
            f"user-defined operator {name!r} has no C++ expression; "
            f"register it with cxx=... or use the pyjit engine"
        )
    expr = d.cxx.format(a="a")
    return (
        f"struct {alias} {{ using T = {t}; "
        f"T operator()(T a) const {{ return {expr}; }} }};"
    )


def _flags_block(spec: KernelSpec, tc: str = "TC") -> str:
    """The descriptor constants + accumulate functor for this spec."""
    accum = spec.get("accum", "none")
    lines = [
        f"constexpr bool kHasMask = {'true' if spec.get('mask') != 'none' else 'false'};",
        f"constexpr bool kComp = {'true' if spec.flag('comp') else 'false'};",
        f"constexpr bool kRepl = {'true' if spec.flag('repl') else 'false'};",
        f"constexpr bool kHasAccum = {'true' if accum != 'none' else 'false'};",
    ]
    if accum != "none":
        lines.append(_binop_using("AccumOp", accum, tc))
    else:
        lines.append(f"using AccumOp = GB::Second<{tc}>;")
    return "\n".join(lines)


#: the kernel result ``t`` may be partial when a compute loop saw the
#: thread's cancel cell raised and broke out early — the ``-2`` sentinel
#: (checked before anything is written to the caller's buffers) tells the engine
#: to discard it and raise ``OperationCancelled`` instead of surfacing a
#: truncated result.  Vector results go straight into the two
#: ``c_size``-long NumPy buffers the engine passed in.
_VEC_WRITEBACK = """
    if (GB::cancel_requested()) return -2;
    GB::VecView<uint8_t> m;
    if (kHasMask) m = GB::VecView<uint8_t>(c_size, m_idx, m_vals, m_nnz);
    return GB::write_back_vec_into<TC>(c, t, kHasMask ? &m : nullptr, kComp, kRepl,
                                       kHasAccum, AccumOp{}, out_idx, out_vals);
}
"""

#: the write mask as a view, ahead of the kernel call of every
#: matrix-valued TU (``mxm`` restricts its product to it)
_MAT_MASK = """\
    GB::CSRView<uint8_t> m;
    if (kHasMask) m = GB::CSRView<uint8_t>(c_nrows, c_ncols, m_indptr, m_indices, m_vals);"""

#: the second entry point of every matrix-valued TU
_MAT_FETCH = """
extern "C" void pygb_fetch(Index* indptr, Index* indices, TC* values)
{
    GB::fetch_csr(pygb_held, indptr, indices, values);
}
"""

#: matrix results are parked in the TU's ``thread_local`` holder and
#: collected by the engine's follow-up ``pygb_fetch`` call on the same
#: thread (see ``GB::fetch_csr``); ``t`` is handed over by rvalue so an
#: unmasked, unaccumulated write-back can keep its arrays
_MAT_WRITEBACK = """
    if (GB::cancel_requested()) return -2;
    pygb_held = GB::write_back_mat<TC>(c, std::move(t), kHasMask ? &m : nullptr, kComp, kRepl,
                                       kHasAccum, AccumOp{});
    return static_cast<Index>(pygb_held.indices.size());
}
""" + _MAT_FETCH

#: declared between the type aliases and ``pygb_run`` of every
#: matrix-valued TU
_MAT_HOLDER = "static thread_local GB::CSR<TC> pygb_held;"


#: ``MultOp`` with its arguments swapped.  The push form of ``mxv`` runs
#: the vxm scatter kernel over the transposed (scatter) matrix, and the
#: pull form of ``vxm`` runs the row gather over the transposed matrix;
#: both see operands in the opposite order from the semiring's ``⊗``, so
#: the flip restores ``mult(a_value, u_value)`` / ``mult(u_value,
#: a_value)`` exactly as the dense kernels evaluate them.
_MULT_FLIP = (
    "struct MultFlip { TT operator()(TT a, TT b) const"
    " { return MultOp{}(b, a); } };"
)

_EDGES_ACCESSOR = (
    '\nextern "C" int64_t pygb_edges_examined()'
    " { return GB::edges_examined_ref(); }\n"
)


def counts_edges(spec: KernelSpec) -> bool:
    """Whether the ``mxv``/``vxm`` TU of *spec* exports
    ``pygb_edges_examined``: every TU that runs the ``GB::vxm`` scatter
    (``vxm``, and ``mxv`` pushed) or a pull gather."""
    return spec.func == "vxm" or (spec.func == "mxv" and spec.get("dir") is not None)


def _gen_spmv(spec: KernelSpec, vxm: bool) -> str:
    """``mxv``/``vxm`` translation units, branched on the schedule's
    ``dir`` param (absent → the legacy dense kernel, preserving the cache
    key of unscheduled dispatches).

    The engine resolves orientation before dispatch: dense/pull TUs
    receive the gather matrix (``A`` effective for mxv, its transpose for
    vxm) and push TUs the scatter matrix (the other one).  Pull TUs walk
    the rows the write mask can accept straight from the mask arguments
    (``kComp`` picks its complement).  The kernels count the edges they
    examine — the scatter ``Σ out-degree(frontier)``, the pull its
    candidates' scanned neighbours — and the TUs that run them
    (:func:`counts_edges`) export the count as ``pygb_edges_examined``.
    """
    direction = spec.get("dir", "dense")
    dense_call = "GB::vxm<TT>(u, A, AddOp{}, MultOp{})" if vxm else \
        "GB::mxv<TT>(A, u, AddOp{}, MultOp{})"
    if direction == "push":
        # scatter kernel; mxv flips ⊗ so products stay mult(a_val, u_val)
        call = "GB::vxm<TT>(u, A, AddOp{}, MultOp{})" if vxm else \
            "GB::vxm<TT>(u, A, AddOp{}, MultFlip{})"
    elif direction == "pull":
        mult_op = "MultFlip{}" if vxm else "MultOp{}"
        rows = "m_idx, m_vals, m_nnz, kComp"
        if spec.get("add") == "LogicalOr" and spec.get("t_dtype") == "bool":
            call = f"GB::mxv_pull_or<TT>(A, u, {rows}, {mult_op})"
        else:
            call = f"GB::mxv_pull<TT>(A, u, {rows}, AddOp{{}}, {mult_op})"
    else:
        call = dense_call
    flip_line = f"\n{_MULT_FLIP}" if "MultFlip" in call else ""
    accessor = _EDGES_ACCESSOR if counts_edges(spec) else ""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TU = {cxx_name(spec.get('u'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_product_using("MultOp", spec, "mult", "a", "u")}{flip_line}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    const auto u = GB::VecView<TU>(u_size, u_idx, u_vals, u_nnz);
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = {call};
"""
        + _VEC_WRITEBACK
        + accessor
    )


def _gen_mxm(spec: KernelSpec) -> str:
    # a mask that is not complemented is pushed into the product; the
    # other specs compute all of T and leave the mask to the write-back
    mask_arg = ", &m" if spec.get("mask") != "none" and not spec.flag("comp") else ""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_binop_using("AddOp", spec.get('add'), "TT")}
{_product_using("MultOp", spec, "mult", "a", "b")}
{_flags_block(spec)}
{_MAT_HOLDER}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index b_nrows, Index b_ncols, const Index* b_indptr, const Index* b_indices,
    const TB* b_vals,
    Index c_nrows, Index c_ncols, const Index* c_indptr, const Index* c_indices,
    const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals)
{{
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    const auto B = GB::CSRView<TB>(b_nrows, b_ncols, b_indptr, b_indices, b_vals);
    const auto c = GB::CSRView<TC>(c_nrows, c_ncols, c_indptr, c_indices, c_vals);
{_MAT_MASK}
    auto t = GB::mxm<TT>(A, B, AddOp{{}}, MultOp{{}}{mask_arg});
"""
        + _MAT_WRITEBACK
    )


def _gen_ewise_vec(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TV = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_product_using("Op", spec, "op", "a", "b")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* v_idx, const TV* v_vals, Index v_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto u = GB::VecView<TU>(u_size, u_idx, u_vals, u_nnz);
    const auto v = GB::VecView<TV>(u_size, v_idx, v_vals, v_nnz);
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::{kernel}<TT>(u, v, Op{{}});
"""
        + _VEC_WRITEBACK
    )


def _gen_ewise_mat(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TB = {cxx_name(spec.get('b'))};
using TC = {cxx_name(spec.get('c'))};
using TT = {cxx_name(spec.get('t_dtype'))};
{_product_using("Op", spec, "op", "a", "b")}
{_flags_block(spec)}
{_MAT_HOLDER}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* b_indptr, const Index* b_indices, const TB* b_vals,
    const Index* c_indptr, const Index* c_indices, const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals)
{{
    Index c_nrows = a_nrows, c_ncols = a_ncols;
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    const auto B = GB::CSRView<TB>(a_nrows, a_ncols, b_indptr, b_indices, b_vals);
    const auto c = GB::CSRView<TC>(a_nrows, a_ncols, c_indptr, c_indices, c_vals);
{_MAT_MASK}
    auto t = GB::{kernel}<TT>(A, B, Op{{}});
"""
        + _MAT_WRITEBACK
    )


def _unary_functor(spec: KernelSpec) -> str:
    """Lines defining ``UnaryF make_unary(double, int64_t)``."""
    form = spec.get("form")
    op = spec.get("op")
    # an operator runs where the NumPy engines run it: a unary one at its
    # domain over the operand, a bound one at the promotion of operand and
    # constant — ``t_dtype`` when that is not the output's
    # (``int64(a * 2.5)``, not ``int64(a) * 2``) — then
    # GB::apply_values casts to TC last
    t, head = "TC", ""
    if spec.get("t_dtype"):
        t, head = "TT", f"using TT = {cxx_name(spec.get('t_dtype'))};\n"
    if form == "unary":
        return (
            head
            + _unary_using("UnaryF", op, t)
            + "\nstatic UnaryF make_unary(double, int64_t) { return UnaryF{}; }\n"
        )
    binder = "Bind1st" if spec.get("side") == "first" else "Bind2nd"
    return (
        head
        + _binop_using("BoundOp", op, t)
        + f"\nusing UnaryF = GB::{binder}<{t}, BoundOp>;\n"
        "static UnaryF make_unary(double dconst, int64_t iconst) {\n"
        f"    return UnaryF(std::is_floating_point<{t}>::value"
        f" ? static_cast<{t}>(dconst) : static_cast<{t}>(iconst));\n"
        "}\n"
    )


def _gen_apply_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}
{_unary_functor(spec)}

extern "C" Index pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    double dconst, int64_t iconst,
    Index* out_idx, TC* out_vals)
{{
    const auto u = GB::VecView<TU>(u_size, u_idx, u_vals, u_nnz);
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::apply_vec<TC>(u, make_unary(dconst, iconst));
"""
        + _VEC_WRITEBACK
    )


def _gen_apply_mat(spec: KernelSpec) -> str:
    head = (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
"""
    )
    if spec.unmerged():
        # C<> = f(A) stores exactly where A does: the binding computes
        # values only and the engine pairs them with A's indptr/indices.
        # The caller sized out_vals from A's nnz; nothing is written once
        # the cancel cell is seen raised (the -2 contract)
        return head + f"""{_unary_functor(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    double dconst, int64_t iconst,
    TC* out_vals)
{{
    if (GB::cancel_requested()) return -2;
    const Index nnz = a_indptr[a_nrows];
    GB::apply_values<TC>(a_vals, nnz, make_unary(dconst, iconst), out_vals);
    return nnz;
}}
"""
    return (
        head
        + f"""{_flags_block(spec)}
{_MAT_HOLDER}
{_unary_functor(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* c_indptr, const Index* c_indices, const TC* c_vals,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals,
    double dconst, int64_t iconst)
{{
    Index c_nrows = a_nrows, c_ncols = a_ncols;
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    const auto c = GB::CSRView<TC>(a_nrows, a_ncols, c_indptr, c_indices, c_vals);
{_MAT_MASK}
    auto t = GB::apply_mat<TC>(A, make_unary(dconst, iconst));
"""
        + _MAT_WRITEBACK
    )


def _monoid_domain(op: str, dtype: str) -> str:
    """``using TR = ...;``: the domain a monoid folds in over *dtype*
    values, as the NumPy engines fold — ``bool`` for a logical monoid,
    ``int64`` for arithmetic over ``bool`` — so a one-value fold is cast
    into it too (``LogicalOr`` of a lone ``-1`` is true)."""
    return f"using TR = {cxx_name(ops_table.binary_result_dtype(op, dtype, dtype).name)};"


def _gen_reduce_scalar(spec: KernelSpec, matrix: bool) -> str:
    op = spec.get("op")
    ta = cxx_name(spec.get("a"))
    if matrix:
        sig = (
            "Index a_nrows, Index a_ncols, const Index* a_indptr,"
            " const Index* a_indices, const TA* a_vals,"
        )
        mk = "const auto x = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);"
        values = "x.values"
    else:
        sig = "Index u_size, const Index* u_idx, const TA* u_vals, Index u_nnz,"
        mk = "const auto x = GB::VecView<TA>(u_size, u_idx, u_vals, u_nnz);"
        values = "x.val"
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TA = {ta};
{_monoid_domain(op, spec.get("a"))}
{_binop_using("Op", op, "TR")}

extern "C" void pygb_run(
    {sig}
    double didentity, int64_t iidentity,
    TA* out_scalar)
{{
    {mk}
    const TA identity = std::is_floating_point<TA>::value
        ? static_cast<TA>(didentity) : static_cast<TA>(iidentity);
    *out_scalar = static_cast<TA>(
        GB::reduce_values<TR>({values}, Op{{}}, static_cast<TR>(identity)));
}}
"""
    )


def _gen_reduce_rows(spec: KernelSpec) -> str:
    # each entry is cast into the monoid's domain before it is folded:
    # Plus over bool counts
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
{_monoid_domain(spec.get("op"), spec.get("a"))}
using TC = {cxx_name(spec.get('c'))};
{_binop_using("Op", spec.get('op'), "TR")}
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    auto t = GB::reduce_rows<TR>(A, Op{{}});
"""
        + _VEC_WRITEBACK
    )


def _gen_normalize_rows(spec: KernelSpec) -> str:
    """GBTL's ``normalize_rows`` helper in the values-only form of an
    unmerged ``apply_mat``: the operand pack and one ``TC* out_vals`` the
    caller sized from A's nnz, the cancellation check before the first
    write, no holder and no ``pygb_fetch`` (the pattern is A's)."""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    TC* out_vals)
{{
    if (GB::cancel_requested()) return -2;
    GB::normalize_rows<TC>(a_nrows, a_indptr, a_vals, out_vals);
    return a_indptr[a_nrows];
}}
"""
    )


_ASSIGN_PRELUDE = """
    // GrB_assign: region-local replace/merge, then the whole-domain mask stage
    std::vector<uint8_t> in_region(c_size, 0);
    for (Index k = 0; k < n_idx; ++k) in_region[idx[k]] = 1;
    std::vector<uint8_t> z_has(c_size, 0);
    std::vector<TC> z_val(c_size);
"""

_ASSIGN_EPILOGUE = """
    GB::Vec<TC> z; z.size = c_size;
    for (Index i = 0; i < c_size; ++i)
        if (z_has[i]) { z.idx.push_back(i); z.val.push_back(z_val[i]); }
    GB::VecView<uint8_t> m;
    if (kHasMask) m = GB::VecView<uint8_t>(c_size, m_idx, m_vals, m_nnz);
    return GB::write_back_vec_into<TC>(c, z, kHasMask ? &m : nullptr, kComp, kRepl,
                                       false, AccumOp{}, out_idx, out_vals);
}
"""


def _gen_assign_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
{_ASSIGN_PRELUDE}
    // outside the region: C passes through
    for (Index k = 0; k < c_nnz; ++k)
        if (!in_region[c_idx[k]]) {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
        else if (kHasAccum) {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
    // inside: the scattered source (accumulated into region-old values)
    for (Index k = 0; k < u_nnz; ++k) {{
        const Index i = idx[u_idx[k]];
        const TC v = static_cast<TC>(u_vals[k]);
        if (kHasAccum && z_has[i] && in_region[i]) z_val[i] = AccumOp{{}}(z_val[i], v);
        else {{ z_has[i] = 1; z_val[i] = v; }}
    }}
"""
        + _ASSIGN_EPILOGUE
    )


def _gen_assign_vec_scalar(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n#include <type_traits>\n"
        + f"""
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    double dvalue, int64_t ivalue,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    const TC value = std::is_floating_point<TC>::value
        ? static_cast<TC>(dvalue) : static_cast<TC>(ivalue);
{_ASSIGN_PRELUDE}
    for (Index k = 0; k < c_nnz; ++k)
        if (!in_region[c_idx[k]] || kHasAccum)
            {{ z_has[c_idx[k]] = 1; z_val[c_idx[k]] = c_vals[k]; }}
    for (Index k = 0; k < n_idx; ++k) {{
        const Index i = idx[k];
        if (kHasAccum && z_has[i]) z_val[i] = AccumOp{{}}(z_val[i], value);
        else {{ z_has[i] = 1; z_val[i] = value; }}
    }}
"""
        + _ASSIGN_EPILOGUE
    )


def _gen_assign_mat_scalar(spec: KernelSpec) -> str:
    """``C<M, z>(rows, cols) = C (accum) s`` as one merge per row of C's
    row, the mask's row and the region's columns: the region is the
    product of the two index lists (duplicates collapse), so nothing is
    sized by nrows x ncols.  Under a mask that is not complemented a
    region cell outside the mask can never be written, so a region row
    walks the mask's entries instead of every region column (BFS's
    ``levels[frontier][:, :] = depth`` touches the frontier, not the
    matrix).  An index out of range returns -3 (row) or -4 (column)
    before anything is written."""
    return (
        _cxx_header(spec)
        + "#include <vector>\n#include <type_traits>\n"
        + f"""
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}
{_MAT_HOLDER}

extern "C" Index pygb_run(
    Index c_nrows, Index c_ncols, const Index* c_indptr, const Index* c_indices,
    const TC* c_vals,
    double dvalue, int64_t ivalue,
    const Index* rows, Index n_rows, const Index* cols, Index n_cols,
    const Index* m_indptr, const Index* m_indices, const uint8_t* m_vals)
{{
    std::vector<uint8_t> in_row(c_nrows, 0), in_col(c_ncols, 0);
    for (Index k = 0; k < n_rows; ++k) {{
        if (rows[k] < 0 || rows[k] >= c_nrows) return -3;
        in_row[rows[k]] = 1;
    }}
    for (Index k = 0; k < n_cols; ++k) {{
        if (cols[k] < 0 || cols[k] >= c_ncols) return -4;
        in_col[cols[k]] = 1;
    }}
    std::vector<Index> region;  // the region's columns, ascending, unique
    for (Index j = 0; j < c_ncols; ++j)
        if (in_col[j]) region.push_back(j);
    const TC value = std::is_floating_point<TC>::value
        ? static_cast<TC>(dvalue) : static_cast<TC>(ivalue);
    constexpr bool kMaskRows = kHasMask && !kComp;
    GB::CSR<TC> out;
    out.nrows = c_nrows; out.ncols = c_ncols;
    out.indptr.assign(c_nrows + 1, 0);
    for (Index r = 0; r < c_nrows; ++r) {{
        if ((r & 1023) == 0 && GB::cancel_requested()) return -2;
        Index pc = c_indptr[r];
        const Index ec = c_indptr[r + 1];
        Index pm = kHasMask ? m_indptr[r] : 0;
        const Index em = kHasMask ? m_indptr[r + 1] : 0;
        // the next region column this row writes (c_ncols: none left)
        Index pt = kMaskRows ? pm : 0;
        auto next_t = [&]() -> Index {{
            if (!in_row[r]) return c_ncols;
            if (kMaskRows) {{
                while (pt < em && !(m_vals[pt] && in_col[m_indices[pt]])) ++pt;
                return pt < em ? m_indices[pt] : c_ncols;
            }}
            return pt < static_cast<Index>(region.size()) ? region[pt] : c_ncols;
        }};
        for (;;) {{
            const Index jc = pc < ec ? c_indices[pc] : c_ncols;
            const Index jt = next_t();
            const Index j = jc < jt ? jc : jt;
            if (j == c_ncols) break;
            const bool ch = jc == j, th = jt == j;
            bool in_mask = true;
            if (kHasMask) {{
                while (pm < em && m_indices[pm] < j) ++pm;
                in_mask = (pm < em && m_indices[pm] == j && m_vals[pm]) != kComp;
            }}
            if (in_mask && th) {{
                out.indices.push_back(j);
                out.values.push_back(kHasAccum && ch ? AccumOp{{}}(c_vals[pc], value) : value);
            }} else if (ch && (in_mask || !kRepl)) {{
                out.indices.push_back(j);
                out.values.push_back(c_vals[pc]);
            }}
            pc += ch; pt += th;
        }}
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }}
    if (GB::cancel_requested()) return -2;
    pygb_held = std::move(out);
    return static_cast<Index>(pygb_held.indices.size());
}}
"""
        + _MAT_FETCH
    )


def _gen_extract_vec(spec: KernelSpec) -> str:
    return (
        _cxx_header(spec)
        + "#include <vector>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TC = {cxx_name(spec.get('c'))};
{_flags_block(spec)}

extern "C" Index pygb_run(
    Index c_size, const Index* c_idx, const TC* c_vals, Index c_nnz,
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* idx, Index n_idx,
    const Index* m_idx, const uint8_t* m_vals, Index m_nnz,
    Index* out_idx, TC* out_vals)
{{
    const auto c = GB::VecView<TC>(c_size, c_idx, c_vals, c_nnz);
    std::vector<uint8_t> u_has(u_size, 0);
    std::vector<TC> u_val(u_size);
    for (Index k = 0; k < u_nnz; ++k) {{
        u_has[u_idx[k]] = 1;
        u_val[u_idx[k]] = static_cast<TC>(u_vals[k]);
    }}
    GB::Vec<TC> t; t.size = n_idx;
    for (Index p = 0; p < n_idx; ++p)
        if (u_has[idx[p]]) {{ t.idx.push_back(p); t.val.push_back(u_val[idx[p]]); }}
"""
        + _VEC_WRITEBACK
    )


# ----------------------------------------------------------------------
# the reduce-site fused pair: ``gb.reduce(u ⊕ v)`` in one call
#
# Composes the verified mini-GBTL primitives in-process: the elementwise
# result never crosses the FFI boundary or becomes a Python container.
# It is computed at TP, the dtype of the temporary the unfused pair
# materialises, so fused and unfused runs agree exactly.
# ----------------------------------------------------------------------


def _gen_ewise_reduce_scalar(spec: KernelSpec, kernel: str) -> str:
    return (
        _cxx_header(spec)
        + "#include <type_traits>\n"
        + f"""
using TU = {cxx_name(spec.get('a'))};
using TV = {cxx_name(spec.get('b'))};
using TP = {cxx_name(spec.get('p'))};
{_product_using("Op", spec, "op", "a", "b", "TP", "p")}
{_monoid_domain(spec.get('rop'), spec.get('p'))}
{_binop_using("RedOp", spec.get('rop'), "TR")}

extern "C" void pygb_run(
    Index u_size, const Index* u_idx, const TU* u_vals, Index u_nnz,
    const Index* v_idx, const TV* v_vals, Index v_nnz,
    double didentity, int64_t iidentity,
    TP* out_scalar)
{{
    const auto u = GB::VecView<TU>(u_size, u_idx, u_vals, u_nnz);
    const auto v = GB::VecView<TV>(u_size, v_idx, v_vals, v_nnz);
    auto t = GB::{kernel}<TP>(u, v, Op{{}});
    const TP identity = std::is_floating_point<TP>::value
        ? static_cast<TP>(didentity) : static_cast<TP>(iidentity);
    *out_scalar = static_cast<TP>(
        GB::reduce_values<TR>(t.val, RedOp{{}}, static_cast<TR>(identity)));
}}
"""
    )


# ----------------------------------------------------------------------
# whole k-source traversals: the bfs_multi / sssp_multi rows
#
# The listing's loop runs in C++ over a k×n state, one row per source,
# built from the same mini-GBTL kernels the per-operation bindings call.
# A row only ever combines with itself, so each round runs row by row:
# ``GB::vxm`` scatters the row over A into a dense accumulator (each
# column folds over ascending i, the order of the reference's mxm and of
# the solo listing's kernels) and emits in column order with no sort,
# and ``GB::write_back_vec`` applies mask, replace and accumulate per
# entry — so every row is bit-identical to the single-source listing
# (backend/kernels/traversal.py is the reference).  One call per batch;
# the result goes into caller buffers sized k + 1, k·n and k·n
# (nnz <= k·n), so nothing is held or fetched.  The engine has checked
# the graph is square and every source in range.  The cancel cell is
# polled once a round and after the last; it does not fall before the op
# ends, so a ``GB::vxm`` it cut short never yields a count.  Serial
# build: a served batch is small, and the service's parallelism is its
# worker threads.
# ----------------------------------------------------------------------

_TRAVERSAL_SIGNATURE = """
extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TA* a_vals,
    const Index* sources, Index k,
    Index* out_indptr, Index* out_indices, TC* out_vals)
{
    const auto A = GB::CSRView<TA>(a_nrows, a_ncols, a_indptr, a_indices, a_vals);
"""

#: the k rows, one after the other, into the caller's buffers
_TRAVERSAL_EMIT_ROWS = """\
    if (GB::cancel_requested()) return -2;
    Index nnz = 0;
    out_indptr[0] = 0;
    for (Index s = 0; s < k; ++s) {{
        std::copy({name}[s].idx.begin(), {name}[s].idx.end(), out_indices + nnz);
        std::copy({name}[s].val.begin(), {name}[s].val.end(), out_vals + nnz);
        nnz += static_cast<Index>({name}[s].idx.size());
        out_indptr[s + 1] = nnz;
    }}
    return nnz;
}}
"""


def _gen_bfs_multi(spec: KernelSpec) -> str:
    """``levels[frontier][:, :] = depth`` then, under LogicalSemiring and
    Replace, ``frontier[~levels] = frontier @ A``, until no row's frontier
    holds a true entry — row by row, ``GB::vxm`` and ``GB::write_back_vec``."""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = int64_t;
using TT = {cxx_name(spec.get('t_dtype'))};
using AddOp = GB::LogicalOr<TT>;
using MultOp = GB::LogicalAnd<TT>;
"""
        + _TRAVERSAL_SIGNATURE
        + """    std::vector<GB::Vec<GB::Bool>> frontier(k);
    std::vector<GB::Vec<TC>> levels(k);
    for (Index s = 0; s < k; ++s) {
        frontier[s].size = levels[s].size = a_ncols;
        frontier[s].idx.push_back(sources[s]);
        frontier[s].val.push_back(GB::Bool(true));
    }
    for (TC depth = 1;; ++depth) {
        if (GB::cancel_requested()) return -2;
        bool any = false;
        for (Index s = 0; s < k; ++s) {
            auto& f = frontier[s];
            // levels<frontier> = depth over every cell: depth lands on the
            // frontier's true entries, every other level stays.  A row
            // whose frontier holds no true entry is done: false entries
            // (reached over stored-zero edges) level nothing, and all
            // their products are false
            GB::Vec<TC> t; t.size = a_ncols;
            for (size_t p = 0; p < f.idx.size(); ++p)
                if (f.val[p]) { t.idx.push_back(f.idx[p]); t.val.push_back(depth); }
            if (t.idx.empty()) continue;
            any = true;
            levels[s] = GB::write_back_vec<TC>(levels[s], t, &f, false, false, false,
                                               GB::Second<TC>{});
            f = GB::write_back_vec<GB::Bool>(f, GB::vxm<TT>(f, A, AddOp{}, MultOp{}), &levels[s],
                                             /*comp=*/true, /*replace=*/true, false,
                                             GB::Second<GB::Bool>{});
        }
        if (!any) break;
    }
"""
        + _TRAVERSAL_EMIT_ROWS.format(name="levels")
    )


def _narrow(spec: KernelSpec) -> bool:
    """Whether ``Plus`` on two ``bool`` graph values combines as ``bool``
    although the product widens (:func:`_product_using`'s rule)."""
    return spec.get("a") == "bool" and spec.get("t_dtype") != "bool"


def _gen_sssp_multi(spec: KernelSpec) -> str:
    """``dist[None] += dist @ A`` under MinPlusSemiring and a Min
    accumulator, at most |V| rounds, stopping once a round changes no
    row.  A row that a round left unchanged is a fixed point, so later
    rounds skip it."""
    return (
        _cxx_header(spec)
        + f"""
using TA = {cxx_name(spec.get('a'))};
using TC = TA;
using TT = {cxx_name(spec.get('t_dtype'))};
using AddOp = GB::Min<TT>;
using MultOp = GB::Plus<{"GB::Bool" if _narrow(spec) else "TT"}>;
using NoMask = GB::Vec<uint8_t>;
"""
        + _TRAVERSAL_SIGNATURE
        + """    std::vector<GB::Vec<TC>> dist(k);
    std::vector<uint8_t> settled(k, 0);
    for (Index s = 0; s < k; ++s) {
        dist[s].size = a_ncols;
        dist[s].idx.push_back(sources[s]);
        dist[s].val.push_back(TC(0));
    }
    for (Index round = 0; round < a_nrows; ++round) {
        if (GB::cancel_requested()) return -2;
        bool all_settled = true;
        for (Index s = 0; s < k; ++s) {
            if (settled[s]) continue;
            auto next = GB::write_back_vec<TC>(
                dist[s], GB::vxm<TT>(dist[s], A, AddOp{}, MultOp{}),
                static_cast<const NoMask*>(nullptr), false, false, /*accum=*/true, GB::Min<TC>{});
            settled[s] = next.idx == dist[s].idx && next.val == dist[s].val;
            all_settled = all_settled && settled[s];
            dist[s] = std::move(next);
        }
        if (all_settled) break;
    }
"""
        + _TRAVERSAL_EMIT_ROWS.format(name="dist")
    )


# ----------------------------------------------------------------------
# whole algorithms: the pagerank / triangle_count rows (paper Fig. 10,
# versions 2 and 3 — "a series of operations ... compiled into a single
# binary module").  The listing's loop runs in C++ against the mini-GBTL
# kernels, the data between them never crosses the FFI; the kernel's own
# clock (``pygb_kernel_ns``) is version 3.
# ----------------------------------------------------------------------


def _gen_pagerank(spec: KernelSpec) -> str:
    """Fig. 8: normalise the rows and pre-scale by the damping factor,
    then iterate ``vxm``, teleport and the squared error until it falls
    under the threshold; the rank vector goes into two n-long caller
    buffers.  The cancel cell is polled once an iteration and after the
    last, so an iteration a cut-short ``GB::vxm`` spoiled never yields
    ranks."""
    return (
        _cxx_header(spec)
        + f"""
using TV = {cxx_name(spec.get('a'))};  // rank type (double in the paper's Fig. 8)

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* a_indptr, const Index* a_indices,
    const TV* a_vals,
    double damping, double threshold, int64_t max_iters,
    Index* out_idx, TV* out_vals)
{{
    const Index n = a_nrows;
    // the one input this kernel writes (row normalisation below): an
    // owning copy, since views over the caller's buffers are read-only
    const GB::CSRView<TV> g(n, a_ncols, a_indptr, a_indices, a_vals);
    GB::CSR<TV> m; m.nrows = n; m.ncols = a_ncols;
    m.indptr.insert(m.indptr.end(), g.indptr.begin(), g.indptr.end());
    m.indices.insert(m.indices.end(), g.indices.begin(), g.indices.end());
    m.values.insert(m.values.end(), g.values.begin(), g.values.end());

    // normalize_rows + damping pre-scale (Fig. 8 lines 13-24)
    for (Index i = 0; i < n; ++i) {{
        TV sum = TV(0);
        for (Index p = m.indptr[i]; p < m.indptr[i + 1]; ++p) sum += m.values[p];
        if (sum != TV(0))
            for (Index p = m.indptr[i]; p < m.indptr[i + 1]; ++p)
                m.values[p] = TV(damping) * m.values[p] / sum;
    }}

    GB::Vec<TV> page_rank; page_rank.size = n;
    for (Index i = 0; i < n; ++i) {{
        page_rank.idx.push_back(i);
        page_rank.val.push_back(TV(1) / TV(n));
    }}
    GB::Vec<TV> new_rank; new_rank.size = n;
    const TV teleport = (TV(1) - TV(damping)) / TV(n);
    static const GB::Vec<uint8_t>* const kNoMask = nullptr;

    for (int64_t it = 0; it < max_iters; ++it) {{
        if (GB::cancel_requested()) return -2;
        auto t = GB::vxm<TV>(page_rank, m, GB::Plus<TV>{{}}, GB::Times<TV>{{}});
        new_rank = GB::write_back_vec<TV>(
            new_rank, t, kNoMask, false, false, true, GB::Second<TV>{{}});
        new_rank = GB::apply_vec<TV>(
            new_rank, GB::Bind2nd<TV, GB::Plus<TV>>(teleport));
        auto delta = GB::ewise_add<TV>(page_rank, new_rank, GB::Minus<TV>{{}});
        delta = GB::ewise_mult<TV>(delta, delta, GB::Times<TV>{{}});
        const TV squared_error = GB::reduce_values<TV>(delta.val, GB::Plus<TV>{{}}, TV(0));
        page_rank = new_rank;
        if (squared_error / TV(n) < TV(threshold)) break;
    }}
    if (GB::cancel_requested()) return -2;

    std::copy(page_rank.idx.begin(), page_rank.idx.end(), out_idx);
    std::copy(page_rank.val.begin(), page_rank.val.end(), out_vals);
    return static_cast<Index>(page_rank.idx.size());
}}
"""
    )


def _gen_triangle_count(spec: KernelSpec) -> str:
    """Fig. 5b: ``B<L> = L ⊕.⊗ Lᵀ`` with the mask pushed into the product
    exactly as the per-operation ``mxm`` binding does, then a Plus-reduce
    of B into the caller's one-value buffer; 0, or -2 when the cancel
    cell cut the product short."""
    return (
        _cxx_header(spec)
        + f"""
using TV = {cxx_name(spec.get('a'))};

extern "C" Index pygb_run(
    Index a_nrows, Index a_ncols, const Index* l_indptr, const Index* l_indices,
    const TV* l_vals,
    const Index* lt_indptr, const Index* lt_indices, const TV* lt_vals,
    TV* out_triangles)
{{
    const Index n = a_nrows;
    const GB::CSRView<TV> L(n, a_ncols, l_indptr, l_indices, l_vals);
    const GB::CSRView<TV> LT(a_ncols, n, lt_indptr, lt_indices, lt_vals);

    std::vector<uint8_t> ltrue;
    ltrue.reserve(L.values.size());
    for (const TV x : L.values) ltrue.push_back(uint8_t(bool(x)));
    const GB::CSRView<uint8_t> lmask(n, a_ncols, l_indptr, l_indices, ltrue.data());
    auto t = GB::mxm<TV>(L, LT, GB::Plus<TV>{{}}, GB::Times<TV>{{}}, &lmask);
    if (GB::cancel_requested()) return -2;
    GB::CSR<TV> empty; empty.nrows = n; empty.ncols = n;
    empty.indptr.assign(n + 1, 0);
    auto B = GB::write_back_mat<TV>(
        empty, std::move(t), &lmask, false, false, false, GB::Second<TV>{{}});
    *out_triangles = GB::reduce_values<TV>(B.values, GB::Plus<TV>{{}}, TV(0));
    return 0;
}}
"""
    )


def _gen_mmread(spec: KernelSpec) -> str:
    """The MatrixMarket coordinate-section parser (paper Sec. VIII: "wrapping
    a C++ function to directly load a matrix ... would be trivial"): the
    file's body after the size line, parsed into the caller's three
    nnz-long arrays.  Accepts exactly the tokens the Python reader's NumPy
    parse does."""
    return (
        _cxx_header(spec)
        + f"""#include <charconv>
#include <system_error>

using TC = {cxx_name(spec.get('c'))};
"""
        + r"""
namespace {

inline bool is_space(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

// start of the next token, past one leading '+': NumPy's parser (the
// Python reader) takes it, from_chars does not
inline const char* token_start(const char* p, const char* end) {
    while (p != end && is_space(*p)) ++p;
    return (end - p > 1 && p[0] == '+' && p[1] != '+' && p[1] != '-') ? p + 1 : p;
}

// a token is well formed only if it ends at whitespace or the end of input
inline const char* token_end(const char* p, const char* end) {
    return (p == end || is_space(*p)) ? p : nullptr;
}

// both parsers return the first byte after the token, or nullptr
inline const char* parse_index(const char* p, const char* end, int64_t& out) {
    auto res = std::from_chars(token_start(p, end), end, out);
    return res.ec == std::errc() ? token_end(res.ptr, end) : nullptr;
}

inline const char* parse_real(const char* p, const char* end, double& out) {
    p = token_start(p, end);
    if (p == end) return nullptr;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    auto res = std::from_chars(p, end, out);
    if (res.ec == std::errc()) return token_end(res.ptr, end);
    if (res.ec != std::errc::result_out_of_range) return nullptr;
#endif
    // no floating-point from_chars in this standard library, or the token
    // overflows a double (strtod yields +-inf / 0, as NumPy does); the
    // buffer is a Python bytes object, NUL-terminated, so strtod stops
    char* stop = nullptr;
    out = std::strtod(p, &stop);
    return (stop == p || stop > end) ? nullptr : token_end(stop, end);
}

}  // namespace

// Parses exactly `nnz` "row col value" entries (1-based) from buf[0, len)
// into the caller's arrays (0-based).  -1: an entry is malformed, missing,
// or followed by anything but whitespace; 1: every entry is in range and
// they are strictly increasing in row-major order (a CSR as they stand:
// no sort, duplicate fold or bounds pass needed); 0 otherwise.
extern "C" Index pygb_run(const char* buf, int64_t len, int64_t nnz,
                          int64_t nrows, int64_t ncols,
                          int64_t* rows, int64_t* cols, TC* vals)
{
    const char* p = buf;
    const char* const end = buf + len;
    bool canonical = true;
    int64_t prev_r = -1, prev_c = -1;
    for (int64_t k = 0; k < nnz; ++k) {
        int64_t r, c;
        double v;
        if (!(p = parse_index(p, end, r))) return -1;
        if (!(p = parse_index(p, end, c))) return -1;
        if (!(p = parse_real(p, end, v))) return -1;
        vals[k] = static_cast<TC>(v);
        // 0-based; anything below 1 becomes -1 (r - 1 could overflow) and
        // is reported by the bounds check of the non-canonical path
        r = r < 1 ? -1 : r - 1;
        c = c < 1 ? -1 : c - 1;
        canonical = canonical && r >= 0 && r < nrows && c >= 0 && c < ncols &&
                    (r > prev_r || (r == prev_r && c > prev_c));
        rows[k] = prev_r = r;
        cols[k] = prev_c = c;
    }
    if (token_start(p, end) != end) return -1;
    return canonical ? 1 : 0;
}
"""
    )


def _instrument_kernel_timing(source: str) -> str:
    """Plant the observability clock pair into a generated TU: a
    ``GB::KernelTimer`` as the first statement of ``pygb_run`` (its
    destructor records the kernel's monotonic wall time on every exit
    path) and an ``extern "C"`` accessor the engine reads after the FFI
    call returns."""
    anchor = source.find("pygb_run(")
    if anchor < 0:  # pragma: no cover - every generator emits pygb_run
        return source
    brace = source.find("{", anchor)
    if brace < 0:  # pragma: no cover
        return source
    return (
        source[: brace + 1]
        + "\n    GB::KernelTimer _pygb_kernel_timer;"
        + source[brace + 1 :]
        + '\nextern "C" GB::Index pygb_kernel_ns() { return GB::last_kernel_ns_ref(); }\n'
    )


def _instrument_cancellation(source: str) -> str:
    """Give ``pygb_run`` this thread's cancel cell: a leading ``const
    GB::Index*`` parameter (the engine passes the calling thread's cell)
    and a ``GB::CancelScope`` as its first statement, which points the
    kernels' thread-local slot at the cell for the call and restores it
    on every exit path."""
    anchor = source.find("pygb_run(") + len("pygb_run(")
    brace = source.find("{", anchor)
    return (
        source[:anchor]
        + "const GB::Index* pygb_cancel,"
        + source[anchor : brace + 1]
        + "\n    GB::CancelScope _pygb_cancel_scope(pygb_cancel);"
        + source[brace + 1 :]
    )


def generate_cpp_source(spec: KernelSpec) -> str:
    """The binding translation unit for *spec*, from its kernel-table row."""
    from .kernels import KERNELS

    row = KERNELS.get(spec.func)
    if row is None or row.cpp is None:
        raise CompilationError(f"no C++ generator for operation {spec.func!r}")
    return _instrument_cancellation(_instrument_kernel_timing(row.cpp(spec)))
