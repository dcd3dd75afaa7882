"""Naive dict-of-keys reference implementation of every GraphBLAS operation.

This module is the *test oracle*: a direct, loop-based transliteration of
the C API Specification's mathematical definitions, written for obvious
correctness rather than speed.  Property and differential tests compare
the vectorised kernels (and the C++ JIT backend) against these functions
entry by entry.

Containers here are plain dicts: ``{index: value}`` for vectors and
``{(row, col): value}`` for matrices; scalars are Python numbers.

Products and eWise operations take an optional *dtype*, the domain of
their result ``T`` (the C API's ``D_out``): every product, partial sum
and eWise value is cast into it as it is formed.  Left as ``None``,
values keep NumPy's natural type for the operands at hand.
"""

from __future__ import annotations

import numpy as np

from . import ops_table

__all__ = [
    "ref_mxm",
    "ref_mxv",
    "ref_vxm",
    "ref_ewise_add",
    "ref_ewise_mult",
    "ref_apply",
    "ref_reduce_scalar",
    "ref_reduce_rows",
    "ref_transpose_dict",
    "ref_extract_mat",
    "ref_extract_vec",
    "ref_assign_mat",
    "ref_assign_vec",
    "ref_finalize_vec",
    "ref_finalize_mat",
]


def _b(name: str):
    func = ops_table.binary_def(name).func

    def scalar_op(a, b):
        return np.asarray(func(np.asarray(a), np.asarray(b))).item()

    return scalar_op


def _u(op_spec):
    if op_spec[0] == "unary":
        f = ops_table.unary_def(op_spec[1]).func
        return lambda v: np.asarray(f(np.asarray(v))).item()
    _, name, const, side = op_spec
    f = _b(name)
    if side == "first":
        return lambda v: f(const, v)
    return lambda v: f(v, const)


def _cast(value, dtype):
    return np.dtype(dtype).type(value).item()


def _typed(f, dtype):
    """*f* with its result cast into *dtype* (``None``: left as it is)."""
    if dtype is None:
        return f
    return lambda a, b: _cast(f(a, b), dtype)


# ----------------------------------------------------------------------
# raw operations (no mask / accumulate — those are ref_finalize_*)
# ----------------------------------------------------------------------


def ref_mxm(a: dict, b: dict, add_op: str, mult_op: str, dtype=None) -> dict:
    """T(i, j) = ⊕_k A(i, k) ⊗ B(k, j), over stored entries only."""
    add, mult = _typed(_b(add_op), dtype), _typed(_b(mult_op), dtype)
    out: dict = {}
    b_by_row: dict = {}
    for (k, j), bv in b.items():
        b_by_row.setdefault(k, []).append((j, bv))
    for (i, k), av in a.items():
        for j, bv in b_by_row.get(k, ()):
            p = mult(av, bv)
            out[(i, j)] = add(out[(i, j)], p) if (i, j) in out else p
    return out


def ref_mxv(a: dict, u: dict, add_op: str, mult_op: str, dtype=None) -> dict:
    """T(i) = ⊕_j A(i, j) ⊗ u(j)."""
    add, mult = _typed(_b(add_op), dtype), _typed(_b(mult_op), dtype)
    out: dict = {}
    for (i, j), av in a.items():
        if j in u:
            p = mult(av, u[j])
            out[i] = add(out[i], p) if i in out else p
    return out


def ref_vxm(u: dict, a: dict, add_op: str, mult_op: str, dtype=None) -> dict:
    """T(j) = ⊕_i u(i) ⊗ A(i, j)."""
    add, mult = _typed(_b(add_op), dtype), _typed(_b(mult_op), dtype)
    out: dict = {}
    for (i, j), av in a.items():
        if i in u:
            p = mult(u[i], av)
            out[j] = add(out[j], p) if j in out else p
    return out


def ref_ewise_add(a: dict, b: dict, op: str, dtype=None) -> dict:
    """Union structure; *op* applied only where both sides are stored,
    a value stored on one side only is cast into *dtype* as it is."""
    f = _typed(_b(op), dtype)
    keep = (lambda v: v) if dtype is None else (lambda v: _cast(v, dtype))
    out = {k: keep(v) for k, v in a.items()}
    for k, bv in b.items():
        out[k] = f(a[k], bv) if k in a else keep(bv)
    return out


def ref_ewise_mult(a: dict, b: dict, op: str, dtype=None) -> dict:
    """Intersection structure."""
    f = _typed(_b(op), dtype)
    return {k: f(av, b[k]) for k, av in a.items() if k in b}


def ref_apply(a: dict, op_spec) -> dict:
    f = _u(op_spec)
    return {k: f(v) for k, v in a.items()}


def ref_reduce_scalar(a: dict, op: str, identity=None, dtype=np.float64):
    """Monoid reduction of all stored values; identity when empty."""
    if identity is None:
        identity = ops_table.DEFAULT_IDENTITY_NAME[op]
    acc = np.asarray(ops_table.identity_value(identity, dtype)).item()
    f = _b(op)
    for v in a.values():
        acc = f(acc, v)
    return _cast(acc, dtype)


def ref_reduce_rows(a: dict, op: str, dtype=None) -> dict:
    """Row-wise monoid reduction; empty rows produce no entry.  With a
    *dtype* (the monoid's domain) every entry is cast into it first."""
    f = _typed(_b(op), dtype)
    out: dict = {}
    for (i, _j), v in sorted(a.items()):
        if dtype is not None:
            v = _cast(v, dtype)
        out[i] = f(out[i], v) if i in out else v
    return out


def ref_transpose_dict(a: dict) -> dict:
    return {(j, i): v for (i, j), v in a.items()}


def ref_extract_mat(a: dict, rows, cols) -> dict:
    out: dict = {}
    for r_out, r_src in enumerate(rows):
        for c_out, c_src in enumerate(cols):
            if (r_src, c_src) in a:
                out[(r_out, c_out)] = a[(r_src, c_src)]
    return out


def ref_extract_vec(u: dict, indices) -> dict:
    return {p: u[i] for p, i in enumerate(indices) if i in u}


def ref_assign_mat(c: dict, a: dict, rows, cols, accum: str | None, dtype=None) -> dict:
    """Region-local replace/merge of GrB_assign (before the mask stage);
    an accumulator runs in C's *dtype*, as in :func:`ref_finalize_mat`."""
    out = dict(c)
    region = {(r, s) for r in rows for s in cols}
    if accum is None:
        for k in region:
            out.pop(k, None)
        for (i, j), v in a.items():
            out[(rows[i], cols[j])] = v
    else:
        f = _b(accum)
        for (i, j), v in a.items():
            k = (rows[i], cols[j])
            out[k] = f(c[k], v if dtype is None else _cast(v, dtype)) if k in c else v
    return out


def ref_assign_vec(c: dict, u: dict, indices, accum: str | None, dtype=None) -> dict:
    out = dict(c)
    if accum is None:
        for i in indices:
            out.pop(i, None)
        for i, v in u.items():
            out[indices[i]] = v
    else:
        f = _b(accum)
        for i, v in u.items():
            k = indices[i]
            out[k] = f(c[k], v if dtype is None else _cast(v, dtype)) if k in c else v
    return out


# ----------------------------------------------------------------------
# the output-write stage C<M, z> = C (accum) T
# ----------------------------------------------------------------------


def _mask_true(mask: dict | None, key) -> bool:
    return mask is not None and bool(mask.get(key, False))


def ref_finalize_vec(
    c: dict,
    t: dict,
    size: int,
    dtype,
    mask: dict | None,
    complement: bool,
    replace: bool,
    accum: str | None,
) -> dict:
    """Literal transliteration of the C API's masked accumulate-write; the
    accumulator runs in the output's domain (``T`` is cast into *dtype*
    first), as every engine's does."""
    if accum is not None:
        f = _b(accum)
        z = dict(c)
        for k, v in t.items():
            z[k] = f(c[k], _cast(v, dtype)) if k in c else v
    else:
        z = dict(t)
    out: dict = {}
    for i in range(size):
        if mask is None:
            in_mask = True
        else:
            in_mask = _mask_true(mask, i) != complement
        if in_mask:
            if i in z:
                out[i] = _cast(z[i], dtype)
        else:
            if not replace and i in c:
                out[i] = _cast(c[i], dtype)
    return out


def ref_finalize_mat(
    c: dict,
    t: dict,
    shape: tuple[int, int],
    dtype,
    mask: dict | None,
    complement: bool,
    replace: bool,
    accum: str | None,
) -> dict:
    if accum is not None:
        f = _b(accum)
        z = dict(c)
        for k, v in t.items():
            z[k] = f(c[k], _cast(v, dtype)) if k in c else v
    else:
        z = dict(t)
    out: dict = {}
    for i in range(shape[0]):
        for j in range(shape[1]):
            k = (i, j)
            if mask is None:
                in_mask = True
            else:
                in_mask = _mask_true(mask, k) != complement
            if in_mask:
                if k in z:
                    out[k] = _cast(z[k], dtype)
            else:
                if not replace and k in c:
                    out[k] = _cast(c[k], dtype)
    return out
