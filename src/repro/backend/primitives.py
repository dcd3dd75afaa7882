"""Vectorised primitives shared by every backend kernel.

These are the NumPy equivalents of GBTL's internal template helpers: the
sorted-merge, segment-reduce, expansion and mask-filter routines out of
which the GraphBLAS operations are composed.  Kernels (and the JIT's
generated Python modules) call these with concrete callables/ufuncs bound,
so all per-element work happens inside NumPy.

Conventions
-----------
* Sparse vectors are ``(indices, values)`` pairs with strictly increasing
  ``indices``.
* Sparse matrix intermediates are flat *keys* ``row * ncols + col`` with
  parallel ``values``, strictly increasing — this keeps every matrix merge
  a 1-D sorted-array problem.  (Key encoding asserts ``nrows * ncols``
  fits in int64, which holds for any graph this library targets.)
* ``map2``/``map1`` arguments are elementwise callables (usually NumPy
  ufuncs); ``reduce_uf`` arguments are associative ufuncs used via
  ``reduceat`` over non-empty segments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "encode_keys",
    "decode_keys",
    "expand_ranges",
    "strictly_increasing",
    "overwrite_or_insert",
    "segment_starts",
    "segment_reduce",
    "coalesce",
    "in_sorted",
    "union_merge",
    "intersect_merge",
    "restrict",
    "finalize",
    "spgemm_expand",
    "spmv_gather",
    "spmv_push",
    "spmv_pull",
    "spmv_pull_logical",
]

_EMPTY_I = np.empty(0, dtype=np.int64)


def encode_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Flatten ``(row, col)`` coordinates to sortable int64 keys."""
    return rows * np.int64(ncols) + cols


def decode_keys(keys: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_keys`."""
    return keys // np.int64(ncols), keys % np.int64(ncols)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges ``[starts[i], starts[i]+counts[i])``.

    This is the core of expansion-based SpGEMM: it gathers, for every
    nonzero ``A(i, k)``, the positions of row ``k`` of ``B`` — without a
    Python-level loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(np.asarray(starts, dtype=np.int64), counts) + offsets


def strictly_increasing(keys: np.ndarray) -> bool:
    """True when *keys* is sorted with no duplicates — the O(n) test that
    lets a COO build skip its sort and duplicate fold."""
    return keys.size < 2 or bool((keys[1:] > keys[:-1]).all())


def overwrite_or_insert(indices, values, pos, limit, keys, vals):
    """Apply point writes whose slots are known: ``pos[k]`` is where
    ``keys[k]`` is, or belongs, in the sorted segment of *indices* ending
    at ``limit[k]`` (writes sorted, one per key).  Hits overwrite a copy
    of *values*, misses are inserted; returns the new ``(indices,
    values)`` — the inputs themselves where nothing changed — and the
    miss mask."""
    hit = pos < limit
    hit[hit] = indices[pos[hit]] == keys[hit]
    if hit.any():
        values = values.copy()
        values[pos[hit]] = vals[hit]
    miss = ~hit
    if miss.any():
        indices = np.insert(indices, pos[miss], keys[miss])
        values = np.insert(values, pos[miss], vals[miss])
    return indices, values, miss


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in *sorted_keys*."""
    if sorted_keys.size == 0:
        return _EMPTY_I
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def segment_reduce(
    reduce_uf: np.ufunc, values: np.ndarray, starts: np.ndarray, logical: bool = False
) -> np.ndarray:
    """Reduce *values* over the non-empty segments beginning at *starts*."""
    if values.size == 0:
        return values[:0]
    vals = values.astype(bool) if logical else values
    return reduce_uf.reduceat(vals, starts)


def coalesce(
    keys: np.ndarray, values: np.ndarray, reduce_uf: np.ufunc, logical: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Sort *keys* and combine duplicate keys' values with *reduce_uf*.

    Returns strictly-increasing keys with reduced values — the final step
    of expansion SpGEMM, where one output coordinate receives one product
    per shared inner index.
    """
    if keys.size == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    starts = segment_starts(keys)
    if starts.size == keys.size:  # already duplicate-free
        return keys, values
    return keys[starts], segment_reduce(reduce_uf, values, starts, logical)


def in_sorted(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Boolean membership of each *needle* in sorted, unique *haystack*."""
    if haystack.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos_clipped = np.minimum(pos, haystack.size - 1)
    return haystack[pos_clipped] == needles


def union_merge(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    map2,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """GraphBLAS ``eWiseAdd`` structure: the union of both patterns, with
    *map2* applied where both sides have an entry and values passing
    through unchanged where only one side does.

    *map2* receives ``(a_values, b_values)`` in that argument order, which
    matters for non-commutative operators such as ``Minus``.
    """
    if keys_a.size == 0:
        return keys_b.copy(), vals_b.astype(out_dtype, copy=True)
    if keys_b.size == 0:
        return keys_a.copy(), vals_a.astype(out_dtype, copy=True)
    common_dt = np.promote_types(vals_a.dtype, vals_b.dtype)
    keys = np.concatenate([keys_a, keys_b])
    vals = np.concatenate(
        [vals_a.astype(common_dt, copy=False), vals_b.astype(common_dt, copy=False)]
    )
    # stable sort keeps the A entry ahead of the B entry at equal keys
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    starts = segment_starts(keys)
    out_vals = vals[starts].astype(out_dtype, copy=True)
    # runs have length 1 or 2; length-2 runs are (A value, B value) pairs
    run_len = np.diff(np.append(starts, keys.size))
    pairs = starts[run_len == 2]
    if pairs.size:
        combined = map2(vals[pairs], vals[pairs + 1])
        out_vals[run_len == 2] = np.asarray(combined).astype(out_dtype, copy=False)
    return keys[starts], out_vals


def intersect_merge(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
    map2,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """GraphBLAS ``eWiseMult`` structure: the intersection of both
    patterns, with *map2* applied to each common entry."""
    if keys_a.size == 0 or keys_b.size == 0:
        return _EMPTY_I, np.empty(0, dtype=out_dtype)
    pos = np.searchsorted(keys_a, keys_b)
    valid = pos < keys_a.size
    match = np.zeros(keys_b.size, dtype=bool)
    match[valid] = keys_a[pos[valid]] == keys_b[valid]
    if not match.any():
        return _EMPTY_I, np.empty(0, dtype=out_dtype)
    a_sel = pos[match]
    out = map2(vals_a[a_sel], vals_b[match])
    return keys_b[match].copy(), np.asarray(out).astype(out_dtype, copy=False)


def restrict(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_keys: np.ndarray,
    complement: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep only entries whose key is in (or, complemented, *not* in)
    sorted *mask_keys*.  Complemented masks never densify: the complement
    is taken implicitly through the set operation."""
    member = in_sorted(keys, mask_keys)
    keep = ~member if complement else member
    return keys[keep], vals[keep]


def finalize(
    old_keys: np.ndarray,
    old_vals: np.ndarray,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    out_dtype: np.dtype,
    mask_keys: np.ndarray | None,
    complement: bool,
    replace: bool,
    accum_map2,
) -> tuple[np.ndarray, np.ndarray]:
    """The output-write stage shared by every GraphBLAS operation:
    ``C<M, z> = C (accum) T`` per the C API Specification.

    1. ``Z = accum(C, T)`` (an eWiseAdd-structured merge) when an
       accumulator is bound, else ``Z = T``;
    2. with no mask, ``C = Z``;
    3. with a mask, inside-mask entries come from ``Z`` (entries *absent*
       from ``Z`` inside the mask are deleted) and outside-mask entries are
       kept (merge) or dropped (*replace*).
    """
    if accum_map2 is not None:
        z_keys, z_vals = union_merge(
            old_keys, old_vals, t_keys, t_vals, accum_map2, out_dtype
        )
    else:
        z_keys, z_vals = t_keys, np.asarray(t_vals).astype(out_dtype, copy=False)
    if mask_keys is None:
        return z_keys, z_vals
    zin_keys, zin_vals = restrict(z_keys, z_vals, mask_keys, complement)
    if replace:
        return zin_keys, zin_vals
    out_keys, out_vals = restrict(old_keys, old_vals, mask_keys, not complement)
    out_vals = out_vals.astype(out_dtype, copy=False)
    if zin_keys.size == 0:
        return out_keys, out_vals
    if out_keys.size == 0:
        return zin_keys, zin_vals
    keys = np.concatenate([out_keys, zin_keys])
    vals = np.concatenate([out_vals, zin_vals])
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def spgemm_expand(
    a_rows: np.ndarray,
    a_cols: np.ndarray,
    a_vals: np.ndarray,
    b_indptr: np.ndarray,
    b_indices: np.ndarray,
    b_vals: np.ndarray,
    ncols_out: int,
    map2,
    reduce_uf: np.ufunc,
    out_dtype: np.dtype,
    logical: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Expansion (ESC: expand, sort, compress) SpGEMM over an arbitrary
    semiring: for every nonzero ``A(i, k)`` gather row ``k`` of B, multiply
    with *map2*, then coalesce duplicate output coordinates with
    *reduce_uf* — the ``⊕`` of the semiring.

    Returns sorted flat keys (``i * ncols_out + j``) and reduced values.
    """
    counts = (b_indptr[a_cols + 1] - b_indptr[a_cols]).astype(np.int64)
    pos = expand_ranges(b_indptr[a_cols], counts)
    if pos.size == 0:
        return _EMPTY_I, np.empty(0, dtype=out_dtype)
    out_rows = np.repeat(a_rows, counts)
    out_cols = b_indices[pos]
    prods = map2(np.repeat(a_vals, counts), b_vals[pos])
    keys = encode_keys(out_rows, out_cols, ncols_out)
    keys, vals = coalesce(keys, np.asarray(prods), reduce_uf, logical)
    return keys, vals.astype(out_dtype, copy=False)


def spmv_gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    nrows: int,
    x_dense: np.ndarray,
    x_present: np.ndarray,
    map2,
    reduce_uf: np.ufunc,
    out_dtype: np.dtype,
    logical: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse matrix × sparse vector over an arbitrary semiring.

    ``x`` arrives as a dense scatter (``x_dense``/``x_present``) so the
    per-nonzero gather is a single fancy index; products are then
    segment-reduced by row.  Rows with no surviving product produce no
    output entry (GraphBLAS implied-zero semantics).
    """
    sel = x_present[indices]
    if not sel.any():
        return _EMPTY_I, np.empty(0, dtype=out_dtype)
    rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))[sel]
    prods = map2(values[sel], x_dense[indices[sel]])
    starts = segment_starts(rows)
    out_vals = segment_reduce(reduce_uf, np.asarray(prods), starts, logical)
    return rows[starts], out_vals.astype(out_dtype, copy=False)


def spmv_push(
    s_indptr: np.ndarray,
    s_indices: np.ndarray,
    s_values: np.ndarray,
    u_indices: np.ndarray,
    u_values: np.ndarray,
    map2,
    reduce_uf: np.ufunc,
    out_dtype: np.dtype,
    logical: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frontier-driven scatter SpMV: walk only the rows of the *scatter*
    matrix (the transpose of the gather form) named by the stored entries
    of ``u``, examining ``Σ degree(frontier)`` edges instead of ``nnz``.

    *map2* receives ``(matrix_values, broadcast_u_values)``; callers
    wanting ``u ⊗ a`` order (``vxm``) swap inside their callable, exactly
    as the gather path does.  Bit-identity with :func:`spmv_gather`:
    frontier rows expand in ascending inner-index order and
    :func:`coalesce` sorts stably, so each output position reduces its
    products in the same ascending-``k`` order the row gather uses.

    Returns ``(indices, values, edges_examined)``.
    """
    counts = (s_indptr[u_indices + 1] - s_indptr[u_indices]).astype(np.int64)
    pos = expand_ranges(s_indptr[u_indices], counts)
    edges = int(pos.size)
    if edges == 0:
        return _EMPTY_I, np.empty(0, dtype=out_dtype), edges
    out_keys = s_indices[pos]
    prods = map2(s_values[pos], np.repeat(u_values, counts))
    keys, vals = coalesce(out_keys, np.asarray(prods), reduce_uf, logical)
    return keys, vals.astype(out_dtype, copy=False), edges


def spmv_pull(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    x_dense: np.ndarray,
    x_present: np.ndarray,
    map2,
    reduce_uf: np.ufunc,
    out_dtype: np.dtype,
    logical: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate-driven gather SpMV: like :func:`spmv_gather` but scanning
    only the (sorted) candidate *rows* the write mask can accept.

    Only valid under a mask — entries of ``t`` outside the write region
    are never computed, which the masked finalize never reads.  Per-row
    product order matches the full gather (ascending stored position),
    so surviving entries are bit-identical.

    Returns ``(indices, values, edges_examined)``.
    """
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    pos = expand_ranges(indptr[rows], counts)
    edges = int(pos.size)
    if edges == 0:
        return _EMPTY_I, np.empty(0, dtype=out_dtype), edges
    k = indices[pos]
    sel = x_present[k]
    if not sel.any():
        return _EMPTY_I, np.empty(0, dtype=out_dtype), edges
    out_rows = np.repeat(rows, counts)[sel]
    prods = map2(values[pos[sel]], x_dense[k[sel]])
    starts = segment_starts(out_rows)
    out_vals = segment_reduce(reduce_uf, np.asarray(prods), starts, logical)
    return out_rows[starts], out_vals.astype(out_dtype, copy=False), edges


def spmv_pull_logical(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    x_dense: np.ndarray,
    x_present: np.ndarray,
    map2,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Early-exiting pull for the ``LogicalOr`` add monoid (Beamer's
    bottom-up BFS step): a candidate row is finished at its first true
    product, so dense frontiers cost ``O(candidates)`` row scans of a few
    edges each instead of ``Σ degree(candidates)``.

    Rows are scanned in geometrically growing blocks (4, 8, … 4096
    edges), all still-active rows per pass in one vectorised step; a row
    retires when it produces a true product or exhausts its neighbours.
    The result is independent of the block schedule — an output entry
    exists iff the row has **any** present neighbour (even an all-false
    one, matching implied-zero semantics of the full reduction) and its
    boolean value is the OR of the products — so this is bit-identical
    to :func:`spmv_pull` with ``logical=True``.

    ``edges_examined`` counts gathered block entries (deterministic,
    block-granular — slightly above the per-edge count a sequential scan
    would report).

    Returns ``(indices, bool_values, edges_examined)``.
    """
    nact = rows.size
    if nact == 0:
        return _EMPTY_I, np.empty(0, dtype=bool), 0
    cur = indptr[rows].astype(np.int64, copy=True)
    end = indptr[rows + 1].astype(np.int64, copy=False)
    seen = np.zeros(nact, dtype=bool)  # any present neighbour
    hit = np.zeros(nact, dtype=bool)  # any true product
    active = np.flatnonzero(cur < end)
    edges = 0
    block = 4
    while active.size:
        take = np.minimum(end[active] - cur[active], block)
        pos = expand_ranges(cur[active], take)
        edges += int(pos.size)
        k = indices[pos]
        pres = x_present[k]
        prod_true = np.zeros(pos.size, dtype=bool)
        if pres.any():
            pv = map2(values[pos[pres]], x_dense[k[pres]])
            prod_true[pres] = np.asarray(pv).astype(bool)
        starts = np.empty(active.size, dtype=np.int64)
        starts[0] = 0
        np.cumsum(take[:-1], out=starts[1:])
        seen[active] |= np.logical_or.reduceat(pres, starts)
        hit[active] |= np.logical_or.reduceat(prod_true, starts)
        cur[active] += take
        active = active[~hit[active] & (cur[active] < end[active])]
        block = min(block * 2, 4096)
    return rows[seen], hit[seen], edges
