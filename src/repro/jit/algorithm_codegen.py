"""Whole-algorithm C++ module generation (paper Sec. VI, versions 2 & 3).

The paper's Fig. 10 compares three execution modes; the second is "Python
calls a complete C++ algorithm where the data between GBTL calls is
handled by C++", and the third is "native GBTL code timed in C++".  This
module generates one C++ translation unit per (algorithm, value-type)
for PageRank and triangle counting (BFS and SSSP are the kernel table's
``bfs_multi`` / ``sssp_multi`` rows, called from one source):
the full outer loop runs in C++ against the mini-GBTL kernels, and the
elapsed time of the algorithm proper is measured *inside* C++ with
``std::chrono`` and returned through an out-parameter.

A single compiled artifact therefore serves both measurement points:

* **version 2** — wall-clock around the Python call (includes the one FFI
  crossing and buffer marshalling);
* **version 3** — the ``elapsed_ns`` the C++ code itself reports
  (excludes all Python/FFI overhead, i.e. native timing).

It also realises the future-work item of Sec. V: "a series of operations
... compiled into a single binary module" — grouped compilation at
algorithm granularity.
"""

from __future__ import annotations

from ..exceptions import CompilationError
from .cppcodegen import cxx_name
from .spec import KernelSpec

__all__ = ["generate_algorithm_source", "ALGORITHM_GENERATORS"]

_PRELUDE = """
#include "gbtl_lite.hpp"
#include <vector>
using GB::Index;

// "no mask" for write_back_vec, whose mask type is deduced
static const GB::Vec<uint8_t>* const kNoMask = nullptr;

// the algorithm's result into the caller's n-long buffers; returns nnz
template <class T>
static Index emit_vec(const GB::Vec<T>& v, Index* out_idx, T* out_vals) {
    std::copy(v.idx.begin(), v.idx.end(), out_idx);
    std::copy(v.val.begin(), v.val.end(), out_vals);
    return static_cast<Index>(v.idx.size());
}
"""


def _header(spec: KernelSpec) -> str:
    return (
        f"// Auto-generated by the PyGB JIT (whole-algorithm module) — do not edit.\n"
        f"// spec: {spec.key}\n"
    )


def _gen_pagerank(spec: KernelSpec) -> str:
    vt = cxx_name(spec.get("vtype"))
    return (
        _header(spec)
        + _PRELUDE
        + f"""
using TV = {vt};  // rank type (double in the paper's Fig. 8)

extern "C" Index pygb_run(
    Index n, const Index* g_indptr, const Index* g_indices, const TV* g_vals,
    double damping, double threshold, int64_t max_iters,
    Index* out_idx, TV* out_vals, int64_t* elapsed_ns)
{{
    // the one input this module writes (row normalisation below): an
    // owning copy, since views over the caller's buffers are read-only
    const GB::CSRView<TV> g(n, n, g_indptr, g_indices, g_vals);
    GB::CSR<TV> m; m.nrows = n; m.ncols = n;
    m.indptr.insert(m.indptr.end(), g.indptr.begin(), g.indptr.end());
    m.indices.insert(m.indices.end(), g.indices.begin(), g.indices.end());
    m.values.insert(m.values.end(), g.values.begin(), g.values.end());
    const auto t0 = std::chrono::steady_clock::now();

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

    for (int64_t it = 0; it < max_iters; ++it) {{
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

    const auto t1 = std::chrono::steady_clock::now();
    *elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    return emit_vec(page_rank, out_idx, out_vals);
}}
"""
    )


def _gen_triangle_count(spec: KernelSpec) -> str:
    vt = cxx_name(spec.get("vtype"))
    return (
        _header(spec)
        + _PRELUDE
        + f"""
using TV = {vt};

extern "C" void pygb_run(
    Index n, const Index* l_indptr, const Index* l_indices, const TV* l_vals,
    const Index* lt_indptr, const Index* lt_indices, const TV* lt_vals,
    TV* out_triangles, int64_t* elapsed_ns)
{{
    const GB::CSRView<TV> L(n, n, l_indptr, l_indices, l_vals);
    const GB::CSRView<TV> LT(n, n, lt_indptr, lt_indices, lt_vals);
    const auto t0 = std::chrono::steady_clock::now();

    // B<L> = L ⊕.⊗ Lᵀ  (Fig. 5b), the mask pushed into the product
    // exactly as the per-operation mxm binding does
    std::vector<uint8_t> ltrue;
    ltrue.reserve(L.values.size());
    for (const TV x : L.values) ltrue.push_back(uint8_t(bool(x)));
    const GB::CSRView<uint8_t> lmask(n, n, l_indptr, l_indices, ltrue.data());
    auto t = GB::mxm<TV>(L, LT, GB::Plus<TV>{{}}, GB::Times<TV>{{}}, &lmask);
    GB::CSR<TV> empty; empty.nrows = n; empty.ncols = n;
    empty.indptr.assign(n + 1, 0);
    auto B = GB::write_back_mat<TV>(
        empty, std::move(t), &lmask, false, false, false, GB::Second<TV>{{}});
    *out_triangles = GB::reduce_values<TV>(B.values, GB::Plus<TV>{{}}, TV(0));

    const auto t1 = std::chrono::steady_clock::now();
    *elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
}}
"""
    )


ALGORITHM_GENERATORS = {
    "algo_pagerank": _gen_pagerank,
    "algo_triangle_count": _gen_triangle_count,
}


def generate_algorithm_source(spec: KernelSpec) -> str:
    try:
        gen = ALGORITHM_GENERATORS[spec.func]
    except KeyError:
        raise CompilationError(f"no algorithm generator for {spec.func!r}") from None
    return gen(spec)
