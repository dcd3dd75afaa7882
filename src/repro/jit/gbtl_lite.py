"""The bundled mini-GBTL C++17 header.

The paper compiles generated binding files against GBTL, the authors' C++
GraphBLAS template library.  GBTL is not vendored here, so this module
carries a from-scratch, self-contained replacement implementing the same
surface the binding files need: sparse containers (owning ones for
results and fused intermediates, non-owning views over the caller's
NumPy buffers for operands), the Fig. 6 operator functors under the
same names, and templated kernels for every operation
the C++ engine compiles (semiring mxv/vxm/mxm with dense-accumulator
Gustavson SpGEMM, sorted-merge eWise ops, apply/reduce, assign/extract,
and the shared masked accumulate-write stage).

The hot kernels carry OpenMP row-parallel implementations guarded by
``#ifdef _OPENMP``: the *same* header compiles both the serial artifact
(no ``-fopenmp``, pragmas ignored, original single-threaded loops) and
the parallel one (``-fopenmp``, chosen per spec by the ``cpp`` engine —
see ``PYGB_PARALLEL``/``PYGB_THREADS`` in ``cppengine``).  Row-parallel
kernels (mxv, mxm, eWise mat, apply, reduce_rows) fold each row in the
serial order and are bit-identical to the serial build for any thread
count; vxm and the scalar reductions re-associate across fixed blocks,
which for non-associative float ⊕ may differ from serial by ULPs (the
sparsity pattern is always identical).

The header text is written once into the JIT cache directory; per-spec
binding translation units ``#include`` it (see
:mod:`~repro.jit.cppcodegen`).
"""

from __future__ import annotations

__all__ = ["GBTL_LITE_HEADER", "HEADER_FILENAME"]

HEADER_FILENAME = "gbtl_lite.hpp"

GBTL_LITE_HEADER = r"""
// gbtl_lite.hpp — mini-GBTL for the PyGB reproduction. Auto-written; do not edit.
#pragma once
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>
#ifdef _OPENMP
#include <omp.h>
#endif

namespace GB {

using Index = int64_t;

// ---------------------------------------------------------------------
// kernel-time observability.  Every generated pygb_run stack-allocates a
// KernelTimer; its destructor stores the kernel's wall time (monotonic
// clock — clock_gettime(CLOCK_MONOTONIC) under the hood) in a
// thread-local slot the binding exposes through pygb_kernel_ns().  The
// Python tracer subtracts this from its own around-the-FFI-call timing
// to split marshalling overhead from compute (paper Figs. 7/8).
// ---------------------------------------------------------------------
inline int64_t& last_kernel_ns_ref() {
    thread_local int64_t ns = 0;
    return ns;
}

struct KernelTimer {
    std::chrono::steady_clock::time_point t0{std::chrono::steady_clock::now()};
    ~KernelTimer() {
        last_kernel_ns_ref() = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count();
    }
};

// edges examined by the most recent direction-optimized traversal kernel
// on this thread; push/pull binding TUs expose it through
// pygb_edges_examined() so the engine can feed the schedule-layer
// counters (the perf-trajectory metric behind the push/pull switch).
inline int64_t& edges_examined_ref() {
    thread_local int64_t edges = 0;
    return edges;
}

// ---------------------------------------------------------------------
// cooperative cancellation.  The Python watchdog thread asserts this flag
// through the FFI boundary (pygb_request_cancel) while a kernel runs on a
// DIFFERENT thread, so it must be one process-wide atomic per loaded
// library — NOT thread_local.  Long serial row sweeps poll it every 1024
// iterations and break; the generated writeback stage then returns the
// -2 sentinel instead of exporting a partial result (no C++ exception
// ever crosses an OpenMP region or the extern "C" frame — that would be
// undefined behaviour).  OpenMP-parallel paths run to completion (the
// masked mxm, one loop for both builds, stops per thread instead); the
// sentinel check after them still discards the result promptly.
// ---------------------------------------------------------------------
inline std::atomic<int64_t>& cancel_flag_ref() {
    static std::atomic<int64_t> flag{0};
    return flag;
}

inline bool cancel_requested() {
    return cancel_flag_ref().load(std::memory_order_relaxed) != 0;
}

// ---------------------------------------------------------------------
// threading runtime.  Serial artifacts are compiled from this same file
// without -fopenmp: the pragmas vanish and num_threads() pins to 1, so
// every kernel below takes its original single-threaded path.
// ---------------------------------------------------------------------
inline int num_threads() {
#ifdef _OPENMP
    // re-read each call so PYGB_THREADS can be flipped at runtime
    if (const char* s = std::getenv("PYGB_THREADS")) {
        char* end = nullptr;
        const long v = std::strtol(s, &end, 10);
        if (end != s && v > 0) return static_cast<int>(v);
    }
    return omp_get_max_threads();
#else
    return 1;
#endif
}

// ---------------------------------------------------------------------
// NumPy's bool: one byte holding 0 or 1.  Its own element type — not
// uint8_t, which is NumPy's uint8 and keeps wrapping — so that every
// conversion into it, from a wider operand, an operator's result or an
// accumulator's sum, is `value != 0` instead of a truncation to the low
// byte (256 -> false, 1 + 1 -> a raw 2 in a NumPy bool array).  Reads
// as bool, so arithmetic promotes to int and converts back on the store.
// ---------------------------------------------------------------------
struct Bool {
    uint8_t v;
    Bool() = default;
    template <class T, class = typename std::enable_if<std::is_arithmetic<T>::value>::type>
    Bool(T x) : v(x != T(0)) {}
    operator bool() const { return v != 0; }
};
static_assert(sizeof(Bool) == 1, "GB::Bool must alias one NumPy bool byte");

// ---------------------------------------------------------------------
// operator functors (names match GBTL's algebra.hpp / paper Fig. 6)
// ---------------------------------------------------------------------
template <class T> struct Plus  { T operator()(T a, T b) const { return a + b; } };
template <class T> struct Minus { T operator()(T a, T b) const { return a - b; } };
template <class T> struct Times { T operator()(T a, T b) const { return a * b; } };
template <class T> struct Div {
    T operator()(T a, T b) const { return b == T(0) ? T(0) : T(a / b); }
};
template <class T> struct Min { T operator()(T a, T b) const { return b < a ? b : a; } };
template <class T> struct Max { T operator()(T a, T b) const { return a < b ? b : a; } };
template <class T> struct First  { T operator()(T a, T) const { return a; } };
template <class T> struct Second { T operator()(T, T b) const { return b; } };
template <class T> struct LogicalOr {
    T operator()(T a, T b) const { return T(bool(a) || bool(b)); }
};
template <class T> struct LogicalAnd {
    T operator()(T a, T b) const { return T(bool(a) && bool(b)); }
};
template <class T> struct LogicalXor {
    T operator()(T a, T b) const { return T(bool(a) != bool(b)); }
};
template <class T> struct Equal    { T operator()(T a, T b) const { return T(a == b); } };
template <class T> struct NotEqual { T operator()(T a, T b) const { return T(a != b); } };
template <class T> struct GreaterThan  { T operator()(T a, T b) const { return T(a > b); } };
template <class T> struct LessThan     { T operator()(T a, T b) const { return T(a < b); } };
template <class T> struct GreaterEqual { T operator()(T a, T b) const { return T(a >= b); } };
template <class T> struct LessEqual    { T operator()(T a, T b) const { return T(a <= b); } };

template <class T> struct Identity        { T operator()(T a) const { return a; } };
template <class T> struct AdditiveInverse { T operator()(T a) const { return T(-a); } };
template <class T> struct LogicalNot      { T operator()(T a) const { return T(!bool(a)); } };
template <class T> struct MultiplicativeInverse {
    T operator()(T a) const { return a == T(0) ? T(0) : T(T(1) / a); }
};

// binary op with a bound constant (GBTL's BinaryOp_Bind1st / Bind2nd)
template <class T, class Op> struct Bind1st {
    T c; Op op;
    explicit Bind1st(T c_) : c(c_) {}
    T operator()(T a) const { return op(c, a); }
};
template <class T, class Op> struct Bind2nd {
    T c; Op op;
    explicit Bind2nd(T c_) : c(c_) {}
    T operator()(T a) const { return op(a, c); }
};

// ---------------------------------------------------------------------
// containers.  Two families with one read interface (indptr[i],
// indices.size(), .data(), begin()/end()):
//
//  * Vec / CSR own their storage (std::vector) — kernel results and the
//    intermediates of fused compositions;
//  * VecView / CSRView are pointer+length windows onto buffers the caller
//    owns (NumPy arrays kept alive by the Python side for the duration of
//    the call).  pygb_run wraps its operands in views instead of copying
//    them; the element type is const, so nothing can write through one.
//
// Every kernel below is a template over the container type and accepts
// either family.
// ---------------------------------------------------------------------
template <class T> struct Span {
    const T* ptr = nullptr;
    size_t len = 0;
    Span() = default;
    Span(const T* p, Index n) : ptr(p), len(static_cast<size_t>(n)) {}
    const T& operator[](size_t i) const { return ptr[i]; }
    size_t size() const { return len; }
    bool empty() const { return len == 0; }
    const T* data() const { return ptr; }
    const T* begin() const { return ptr; }
    const T* end() const { return ptr + len; }
};

template <class T> struct Vec {
    Index size = 0;
    std::vector<Index> idx;  // strictly increasing
    std::vector<T> val;
};

template <class T> struct VecView {
    Index size = 0;
    Span<Index> idx;
    Span<T> val;
    VecView() = default;
    VecView(Index size_, const Index* idx_, const T* val_, Index nnz)
        : size(size_), idx(idx_, nnz), val(val_, nnz) {}
};

template <class T> struct CSR {
    Index nrows = 0, ncols = 0;
    std::vector<Index> indptr;   // nrows + 1
    std::vector<Index> indices;  // sorted within each row
    std::vector<T> values;
};

template <class T> struct CSRView {
    Index nrows = 0, ncols = 0;
    Span<Index> indptr, indices;
    Span<T> values;
    CSRView() = default;
    CSRView(Index nrows_, Index ncols_, const Index* indptr_, const Index* indices_,
            const T* values_)
        : nrows(nrows_), ncols(ncols_), indptr(indptr_, nrows_ + 1),
          indices(indices_, indptr_[nrows_]), values(values_, indptr_[nrows_]) {}
};

// matrix-valued results: nnz is unknown before the kernel ran, so the
// binding parks the result in a thread_local CSR, returns nnz, and the
// caller fetches it into exactly-sized buffers with a second call.  The
// holder is thread_local because tile workers and server threads call
// the same shared object concurrently with the GIL released.
template <class T>
void fetch_csr(CSR<T>& held, Index* indptr, Index* indices, T* values) {
    std::copy(held.indptr.begin(), held.indptr.end(), indptr);
    std::copy(held.indices.begin(), held.indices.end(), indices);
    std::copy(held.values.begin(), held.values.end(), values);
    held = CSR<T>{};  // release the storage, not just the size
}

// ---------------------------------------------------------------------
// computational kernels (produce the raw result T of the C API pipeline)
// ---------------------------------------------------------------------

// w = A ⊕.⊗ u : dense-accumulator row sweep, O(nnz(A))
template <class TT, class MatA, class VecU, class AddOp, class MultOp>
Vec<TT> mxv(const MatA& A, const VecU& u, AddOp add, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
#ifdef _OPENMP
    if (num_threads() > 1 && A.nrows >= 256) {
        // row-parallel: each row folds in the serial order, so the result
        // is bit-identical to the serial build for any thread count
        std::vector<TT> racc(A.nrows);
        std::vector<uint8_t> rany(A.nrows, 0);
        #pragma omp parallel for schedule(dynamic, 512) num_threads(num_threads())
        for (Index i = 0; i < A.nrows; ++i) {
            TT acc{}; bool any = false;
            for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
                const Index j = A.indices[p];
                if (!up[j]) continue;
                const TT prod = mult(static_cast<TT>(A.values[p]), ud[j]);
                acc = any ? add(acc, prod) : prod;
                any = true;
            }
            racc[i] = acc; rany[i] = any;
        }
        for (Index i = 0; i < A.nrows; ++i)
            if (rany[i]) { out.idx.push_back(i); out.val.push_back(racc[i]); }
        return out;
    }
#endif
    for (Index i = 0; i < A.nrows; ++i) {
        if ((i & 1023) == 0 && cancel_requested()) break;
        TT acc{}; bool any = false;
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index j = A.indices[p];
            if (!up[j]) continue;
            const TT prod = mult(static_cast<TT>(A.values[p]), ud[j]);
            acc = any ? add(acc, prod) : prod;
            any = true;
        }
        if (any) { out.idx.push_back(i); out.val.push_back(acc); }
    }
    return out;
}

// w = u ⊕.⊗ A : scatter along the rows u touches, O(Σ nnz(A(k,:)))
template <class TT, class VecU, class MatA, class AddOp, class MultOp>
Vec<TT> vxm(const VecU& u, const MatA& A, AddOp add, MultOp mult) {
#ifdef _OPENMP
    const Index u_nnz = static_cast<Index>(u.idx.size());
    const int nt = num_threads();
    if (nt > 1 && u_nnz >= 64) {
        // each thread scatters a contiguous block of u's entries into a
        // private dense accumulator; blocks combine in block order, so
        // the output pattern is exactly the serial one and values only
        // re-associate across block boundaries (ULP-level for float ⊕)
        std::vector<std::vector<TT>> bacc(nt);
        std::vector<std::vector<uint8_t>> bhas(nt);
        #pragma omp parallel num_threads(nt)
        {
            const int t = omp_get_thread_num();
            auto& acc = bacc[t];
            auto& has = bhas[t];
            acc.assign(A.ncols, TT{});
            has.assign(A.ncols, 0);
            const Index lo = u_nnz * t / nt, hi = u_nnz * (t + 1) / nt;
            for (Index k = lo; k < hi; ++k) {
                const Index row = u.idx[k];
                const TT uv = static_cast<TT>(u.val[k]);
                for (Index p = A.indptr[row]; p < A.indptr[row + 1]; ++p) {
                    const Index j = A.indices[p];
                    const TT prod = mult(uv, static_cast<TT>(A.values[p]));
                    if (has[j]) acc[j] = add(acc[j], prod);
                    else { acc[j] = prod; has[j] = 1; }
                }
            }
        }
        Vec<TT> out; out.size = A.ncols;
        for (Index j = 0; j < A.ncols; ++j) {
            TT a{}; bool got = false;
            for (int t = 0; t < nt; ++t)
                if (bhas[t][j]) { a = got ? add(a, bacc[t][j]) : bacc[t][j]; got = true; }
            if (got) { out.idx.push_back(j); out.val.push_back(a); }
        }
        return out;
    }
#endif
    std::vector<TT> acc(A.ncols);
    std::vector<uint8_t> has(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        if ((k & 1023) == 0 && cancel_requested()) break;
        const Index row = u.idx[k];
        const TT uv = static_cast<TT>(u.val[k]);
        for (Index p = A.indptr[row]; p < A.indptr[row + 1]; ++p) {
            const Index j = A.indices[p];
            const TT prod = mult(uv, static_cast<TT>(A.values[p]));
            if (has[j]) acc[j] = add(acc[j], prod);
            else { acc[j] = prod; has[j] = 1; }
        }
    }
    Vec<TT> out; out.size = A.ncols;
    for (Index j = 0; j < A.ncols; ++j)
        if (has[j]) { out.idx.push_back(j); out.val.push_back(acc[j]); }
    return out;
}

// w<cand> = A ⊕.⊗ u over candidate rows only — the pull (gather)
// direction of a direction-optimized traversal.  Candidate rows are the
// positions the write mask can accept, so entries the masked finalize
// would discard are never computed.  Each row folds its present
// neighbours in stored (ascending-column) order, exactly as mxv()'s row
// sweep, so surviving entries are bit-identical to the dense form.
template <class TT, class MatA, class VecU, class AddOp, class MultOp>
Vec<TT> mxv_pull(const MatA& A, const VecU& u,
                 const Index* cand, Index n_cand, AddOp add, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
    int64_t edges = 0;
    for (Index c = 0; c < n_cand; ++c) {
        if ((c & 1023) == 0 && cancel_requested()) break;
        const Index i = cand[c];
        edges += A.indptr[i + 1] - A.indptr[i];
        TT acc{}; bool any = false;
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index j = A.indices[p];
            if (!up[j]) continue;
            const TT prod = mult(static_cast<TT>(A.values[p]), ud[j]);
            acc = any ? add(acc, prod) : prod;
            any = true;
        }
        if (any) { out.idx.push_back(i); out.val.push_back(acc); }
    }
    edges_examined_ref() = edges;
    return out;
}

// Early-exiting pull for the LogicalOr add monoid (Beamer's bottom-up
// BFS step): a candidate row is finished at its first true product.  An
// output entry exists iff the row has any present neighbour (even an
// all-false one — implied-zero semantics of the full reduction) and its
// value is the OR of the products, so the result is independent of where
// the scan stops.  Neighbours are counted in the same geometrically
// growing blocks (4, 8, ... 4096) as the vectorised Python primitive
// spmv_pull_logical, and a row that retires mid-block still counts the
// whole block — the deterministic edges-examined figure is therefore
// identical across all three engines.
template <class TT, class MatA, class VecU, class MultOp>
Vec<TT> mxv_pull_or(const MatA& A, const VecU& u,
                    const Index* cand, Index n_cand, MultOp mult) {
    std::vector<TT> ud(A.ncols);
    std::vector<uint8_t> up(A.ncols, 0);
    for (size_t k = 0; k < u.idx.size(); ++k) {
        ud[u.idx[k]] = static_cast<TT>(u.val[k]);
        up[u.idx[k]] = 1;
    }
    Vec<TT> out; out.size = A.nrows;
    int64_t edges = 0;
    for (Index c = 0; c < n_cand; ++c) {
        if ((c & 1023) == 0 && cancel_requested()) break;
        const Index i = cand[c];
        Index cur = A.indptr[i];
        const Index end = A.indptr[i + 1];
        bool seen = false, hit = false;
        Index block = 4;
        while (cur < end && !hit) {
            Index take = end - cur;
            if (take > block) take = block;
            edges += take;
            for (Index p = cur; p < cur + take; ++p) {
                const Index j = A.indices[p];
                if (!up[j]) continue;
                seen = true;
                if (bool(mult(static_cast<TT>(A.values[p]), ud[j]))) hit = true;
            }
            cur += take;
            block = block * 2 > 4096 ? 4096 : block * 2;
        }
        if (seen) { out.idx.push_back(i); out.val.push_back(static_cast<TT>(hit)); }
    }
    edges_examined_ref() = edges;
    return out;
}

// C = A ⊕.⊗ B : Gustavson with a dense per-row workspace.  With a write
// mask (the caller passes one only when it is not complemented), row i
// accumulates into the true columns of mask row i alone: C<M,z> = C ⊙ T
// reads T only where M is true, whatever accum and replace say, so the
// rest of the product is never formed.  Products for one (i,j) still
// fold in ascending k, so surviving entries are bit-identical to the
// full product's.  The touched columns are emitted by walking the mask
// row — sorted without a sort — into the slot mask.indptr bounds, so
// rows need no private buffers, only a compaction afterwards.
template <class TT, class MatA, class MatB, class AddOp, class MultOp,
          class MatM = CSRView<uint8_t>>
CSR<TT> mxm(const MatA& A, const MatB& B, AddOp add, MultOp mult,
            const MatM* mask = nullptr) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = B.ncols;
    out.indptr.assign(A.nrows + 1, 0);
    if (mask) {
        out.indices.resize(mask->indices.size());
        out.values.resize(mask->indices.size());
        std::vector<Index> count(A.nrows, 0);
        #pragma omp parallel num_threads(A.nrows >= 64 ? num_threads() : 1)
        {
            std::vector<TT> acc(B.ncols);
            // 0: column closed to this row, 1: open, 2: acc holds a partial fold
            std::vector<uint8_t> state(B.ncols, 0);
            bool cancelled = false;  // per thread: a loop under omp for cannot break
            #pragma omp for schedule(dynamic, 64)
            for (Index i = 0; i < A.nrows; ++i) {
                if ((i & 1023) == 0 && cancel_requested()) cancelled = true;
                if (cancelled) continue;
                const Index lo = mask->indptr[i], hi = mask->indptr[i + 1];
                for (Index p = lo; p < hi; ++p)
                    if (mask->values[p]) state[mask->indices[p]] = 1;
                for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
                    const Index k = A.indices[p];
                    const TT av = static_cast<TT>(A.values[p]);
                    for (Index q = B.indptr[k]; q < B.indptr[k + 1]; ++q) {
                        const Index j = B.indices[q];
                        if (!state[j]) continue;
                        const TT prod = mult(av, static_cast<TT>(B.values[q]));
                        if (state[j] == 2) acc[j] = add(acc[j], prod);
                        else { state[j] = 2; acc[j] = prod; }
                    }
                }
                Index w = lo;
                for (Index p = lo; p < hi; ++p) {
                    const Index j = mask->indices[p];
                    if (state[j] == 2) { out.indices[w] = j; out.values[w++] = acc[j]; }
                    state[j] = 0;
                }
                count[i] = w - lo;
            }
        }
        Index w = 0;
        for (Index i = 0; i < A.nrows; ++i) {
            const Index lo = mask->indptr[i];
            if (w != lo) {  // slide the row down over the slots earlier rows left unused
                std::copy(out.indices.begin() + lo, out.indices.begin() + lo + count[i],
                          out.indices.begin() + w);
                std::copy(out.values.begin() + lo, out.values.begin() + lo + count[i],
                          out.values.begin() + w);
            }
            w += count[i];
            out.indptr[i + 1] = w;
        }
        out.indices.resize(w);
        out.values.resize(w);
        return out;
    }
#ifdef _OPENMP
    if (num_threads() > 1 && A.nrows >= 64) {
        // parallel Gustavson: per-thread dense workspace, per-row result
        // buffers, then a prefix-sum stitch — rows compute in the serial
        // operation order, so the product is bit-identical to serial
        std::vector<std::vector<Index>> ridx(A.nrows);
        std::vector<std::vector<TT>> rval(A.nrows);
        #pragma omp parallel num_threads(num_threads())
        {
            std::vector<TT> acc(B.ncols);
            std::vector<Index> mark(B.ncols, -1);
            std::vector<Index> touched;
            #pragma omp for schedule(dynamic, 64)
            for (Index i = 0; i < A.nrows; ++i) {
                touched.clear();
                for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
                    const Index k = A.indices[p];
                    const TT av = static_cast<TT>(A.values[p]);
                    for (Index q = B.indptr[k]; q < B.indptr[k + 1]; ++q) {
                        const Index j = B.indices[q];
                        const TT prod = mult(av, static_cast<TT>(B.values[q]));
                        if (mark[j] == i) acc[j] = add(acc[j], prod);
                        else { mark[j] = i; acc[j] = prod; touched.push_back(j); }
                    }
                }
                std::sort(touched.begin(), touched.end());
                ridx[i].assign(touched.begin(), touched.end());
                rval[i].reserve(touched.size());
                for (const Index j : touched) rval[i].push_back(acc[j]);
            }
        }
        for (Index i = 0; i < A.nrows; ++i)
            out.indptr[i + 1] = out.indptr[i] + static_cast<Index>(ridx[i].size());
        out.indices.resize(out.indptr[A.nrows]);
        out.values.resize(out.indptr[A.nrows]);
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index i = 0; i < A.nrows; ++i) {
            std::copy(ridx[i].begin(), ridx[i].end(), out.indices.begin() + out.indptr[i]);
            std::copy(rval[i].begin(), rval[i].end(), out.values.begin() + out.indptr[i]);
        }
        return out;
    }
#endif
    std::vector<TT> acc(B.ncols);
    std::vector<Index> mark(B.ncols, -1);
    std::vector<Index> touched;
    for (Index i = 0; i < A.nrows; ++i) {
        if ((i & 1023) == 0 && cancel_requested()) break;
        touched.clear();
        for (Index p = A.indptr[i]; p < A.indptr[i + 1]; ++p) {
            const Index k = A.indices[p];
            const TT av = static_cast<TT>(A.values[p]);
            for (Index q = B.indptr[k]; q < B.indptr[k + 1]; ++q) {
                const Index j = B.indices[q];
                const TT prod = mult(av, static_cast<TT>(B.values[q]));
                if (mark[j] == i) acc[j] = add(acc[j], prod);
                else { mark[j] = i; acc[j] = prod; touched.push_back(j); }
            }
        }
        std::sort(touched.begin(), touched.end());
        for (const Index j : touched) {
            out.indices.push_back(j);
            out.values.push_back(acc[j]);
        }
        out.indptr[i + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

// eWiseAdd on vectors: union merge of two sorted coordinate lists
template <class TT, class VecU, class VecV, class Op>
Vec<TT> ewise_add(const VecU& u, const VecV& v, Op op) {
    Vec<TT> out; out.size = u.size;
    size_t i = 0, j = 0;
    while (i < u.idx.size() || j < v.idx.size()) {
        if (j >= v.idx.size() || (i < u.idx.size() && u.idx[i] < v.idx[j])) {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(static_cast<TT>(u.val[i]));
            ++i;
        } else if (i >= u.idx.size() || v.idx[j] < u.idx[i]) {
            out.idx.push_back(v.idx[j]);
            out.val.push_back(static_cast<TT>(v.val[j]));
            ++j;
        } else {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(op(static_cast<TT>(u.val[i]), static_cast<TT>(v.val[j])));
            ++i; ++j;
        }
    }
    return out;
}

// eWiseMult on vectors: intersection merge
template <class TT, class VecU, class VecV, class Op>
Vec<TT> ewise_mult(const VecU& u, const VecV& v, Op op) {
    Vec<TT> out; out.size = u.size;
    size_t i = 0, j = 0;
    while (i < u.idx.size() && j < v.idx.size()) {
        if (u.idx[i] < v.idx[j]) ++i;
        else if (v.idx[j] < u.idx[i]) ++j;
        else {
            out.idx.push_back(u.idx[i]);
            out.val.push_back(op(static_cast<TT>(u.val[i]), static_cast<TT>(v.val[j])));
            ++i; ++j;
        }
    }
    return out;
}

// matrix eWise ops: the vector merges applied row by row
template <class TT, class MatA, class MatB, class Op>
CSR<TT> ewise_add_mat(const MatA& A, const MatB& B, Op op) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr.assign(A.nrows + 1, 0);
#ifdef _OPENMP
    if (num_threads() > 1 && A.nrows >= 256) {
        // two-pass union merge: count per row, prefix-sum, fill at fixed
        // offsets — bit-identical to the serial merge
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index r = 0; r < A.nrows; ++r) {
            Index i = A.indptr[r], j = B.indptr[r], n = 0;
            const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
            while (i < ie || j < je) {
                if (j >= je || (i < ie && A.indices[i] < B.indices[j])) ++i;
                else if (i >= ie || B.indices[j] < A.indices[i]) ++j;
                else { ++i; ++j; }
                ++n;
            }
            out.indptr[r + 1] = n;
        }
        for (Index r = 0; r < A.nrows; ++r) out.indptr[r + 1] += out.indptr[r];
        out.indices.resize(out.indptr[A.nrows]);
        out.values.resize(out.indptr[A.nrows]);
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index r = 0; r < A.nrows; ++r) {
            Index i = A.indptr[r], j = B.indptr[r], w = out.indptr[r];
            const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
            while (i < ie || j < je) {
                if (j >= je || (i < ie && A.indices[i] < B.indices[j])) {
                    out.indices[w] = A.indices[i];
                    out.values[w] = static_cast<TT>(A.values[i]);
                    ++i;
                } else if (i >= ie || B.indices[j] < A.indices[i]) {
                    out.indices[w] = B.indices[j];
                    out.values[w] = static_cast<TT>(B.values[j]);
                    ++j;
                } else {
                    out.indices[w] = A.indices[i];
                    out.values[w] =
                        op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j]));
                    ++i; ++j;
                }
                ++w;
            }
        }
        return out;
    }
#endif
    for (Index r = 0; r < A.nrows; ++r) {
        Index i = A.indptr[r], j = B.indptr[r];
        const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
        while (i < ie || j < je) {
            if (j >= je || (i < ie && A.indices[i] < B.indices[j])) {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(static_cast<TT>(A.values[i]));
                ++i;
            } else if (i >= ie || B.indices[j] < A.indices[i]) {
                out.indices.push_back(B.indices[j]);
                out.values.push_back(static_cast<TT>(B.values[j]));
                ++j;
            } else {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(
                    op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j])));
                ++i; ++j;
            }
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

template <class TT, class MatA, class MatB, class Op>
CSR<TT> ewise_mult_mat(const MatA& A, const MatB& B, Op op) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr.assign(A.nrows + 1, 0);
#ifdef _OPENMP
    if (num_threads() > 1 && A.nrows >= 256) {
        // two-pass intersection merge, same stitch as ewise_add_mat
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index r = 0; r < A.nrows; ++r) {
            Index i = A.indptr[r], j = B.indptr[r], n = 0;
            const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
            while (i < ie && j < je) {
                if (A.indices[i] < B.indices[j]) ++i;
                else if (B.indices[j] < A.indices[i]) ++j;
                else { ++i; ++j; ++n; }
            }
            out.indptr[r + 1] = n;
        }
        for (Index r = 0; r < A.nrows; ++r) out.indptr[r + 1] += out.indptr[r];
        out.indices.resize(out.indptr[A.nrows]);
        out.values.resize(out.indptr[A.nrows]);
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index r = 0; r < A.nrows; ++r) {
            Index i = A.indptr[r], j = B.indptr[r], w = out.indptr[r];
            const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
            while (i < ie && j < je) {
                if (A.indices[i] < B.indices[j]) ++i;
                else if (B.indices[j] < A.indices[i]) ++j;
                else {
                    out.indices[w] = A.indices[i];
                    out.values[w] =
                        op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j]));
                    ++i; ++j; ++w;
                }
            }
        }
        return out;
    }
#endif
    for (Index r = 0; r < A.nrows; ++r) {
        Index i = A.indptr[r], j = B.indptr[r];
        const Index ie = A.indptr[r + 1], je = B.indptr[r + 1];
        while (i < ie && j < je) {
            if (A.indices[i] < B.indices[j]) ++i;
            else if (B.indices[j] < A.indices[i]) ++j;
            else {
                out.indices.push_back(A.indices[i]);
                out.values.push_back(
                    op(static_cast<TT>(A.values[i]), static_cast<TT>(B.values[j])));
                ++i; ++j;
            }
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

// out[k] = TT(f(in[k])) over n stored values: the whole of `apply`,
// which never drops or creates an entry.  f converts its argument to the
// type it computes at (the output's, or for a bound operator whose
// operand and constant promote to another type, that one) and its result
// converts last.  An unmasked, unaccumulated apply_mat binding calls this
// straight into a caller-owned buffer and shares the operand's
// indptr/indices on the Python side.  Element-parallel map: trivially
// bit-identical.
template <class TT, class TA, class F>
void apply_values(const TA* in, Index n, F f, TT* out) {
    #pragma omp parallel for schedule(static) num_threads(num_threads()) if (n >= 4096)
    for (Index k = 0; k < n; ++k) out[k] = static_cast<TT>(f(in[k]));
}

// GBTL's normalize_rows helper (paper Fig. 8 line 16) as one pass per CSR
// row, into a caller-owned buffer on A's pattern: the row's stored values
// summed left to right in double from 0.0 (the order numpy's
// bincount(weights=) folds in, so both give the same bits; no pairwise
// or blocked sum), 1 where that sum is zero (the row stays as it is), and
// every value divided in double before its one conversion to TC.
template <class TC, class TA>
void normalize_rows(Index nrows, const Index* indptr, const TA* values, TC* out) {
    for (Index i = 0; i < nrows; ++i) {
        const Index lo = indptr[i], hi = indptr[i + 1];
        double s = 0.0;
        for (Index p = lo; p < hi; ++p) s += static_cast<double>(values[p]);
        if (s == 0.0) s = 1.0;
        for (Index p = lo; p < hi; ++p)
            out[p] = static_cast<TC>(static_cast<double>(values[p]) / s);
    }
}

template <class TT, class VecU, class F>
Vec<TT> apply_vec(const VecU& u, F f) {
    Vec<TT> out; out.size = u.size;
    out.idx.insert(out.idx.end(), u.idx.begin(), u.idx.end());
    out.val.resize(u.val.size());
    apply_values<TT>(u.val.data(), static_cast<Index>(u.val.size()), f, out.val.data());
    return out;
}

template <class TT, class MatA, class F>
CSR<TT> apply_mat(const MatA& A, F f) {
    CSR<TT> out; out.nrows = A.nrows; out.ncols = A.ncols;
    out.indptr.insert(out.indptr.end(), A.indptr.begin(), A.indptr.end());
    out.indices.insert(out.indices.end(), A.indices.begin(), A.indices.end());
    out.values.resize(A.values.size());
    apply_values<TT>(A.values.data(), static_cast<Index>(A.values.size()), f, out.values.data());
    return out;
}

template <class T, class Vals, class Op>
T reduce_values(const Vals& vals, Op op, T identity) {
    const Index n = static_cast<Index>(vals.size());
    if (n == 0) return identity;
#ifdef _OPENMP
    constexpr Index kChunk = Index(1) << 15;
    if (num_threads() > 1 && n > 2 * kChunk) {
        // fixed-size chunks folded left-to-right: deterministic for any
        // thread count (chunking depends only on the data length)
        const Index nchunks = (n + kChunk - 1) / kChunk;
        std::vector<T> partial(nchunks);
        #pragma omp parallel for schedule(static) num_threads(num_threads())
        for (Index c = 0; c < nchunks; ++c) {
            const Index lo = c * kChunk;
            const Index hi = std::min(n, lo + kChunk);
            T a = vals[lo];
            for (Index k = lo + 1; k < hi; ++k) a = op(a, vals[k]);
            partial[c] = a;
        }
        T acc = partial[0];
        for (Index c = 1; c < nchunks; ++c) acc = op(acc, partial[c]);
        return acc;
    }
#endif
    T acc = vals[0];
    for (Index i = 1; i < n; ++i) acc = op(acc, vals[i]);
    return acc;
}

template <class TT, class MatA, class Op>
Vec<TT> reduce_rows(const MatA& A, Op op) {
    Vec<TT> out; out.size = A.nrows;
#ifdef _OPENMP
    if (num_threads() > 1 && A.nrows >= 256) {
        // row-parallel fold in serial order: bit-identical to serial
        std::vector<TT> racc(A.nrows);
        std::vector<uint8_t> rany(A.nrows, 0);
        #pragma omp parallel for schedule(dynamic, 512) num_threads(num_threads())
        for (Index i = 0; i < A.nrows; ++i) {
            const Index lo = A.indptr[i], hi = A.indptr[i + 1];
            if (lo == hi) continue;
            TT acc = static_cast<TT>(A.values[lo]);
            for (Index p = lo + 1; p < hi; ++p) acc = op(acc, static_cast<TT>(A.values[p]));
            racc[i] = acc; rany[i] = 1;
        }
        for (Index i = 0; i < A.nrows; ++i)
            if (rany[i]) { out.idx.push_back(i); out.val.push_back(racc[i]); }
        return out;
    }
#endif
    for (Index i = 0; i < A.nrows; ++i) {
        const Index lo = A.indptr[i], hi = A.indptr[i + 1];
        if (lo == hi) continue;
        TT acc = static_cast<TT>(A.values[lo]);
        for (Index p = lo + 1; p < hi; ++p) acc = op(acc, static_cast<TT>(A.values[p]));
        out.idx.push_back(i);
        out.val.push_back(acc);
    }
    return out;
}

// w(i) = u : embed u into positions idx (GrB_assign region map, no dedup —
// callers pass unique index lists)
template <class T>
Vec<T> scatter_vec(const Vec<T>& u, const Index* indices, Index n_indices, Index out_size) {
    Vec<T> out; out.size = out_size;
    std::vector<std::pair<Index, T>> items;
    items.reserve(u.idx.size());
    for (size_t k = 0; k < u.idx.size(); ++k)
        items.emplace_back(indices[u.idx[k]], u.val[k]);
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& it : items) { out.idx.push_back(it.first); out.val.push_back(it.second); }
    (void)n_indices;
    return out;
}

// ---------------------------------------------------------------------
// the masked accumulate-write stage: C<M, z> = C ⊙ T  (C API pipeline)
// ---------------------------------------------------------------------
// Writes the surviving entries straight into caller-owned buffers of
// capacity C.size (nnz(out) <= size is known before the call, so the
// Python side hands in NumPy arrays and no result is ever copied out)
// and returns their count.
template <class TC, class VecC, class VecT, class VecM, class AccumOp>
Index write_back_vec_into(const VecC& C, const VecT& T, const VecM* mask,
                          bool comp, bool replace, bool has_accum, AccumOp accum,
                          Index* out_idx, TC* out_val) {
    const Index n = C.size;
    // dense presence maps keep this O(n); vector sizes are graph-scale
    std::vector<uint8_t> c_has(n, 0), t_has(n, 0), m_true(n, 0);
    std::vector<TC> c_val(n);
    std::vector<TC> t_val(n);
    for (size_t k = 0; k < C.idx.size(); ++k) { c_has[C.idx[k]] = 1; c_val[C.idx[k]] = C.val[k]; }
    for (size_t k = 0; k < T.idx.size(); ++k) {
        t_has[T.idx[k]] = 1;
        t_val[T.idx[k]] = static_cast<TC>(T.val[k]);
    }
    if (mask)
        for (size_t k = 0; k < mask->idx.size(); ++k)
            if (mask->val[k]) m_true[mask->idx[k]] = 1;
    Index nnz = 0;
    for (Index i = 0; i < n; ++i) {
        // Z(i)
        bool z_has; TC z{};
        if (has_accum && c_has[i] && t_has[i]) { z_has = true; z = accum(c_val[i], t_val[i]); }
        else if (has_accum && c_has[i]) { z_has = true; z = c_val[i]; }
        else if (t_has[i]) { z_has = true; z = t_val[i]; }
        else { z_has = false; }
        const bool in_mask = mask ? (bool(m_true[i]) != comp) : true;
        if (in_mask) {
            if (z_has) { out_idx[nnz] = i; out_val[nnz++] = z; }
        } else if (!replace && c_has[i]) {
            out_idx[nnz] = i;
            out_val[nnz++] = c_val[i];
        }
    }
    return nnz;
}

// owning form, for whole-algorithm modules that keep the result in C++
template <class TC, class VecC, class VecT, class VecM, class AccumOp>
Vec<TC> write_back_vec(const VecC& C, const VecT& T, const VecM* mask,
                       bool comp, bool replace, bool has_accum, AccumOp accum) {
    Vec<TC> out; out.size = C.size;
    out.idx.resize(C.size);
    out.val.resize(C.size);
    const Index nnz = write_back_vec_into<TC>(C, T, mask, comp, replace, has_accum, accum,
                                              out.idx.data(), out.val.data());
    out.idx.resize(nnz);
    out.val.resize(nnz);
    return out;
}

// Matrix form.  T arrives by rvalue: with no mask and no accumulator
// nothing merges — C<> = T — so T's arrays become the result (values
// cast in one pass when TT != TC) and C is never read.  Otherwise each
// row is one merge over the C, T and mask rows, all sorted by the CSR
// invariant: O(nnz(C) + nnz(T) + nnz(M)), nothing sized by ncols.
template <class TC, class MatC, class TT, class MatM, class AccumOp>
CSR<TC> write_back_mat(const MatC& C, CSR<TT>&& T, const MatM* mask,
                       bool comp, bool replace, bool has_accum, AccumOp accum) {
    const Index nrows = C.nrows, ncols = C.ncols;
    CSR<TC> out; out.nrows = nrows; out.ncols = ncols;
    if (!mask && !has_accum) {
        out.indptr = std::move(T.indptr);
        out.indices = std::move(T.indices);
        if constexpr (std::is_same<TT, TC>::value) out.values = std::move(T.values);
        else out.values.assign(T.values.begin(), T.values.end());
        return out;
    }
    out.indptr.assign(nrows + 1, 0);
    auto emit = [&out](Index j, TC v) { out.indices.push_back(j); out.values.push_back(v); };
    for (Index r = 0; r < nrows; ++r) {
        Index pc = C.indptr[r], pt = T.indptr[r], pm = mask ? mask->indptr[r] : 0;
        const Index ec = C.indptr[r + 1], et = T.indptr[r + 1],
                    em = mask ? mask->indptr[r + 1] : 0;
        while (pc < ec || pt < et) {
            // next column of C ∪ T; ncols stands for an exhausted cursor
            const Index jc = pc < ec ? C.indices[pc] : ncols;
            const Index jt = pt < et ? T.indices[pt] : ncols;
            const Index j = std::min(jc, jt);
            const bool ch = jc == j, th = jt == j;
            while (pm < em && mask->indices[pm] < j) ++pm;
            const bool m_true = pm < em && mask->indices[pm] == j && mask->values[pm];
            const bool in_mask = !mask || m_true != comp;
            if (in_mask && th) {
                const TC tv = static_cast<TC>(T.values[pt]);
                emit(j, has_accum && ch ? accum(C.values[pc], tv) : tv);
            } else if (ch && (in_mask ? has_accum : !replace)) {
                // C's entry survives: inside the mask only through an
                // accumulator, outside it unless replace clears it
                emit(j, C.values[pc]);
            }
            pc += ch; pt += th;
        }
        out.indptr[r + 1] = static_cast<Index>(out.indices.size());
    }
    return out;
}

}  // namespace GB
"""
