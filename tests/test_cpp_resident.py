"""Resident operands on the cpp engine.

The engine keeps no per-call marshalling: stores carry a memoised
argument pack, the C++ side reads the caller's buffers through views,
vector results are written into NumPy-owned buffers and matrix results
are fetched once from a ``thread_local`` holder.  These tests pin the
ownership and lifetime rules that design rests on; arithmetic is covered
by the differential suites.
"""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

import repro as gb
from repro import guard
from repro.backend import ffipack
from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine
from repro.exceptions import OperationCancelled
from repro.io.generators import erdos_renyi
from repro.jit.cache import JitCache
from repro.jit.cppengine import toolchain_works

pytestmark = [
    pytest.mark.cpp,
    pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
]

N = 40


@pytest.fixture(scope="module")
def cpp():
    from repro.jit.cppengine import CppJitEngine

    return CppJitEngine()


@pytest.fixture(scope="module")
def interp():
    return InterpretedEngine()


@pytest.fixture
def graph():
    return erdos_renyi(N, nedges=300, seed=11, weighted=True, dtype=float)._store


@pytest.fixture
def dense_vec(rng):
    return SparseVector.from_dense(rng.uniform(1, 2, N))


def _arrays(store):
    if isinstance(store, SparseMatrix):
        return store.indptr, store.indices, store.values
    return store.indices, store.values


def _same(a, b):
    assert isinstance(a, SparseMatrix) == isinstance(b, SparseMatrix)
    for x, y in zip(_arrays(a), _arrays(b)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@pytest.fixture
def pack_log(monkeypatch):
    """Value arrays of every pack constructed while the fixture is live."""
    built = []
    init = ffipack.ArgPack.__init__

    def counting(self, dims, index_arrays, values, tail=()):
        built.append(values)
        init(self, dims, index_arrays, values, tail)

    monkeypatch.setattr(ffipack.ArgPack, "__init__", counting)
    return built


# ----------------------------------------------------------------------
# (a) outputs are NumPy-owned
# ----------------------------------------------------------------------
class TestOutputsOwnTheirMemory:
    def test_vector_and_matrix_results_outlive_the_library(self, graph, dense_vec, tmp_path):
        from repro.jit.cppengine import CppJitEngine

        cache = JitCache(tmp_path)
        eng = CppJitEngine(cache)
        sparse = SparseVector.from_coo(N, [3], [1.0])
        results = [
            eng.mxv(SparseVector.empty(N, float), graph, dense_vec, "Plus", "Times", OpDesc()),
            # one stored entry: trimmed by copy, not a view of an N-long buffer
            eng.ewise_mult_vec(SparseVector.empty(N, float), sparse, dense_vec, "Times", OpDesc()),
            eng.mxm(SparseMatrix.empty(N, N, float), graph, graph, "Plus", "Times", OpDesc()),
        ]
        assert results[1].nvals == 1 and results[1].values.base is None
        saved = [[a.copy() for a in _arrays(r)] for r in results]
        for r in results:
            for arr in _arrays(r):
                assert arr.base is None or isinstance(arr.base, np.ndarray)
                assert arr.flags.writeable
        del eng
        cache.clear_memory()
        gc.collect()
        for r, copies in zip(results, saved):
            for arr, copy in zip(_arrays(r), copies):
                np.testing.assert_array_equal(arr, copy)


# ----------------------------------------------------------------------
# (b) packs are built once per store; a mutated container gets a new one
# ----------------------------------------------------------------------
class TestPackReuse:
    def test_same_store_marshals_once(self, cpp, graph, dense_vec, pack_log):
        out = SparseVector.empty(N, float)
        first = cpp.mxv(out, graph, dense_vec, "Plus", "Times", OpDesc())
        assert sum(v is graph.values for v in pack_log) == 1
        del pack_log[:]
        second = cpp.mxv(out, graph, dense_vec, "Plus", "Times", OpDesc())
        assert pack_log == []  # graph, vector and output all resident
        _same(first, second)

    def test_transpose_and_masks_marshal_once(self, cpp, graph, dense_vec, pack_log):
        mask = SparseVector.from_coo(N, [1, 5, 9], [2.0, 0.0, 7.0])
        desc = OpDesc(mask=mask, complement=True, replace=True)
        out = SparseVector.empty(N, float)
        cpp.mxv(out, graph, dense_vec, "Min", "Plus", desc, ta=True)
        assert sum(v is graph.transposed().values for v in pack_log) == 1
        truth = mask.ffi_pack().mask_args()
        del pack_log[:]
        cpp.mxv(out, graph, dense_vec, "Min", "Plus", desc, ta=True)
        assert pack_log == []
        assert mask.ffi_pack().mask_args() is truth  # the truth view is built once too

    def test_dsl_mutation_gets_fresh_store_and_pack(self, pack_log, no_faults):
        # monolithic throughout: under the tiled CI leg containers would be
        # built row-blocked and the packs would belong to their tile views;
        # dense throughout: a push would pack the transpose's arrays instead
        with gb.tiled(tiles=1), gb.Scheduled("dense"):
            g = erdos_renyi(N, nedges=200, seed=5, weighted=True, dtype=float)
            u = gb.Vector((np.ones(N), np.arange(N)), shape=(N,), dtype=float)

            def product(engine):
                with gb.use_engine(engine), gb.MinPlusSemiring:  # exact in any fold order
                    w = gb.Vector(shape=(N,), dtype=float)
                    w[None] = g @ u
                    return w.to_coo()

            before_store = g._store
            before = product("cpp")
            assert sum(v is before_store.values for v in pack_log) == 1
            g[2, 3] = 5.0
            u[[0, 1]] = 3.0
            assert g._store is not before_store
            after = product("cpp")
            assert sum(v is g._store.values for v in pack_log) == 1
            expected = product("pyjit")
        for got, want in zip(after, expected):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(before[1], after[1])


# ----------------------------------------------------------------------
# (c) packs belong to one store and never keep it alive
# ----------------------------------------------------------------------
class TestPackOwnership:
    def test_copy_and_astype_do_not_share_packs(self, graph, dense_vec):
        for store in (graph, dense_vec):
            pack = store.ffi_pack()
            assert store.ffi_pack() is pack
            assert store.copy().ffi_pack() is not pack
            assert store.copy().ffi_pack().args != pack.args
            assert store.astype(np.float32).ffi_pack() is not pack

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SparseVector.from_coo(N, [1, 2], [1.5, 0.0]),
            lambda: SparseMatrix.from_coo(4, 4, [0, 1], [1, 2], [1.5, 0.0]),
        ],
        ids=["vector", "matrix"],
    )
    def test_pack_holds_no_reference_to_its_store(self, make):
        gc.disable()  # a cycle would survive `del` with the collector off
        try:
            store = make()
            refs = sys.getrefcount(store)
            store.ffi_pack()
            store.ffi_pack().mask_args()
            assert sys.getrefcount(store) == refs
            values = weakref.ref(store.values)
            del store
            assert values() is None  # store, pack and buffers all went
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["deepcopy", "pickle"],
    )
    def test_packs_do_not_travel_with_a_clone(self, cpp, interp, clone, no_faults):
        # a pack is raw addresses: carried along, it would point a clone
        # at the original's buffers (or another process's address space)
        n = 20_000
        with gb.tiled(tiles=1):
            g = erdos_renyi(N, nedges=300, seed=3, weighted=True, dtype=float)
            u = gb.Vector((np.full(n, 1000000.5), np.arange(n)), shape=(n,), dtype=float)
            m = gb.Vector(([2.0, 0.0, 7.0], [1, 5, 9]), shape=(N,), dtype=float)
        desc = OpDesc(mask=m._store, complement=True)
        x = SparseVector.from_dense(np.arange(1.0, N + 1))
        run = lambda eng, mat, d: eng.mxv(SparseVector.empty(N, float), mat, x, "Min", "Plus", d)
        total = cpp.reduce_vec_scalar(u._store, "Plus", "PlusIdentity")
        run(cpp, g._store, desc)  # graph and mask packs (truth view included) now exist
        g2, u2, m2 = clone(g), clone(u), clone(m)
        for c in (g2, u2, m2):
            assert c._store._ffi_cache is None
        del g, u, m, desc
        gc.collect()
        scribble = [np.full(n, -1.0) for _ in range(8)]  # reuse the freed blocks
        assert cpp.reduce_vec_scalar(u2._store, "Plus", "PlusIdentity") == total
        desc2 = OpDesc(mask=m2._store, complement=True)
        _same(run(cpp, g2._store, desc2), run(interp, g2._store, desc2))
        del scribble

    def test_pack_keeps_its_temporaries_alive(self):
        # int32 indices and strided values force private copies; the
        # addresses must stay valid for as long as the pack does
        v = SparseVector(
            N, np.array([1, 4, 6], dtype=np.int32), np.arange(6, dtype=float)[::2]
        )
        pack = v.ffi_pack()
        gc.collect()
        idx, vals = pack._buffers
        assert idx.dtype == np.int64 and vals.flags.c_contiguous
        assert pack.args == (N, idx.ctypes.data, vals.ctypes.data, 3)


# ----------------------------------------------------------------------
# (d) the matrix holder is per thread
# ----------------------------------------------------------------------
class TestConcurrentDispatch:
    def test_threads_share_one_kernel(self, cpp, graph, dense_vec):
        other = erdos_renyi(N, nedges=150, seed=23, weighted=True, dtype=float)._store
        mats = [graph, other, graph.transposed(), other.transposed()]

        def work(k):
            m = cpp.mxm(SparseMatrix.empty(N, N, float), mats[k], graph, "Plus", "Times", OpDesc())
            v = cpp.mxv(SparseVector.empty(N, float), mats[k], dense_vec, "Plus", "Times", OpDesc())
            return m, v

        serial = [work(k) for k in range(4)]
        failures = []

        def loop(k):
            try:
                for _ in range(200):
                    m, v = work(k)
                    _same(m, serial[k][0])
                    _same(v, serial[k][1])
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[0]

    def test_tiled_fan_out_is_bit_identical(self, no_faults):
        g = erdos_renyi(200, nedges=4000, seed=2, weighted=True, dtype=float)
        u = gb.Vector((np.linspace(1, 2, 200), np.arange(200)), shape=(200,), dtype=float)

        def run():
            with gb.use_engine("cpp"), gb.ArithmeticSemiring:
                w = gb.Vector(shape=(200,), dtype=float)
                w[None] = g @ u
                c = gb.Matrix(shape=(200, 200), dtype=float)
                c[None] = g @ g
                return w._store, c._store

        mono = run()
        with gb.tiled(tiles=4, workers=2):
            tiled = run()
        _same(mono[0], tiled[0])
        _same(mono[1], tiled[1])


# ----------------------------------------------------------------------
# (e) awkward operands, descriptors, cancellation
# ----------------------------------------------------------------------
class TestOperandForms:
    def test_strided_int32_and_bool_operands(self, cpp, interp, rng):
        dense = rng.random((N, N)) < 0.2
        r, c = np.nonzero(dense)
        ref = SparseMatrix.from_coo(N, N, r, c, np.ones(r.size, dtype=bool))
        # same matrix, every buffer in a form the kernel cannot read as is
        awkward = SparseMatrix(
            N,
            N,
            ref.indptr.astype(np.int32),
            np.repeat(ref.indices, 2)[::2].astype(np.int32),
            np.repeat(ref.values, 2)[::2],
        )
        assert not awkward.values.flags.c_contiguous
        frontier = SparseVector.from_coo(N, [0, 7, 9], [True, False, True])
        for a in (ref, awkward):
            got = cpp.mxv(
                SparseVector.empty(N, bool), a, frontier, "LogicalOr", "LogicalAnd", OpDesc()
            )
            want = interp.mxv(
                SparseVector.empty(N, bool), ref, frontier, "LogicalOr", "LogicalAnd", OpDesc()
            )
            _same(got, want)
            assert cpp.reduce_mat_scalar(a, "LogicalOr", None) == np.True_

    @pytest.mark.parametrize("size", [0, 1, N])
    def test_empty_operands(self, cpp, interp, size):
        a = SparseMatrix.empty(size, size, float)
        u = SparseVector.empty(size, float)
        for eng in (cpp, interp):
            w = eng.mxv(SparseVector.empty(size, float), a, u, "Plus", "Times", OpDesc())
            assert w.size == size and w.nvals == 0 and w.dtype == np.float64
            c = eng.mxm(SparseMatrix.empty(size, size, float), a, a, "Plus", "Times", OpDesc())
            assert c.shape == (size, size) and c.nvals == 0
            np.testing.assert_array_equal(c.indptr, np.zeros(size + 1, np.int64))
        assert cpp.reduce_vec_scalar(u, "Plus", None) == 0.0

    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("accum", [None, "Plus"])
    def test_masked_writes(self, cpp, interp, graph, dense_vec, rng, complement, replace, accum):
        keep = rng.random(N) < 0.5
        old = SparseVector.from_coo(N, np.flatnonzero(keep), rng.uniform(0, 1, keep.sum()))
        # a float mask with explicit zeros: truth is the value, not the pattern
        vmask = SparseVector.from_coo(N, np.arange(0, N, 2), rng.integers(0, 2, N // 2) * 1.5)
        desc = OpDesc(mask=vmask, complement=complement, replace=replace, accum=accum)
        _same(  # min-plus: exact whatever order the engines fold a row in
            cpp.mxv(old, graph, dense_vec, "Min", "Plus", desc),
            interp.mxv(old, graph, dense_vec, "Min", "Plus", desc),
        )
        mmask = graph.astype(np.int64)
        mdesc = OpDesc(mask=mmask, complement=complement, replace=replace, accum=accum)
        got = cpp.ewise_add_mat(graph, graph, graph.transposed(), "Plus", mdesc)
        want = interp.ewise_add_mat(graph, graph, graph.transposed(), "Plus", mdesc)
        _same(got, want)

    def test_cancellation_sentinel_on_both_result_paths(self, cpp, graph, dense_vec):
        def vec():
            return cpp.mxv(SparseVector.empty(N, float), graph, dense_vec, "Plus", "Times", OpDesc())

        def mat():
            return cpp.mxm(SparseMatrix.empty(N, N, float), graph, graph, "Plus", "Times", OpDesc())

        clean = vec(), mat()  # loads and registers both libraries
        with guard._CANCEL_LOCK:
            libs = list(guard._CANCEL_LIBS)
        for lib in libs:
            lib.pygb_request_cancel(1)
        try:
            with pytest.raises(OperationCancelled):
                vec()
            with pytest.raises(OperationCancelled):
                mat()
        finally:
            for lib in libs:
                lib.pygb_request_cancel(0)
        _same(vec(), clean[0])
        _same(mat(), clean[1])  # nothing stale was parked by the cancelled run

    def test_deadline_scope_fails_fast_then_recovers(self):
        g = erdos_renyi(N, nedges=200, seed=5, weighted=True, dtype=float)
        # min-plus is exact in any fold order, so a chaos-leg fallback to
        # another engine for one of the two products cannot move a bit
        with gb.use_engine("cpp"), gb.MinPlusSemiring:
            c = gb.Matrix(shape=(N, N), dtype=float)
            c[None] = g @ g
            with pytest.raises(OperationCancelled):
                with gb.deadline() as scope:
                    scope.cancel()
                    d = gb.Matrix(shape=(N, N), dtype=float)
                    d[None] = g @ g
            e = gb.Matrix(shape=(N, N), dtype=float)
            e[None] = g @ g
            assert e.isequal(c)


# ----------------------------------------------------------------------
# (f) Container.isequal keeps the dict-compare semantics
# ----------------------------------------------------------------------
def _vec(values, indices, dtype, size=8):
    return gb.Vector((values, indices), shape=(size,), dtype=dtype)


class TestIsEqual:
    def test_vectors(self):
        a = _vec([1, 2, 3], [0, 2, 4], np.int64)
        assert a.isequal(_vec([1, 2, 3], [0, 2, 4], np.int64))
        assert a.isequal(_vec([1.0, 2.0, 3.0], [0, 2, 4], np.float64))  # 1 == 1.0
        assert _vec([True, True], [0, 2], bool).isequal(_vec([1, 1], [0, 2], np.int8))
        assert not a.isequal(_vec([1, 2, 4], [0, 2, 4], np.int64))  # value
        assert not a.isequal(_vec([1, 2, 3], [0, 2, 5], np.int64))  # pattern
        assert not a.isequal(_vec([1, 2], [0, 2], np.int64))  # nvals
        assert not a.isequal(_vec([1, 2, 3], [0, 2, 4], np.int64, size=9))  # shape
        nan = _vec([np.nan, 1.0], [0, 1], np.float64)
        assert not nan.isequal(nan)  # NaN equals nothing, itself included
        # exact across dtypes, where NumPy's promotion to float64 would round
        big = _vec([2**53 + 1], [0], np.int64)
        assert not big.isequal(_vec([float(2**53)], [0], np.float64))
        assert _vec([], [], np.float64).isequal(_vec([], [], np.int32))

    def test_matrices(self):
        def mat(vals, rows, cols, dtype=np.int64, shape=(3, 4)):
            return gb.Matrix((vals, (rows, cols)), shape=shape, dtype=dtype)

        a = mat([1, 2, 3], [0, 1, 2], [1, 0, 3])
        assert a.isequal(mat([1, 2, 3], [0, 1, 2], [1, 0, 3]))
        assert a.isequal(mat([1.0, 2.0, 3.0], [0, 1, 2], [1, 0, 3], np.float32))
        assert not a.isequal(mat([1, 2, 3], [0, 1, 2], [1, 0, 2]))  # column moved
        assert not a.isequal(mat([1, 2, 3], [0, 1, 1], [1, 0, 3]))  # row moved
        assert not a.isequal(mat([1, 2, 9], [0, 1, 2], [1, 0, 3]))
        assert not a.isequal(mat([1, 2, 3], [0, 1, 2], [1, 0, 3], shape=(4, 4)))
        assert not a.isequal(_vec([1, 2, 3], [0, 2, 4], np.int64))

    def test_matches_the_dict_compare(self, rng):
        for _ in range(50):
            vals = rng.integers(0, 3, 4)
            a = _vec(vals, [0, 1, 2, 3], np.int64)
            b = _vec(rng.integers(0, 3, 4).astype(float), [0, 1, 2, 3], np.float64)
            assert a.isequal(b) == (a._store.to_dict() == b._store.to_dict())
