"""The write side of the data plane: buffered element writes and COO
builds that skip the sort they do not need.

* **programs** — random interleavings of ``m[i, j] = v`` / ``v[i] = x``
  with every kind of observation leave the container bit-identical
  (``indptr``, ``indices``, ``values``, dtype) to applying the
  ``assign_*_scalar`` kernel one write at a time, and equal to the
  dict-of-keys reference, on every engine × mode × OpenMP team size;
* **hazards** — whatever replaces or reads the store between writes
  sees them in program order, or drops them when they are dead;
* **cost** — a deterministic guard: k writes and one observation are 0
  engine dispatches and exactly 1 merge;
* **builds** — ``from_coo`` against the lexsort implementation it
  replaced, kept here as the oracle.
"""

from __future__ import annotations

import contextlib
import copy
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.backend import kernels as K
from repro.backend import ops_table
from repro.backend import reference as R
from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.core.dispatch import CountingEngine, make_engine
from repro.exceptions import DimensionMismatch, IndexOutOfBounds
from repro.jit.cppengine import toolchain_works

N = 12
DTYPES = [np.float64, np.int64, np.bool_]
ENGINES = ["interpreted", "pyjit"] + (["cpp"] if toolchain_works() else [])

config = pytest.mark.parametrize(
    "engine,mode,threads",
    [(e, m, t) for e in ENGINES for m in ("blocking", "nonblocking") for t in (None, 4)],
)


@contextlib.contextmanager
def _omp_threads(n):
    """Cap the C++ kernels' OpenMP team at *n* (they read ``PYGB_THREADS``
    on every call; the NumPy engines are single-threaded and ignore it)."""
    before = os.environ.get("PYGB_THREADS")
    os.environ["PYGB_THREADS"] = str(n)
    try:
        yield
    finally:
        if before is None:
            del os.environ["PYGB_THREADS"]
        else:
            os.environ["PYGB_THREADS"] = before


@contextlib.contextmanager
def _configured(engine, mode, threads):
    with contextlib.ExitStack() as stack:
        stack.enter_context(gb.use_engine(engine))
        if threads:
            stack.enter_context(_omp_threads(threads))
        if mode == "nonblocking":
            stack.enter_context(gb.nonblocking())
        yield


def _same(got, want):
    assert type(got.values) is np.ndarray and got.dtype == want.dtype
    if isinstance(want, SparseMatrix):
        assert got.shape == want.shape and np.array_equal(got.indptr, want.indptr)
    else:
        assert got.size == want.size
    assert np.array_equal(got.indices, want.indices)
    assert got.values.tobytes() == want.values.tobytes()


# values of every Python kind a program may write into any container dtype
# (finite and well inside int64, so every cast is defined)
written_values = st.one_of(
    st.booleans(),
    st.integers(-50, 50),
    st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 2)),
)


def _cast(value, dtype):
    return np.dtype(dtype).type(value).item()


@st.composite
def matrix_program(draw):
    dtype = draw(st.sampled_from(DTYPES))
    flat = draw(st.lists(st.integers(0, N * N - 1), max_size=40, unique=True))
    vals = draw(st.lists(written_values, min_size=len(flat), max_size=len(flat)))
    # positions come from a small pool so stored positions, fresh ones and
    # repeats within one buffer all turn up
    pool = draw(st.lists(st.integers(0, N * N - 1), min_size=1, max_size=6)) + flat[:3]
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), st.sampled_from(pool), written_values),
                st.tuples(
                    st.sampled_from(
                        ["nvals", "to_coo", "get", "isequal", "operand", "mask", "copy", "dup"]
                    ),
                    st.sampled_from(pool),
                    st.none(),
                ),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return dtype, flat, vals, steps


def _semiring(dtype):
    # exact in any fold order: the chaos CI legs make single dispatches fall
    # back to another engine, which may sum floats in another order
    return gb.LogicalSemiring if np.dtype(dtype) == np.bool_ else gb.MinPlusSemiring


def _observe_matrix(kind, m, oracle, pos):
    """Run one observation on the DSL container and the same one on a
    fresh container over the oracle store; they must agree."""
    i, j = divmod(pos, N)
    twin = gb.Matrix(oracle.copy())
    dtype = oracle.dtype
    if kind == "nvals":
        assert m.nvals == oracle.nvals
    elif kind == "to_coo":
        for got, want in zip(m.to_coo(), oracle.coo()):
            assert np.array_equal(got, want)
    elif kind == "get":
        assert m.get(i, j) == twin.get(i, j)
    elif kind == "isequal":
        assert m.isequal(twin)
    elif kind == "operand":
        u = gb.Vector(np.arange(1, N + 1).astype(dtype))
        got, want = (gb.Vector(shape=(N,), dtype=dtype) for _ in range(2))
        with _semiring(dtype):
            got[None] = m @ u
            want[None] = twin @ u
        _same(got._store, want._store)
    elif kind == "mask":
        a = gb.Matrix(np.arange(N * N, dtype=float).reshape(N, N))
        got, want = (gb.Matrix(shape=(N, N), dtype=float) for _ in range(2))
        got[m] = a
        want[twin] = a
        _same(got._store, want._store)
    elif kind == "copy":
        _same(gb.Matrix(m)._store, oracle)
    elif kind == "dup":
        _same(m.dup()._store, oracle)


class TestPrograms:
    @config
    @settings(max_examples=12, deadline=None)
    @given(program=matrix_program())
    def test_matrix(self, engine, mode, threads, program):
        dtype, flat, vals, steps = program
        rows, cols = [f // N for f in flat], [f % N for f in flat]
        with _configured(engine, mode, threads):
            start = np.array([_cast(v, dtype) for v in vals], dtype=dtype)
            m = gb.Matrix((start, (rows, cols)), shape=(N, N), dtype=dtype)
            oracle = SparseMatrix.from_coo(N, N, rows, cols, start, dtype)
            ref = oracle.to_dict()
            for kind, pos, value in steps:
                i, j = divmod(pos, N)
                if kind == "set":
                    m[i, j] = value
                    oracle = K.assign_mat_scalar(oracle, value, [i], [j], OpDesc())
                    ref = R.ref_assign_mat(ref, {(0, 0): _cast(value, dtype)}, [i], [j], None)
                else:
                    _observe_matrix(kind, m, oracle, pos)
                    _same(m._store, oracle)
            _same(m._store, oracle)
            assert m._store.to_dict() == ref

    @config
    @settings(max_examples=12, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        idx=st.lists(st.integers(0, N - 1), max_size=N, unique=True),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["set", "set", "nvals", "to_coo", "get", "operand", "mask", "dup"]),
                st.integers(0, N - 1),
                written_values,
            ),
            min_size=1,
            max_size=14,
        ),
    )
    def test_vector(self, engine, mode, threads, dtype, idx, steps):
        with _configured(engine, mode, threads):
            v = gb.Vector((np.ones(len(idx), dtype=dtype), idx), shape=(N,), dtype=dtype)
            oracle = SparseVector.from_coo(N, idx, np.ones(len(idx), dtype=dtype), dtype)
            ref = oracle.to_dict()
            for kind, i, value in steps:
                twin = gb.Vector(oracle.copy())
                if kind == "set":
                    v[i] = value
                    oracle = K.assign_vec_scalar(oracle, value, [i], OpDesc())
                    ref = R.ref_assign_vec(ref, {0: _cast(value, dtype)}, [i], None)
                    continue
                if kind == "nvals":
                    assert v.nvals == oracle.nvals
                elif kind == "to_coo":
                    assert np.array_equal(v.to_coo()[0], oracle.indices)
                elif kind == "get":
                    assert v.get(i) == twin.get(i)
                elif kind == "operand":
                    got, want = (gb.Vector(shape=(N,), dtype=dtype) for _ in range(2))
                    with _semiring(dtype):
                        got[None] = v * v
                        want[None] = twin * twin
                    _same(got._store, want._store)
                elif kind == "mask":
                    a = gb.Vector(np.arange(N, dtype=float))
                    got, want = (gb.Vector(shape=(N,), dtype=float) for _ in range(2))
                    got[v] = a
                    want[twin] = a
                    _same(got._store, want._store)
                elif kind == "dup":
                    _same(v.dup()._store, oracle)
                _same(v._store, oracle)
            _same(v._store, oracle)
            assert v._store.to_dict() == ref


# ----------------------------------------------------------------------
# hazards
# ----------------------------------------------------------------------


@pytest.fixture
def merges(monkeypatch):
    """Counts ``set_elements`` merges (both store kinds)."""
    calls = []
    for cls in (SparseMatrix, SparseVector):
        inner = cls.set_elements

        def counted(self, *args, _inner=inner):
            calls.append("matrix" if isinstance(self, SparseMatrix) else "vector")
            return _inner(self, *args)

        monkeypatch.setattr(cls, "set_elements", counted)
    return calls


def _graph(seed=5, nvals=60, dtype=float):
    rng = np.random.default_rng(seed)
    flat = rng.choice(N * N, size=nvals, replace=False)
    vals = rng.uniform(1, 9, size=nvals).astype(dtype)
    return gb.Matrix((vals, (flat // N, flat % N)), shape=(N, N), dtype=dtype)


class TestHazards:
    @config
    def test_full_overwrite_drops_the_buffer_unmerged(self, engine, mode, threads, merges):
        with _configured(engine, mode, threads):
            a, b = _graph(1), _graph(2)
            m, plain = _graph(3), _graph(3)
            m[0, 0] = 99.0
            m[5, 7] = 98.0
            with gb.MinPlusSemiring:  # exact in any fold order (chaos legs fall back)
                m[None] = a @ b
                plain[None] = a @ b
            _same(m._store, plain._store)
            assert merges == []

    @config
    def test_full_overwrite_reading_its_own_target_merges_first(self, engine, mode, threads):
        with _configured(engine, mode, threads):
            m, twin = _graph(3), _graph(3)
            m[0, 0] = 2.0
            twin._store = K.assign_mat_scalar(twin._store, 2.0, [0], [0], OpDesc())
            with gb.MinPlusSemiring:
                m[None] = m @ m
                twin[None] = twin @ twin
            _same(m._store, twin._store)

    @pytest.mark.parametrize("mode", ["blocking", "nonblocking"])
    def test_failed_overwrite_keeps_the_buffered_writes(self, mode):
        # interpreted: the engine that checks operand extents on every path
        with _configured("interpreted", mode, None):
            m = _graph(3)
            want = K.assign_mat_scalar(m._store, 4.0, [1], [2], OpDesc())
            m[1, 2] = 4.0
            with pytest.raises(DimensionMismatch):
                with gb.ArithmeticSemiring:
                    m[None] = gb.Matrix(shape=(N, N + 1)) @ gb.Matrix(shape=(N + 2, N))
            _same(m._store, want)

    @config
    def test_clear_drops_the_buffer(self, engine, mode, threads, merges):
        with _configured(engine, mode, threads):
            m = _graph(3)
            v = gb.Vector(np.arange(N, dtype=float))
            m[1, 1] = 5.0
            v[3] = 7.0
            m.clear()
            v.clear()
            m[2, 2] = 6.0
            assert m.to_coo()[2].tolist() == [6.0] and v.nvals == 0
            assert merges == ["matrix"]

    @config
    @pytest.mark.parametrize("statement", ["masked", "accumulated", "sliced", "row"])
    def test_kernel_assigns_see_earlier_element_writes(self, engine, mode, threads, statement):
        with _configured(engine, mode, threads):
            m, mask, a = _graph(3), _graph(4, nvals=30), _graph(6)
            want = K.assign_mat_scalar(m._store, 4.0, [1], [2], OpDesc())
            want = K.assign_mat_scalar(want, 3.0, [0], [0], OpDesc())
            m[1, 2] = 4.0
            m[0, 0] = 3.0
            if statement == "masked":
                m[mask] = a
                want = K.apply_mat(want, a._store, ("unary", "Identity"), OpDesc(mask=mask._store))
            elif statement == "accumulated":
                with gb.ArithmeticSemiring:
                    m[None] += a
                want = K.apply_mat(want, a._store, ("unary", "Identity"), OpDesc(accum="Plus"))
            elif statement == "sliced":
                m[0:3, 1:4] = 8.0
                want = K.assign_mat_scalar(want, 8.0, np.arange(0, 3), np.arange(1, 4), OpDesc())
            else:
                m[1, :] = 8.0
                want = K.assign_mat_scalar(want, 8.0, [1], np.arange(N), OpDesc())
            m[1, 2] = 1.5  # and a write after the kernel statement lands on its result
            want = K.assign_mat_scalar(want, 1.5, [1], [2], OpDesc())
            _same(m._store, want)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_copy_then_source_write_leaves_the_copy_alone(self, engine):
        with gb.use_engine(engine):
            u = gb.Vector(np.arange(N, dtype=float))
            w = gb.Vector(shape=(N,), dtype=float)
            before = u._store.copy()
            w[:] = u
            u[3] = 77.0
            _same(w._store, before)
            assert u[3] == 77.0 and u.nvals == N

    @config
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_takes_the_unmerged_writes_and_nothing_shared(self, engine, mode, threads, clone):
        with _configured(engine, mode, threads):
            m = _graph(3)
            v = gb.Vector(np.arange(N, dtype=float))
            want_m = K.assign_mat_scalar(m._store, 4.0, [1], [2], OpDesc())
            want_v = K.assign_vec_scalar(v._store, 9.0, [5], OpDesc())
            m[1, 2] = 4.0
            v[5] = 9.0
            m2, v2 = clone(m), clone(v)
            m[0, 0] = -1.0  # after the clone: must not reach it
            v[0] = -1.0
            del m, v
            _same(m2._store, want_m)
            _same(v2._store, want_v)


class TestBounds:
    @config
    def test_out_of_range_raises_at_the_statement(self, engine, mode, threads):
        with _configured(engine, mode, threads):
            m = _graph(3)
            v = gb.Vector(np.arange(N, dtype=float))
            want = K.assign_mat_scalar(m._store, 5.0, [1], [1], OpDesc())
            m[1, 1] = 5.0
            v[2] = 5.0
            buffered = copy.deepcopy((m._pending, v._pending))
            for bad in [(N, 0), (0, N), (-N - 1, 0), (0, -N - 1)]:
                with pytest.raises(IndexOutOfBounds):
                    m[bad] = 1.0
            for bad in (N, -N - 1):
                with pytest.raises(IndexOutOfBounds):
                    v[bad] = 1.0
            assert (m._pending, v._pending) == buffered
            _same(m._store, want)
            assert v[2] == 5.0 and v.nvals == N


class TestCost:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_writes_cost_no_dispatch_and_one_merge(self, engine, merges):
        eng = CountingEngine(make_engine(engine))
        rng = np.random.default_rng(0)
        with gb.use_engine(eng):
            m = _graph(3)
            v = gb.Vector(np.arange(40, dtype=float))
            for i, j in rng.integers(N, size=(16, 2)).tolist():
                m[i, j] = 1.0
            for i in rng.integers(40, size=16).tolist():
                v[i] = 1.0
            assert merges == []
            m.nvals, v.nvals
            assert sorted(merges) == ["matrix", "vector"]
            m.to_coo(), v.to_coo(), m.nvals
            assert len(merges) == 2
        assert eng.total == 0

    def test_buffer_never_outgrows_the_store(self, merges):
        # built up from nothing by element writes: the store doubles
        # between merges, so n writes take O(log n) of them
        v = gb.Vector(shape=(4096,), dtype=float)
        for i in range(1024):
            v[i] = float(i)
            pending = v._pending
            assert pending is None or len(pending) <= max(v._backing.nvals, 1)
        assert v.nvals == 1024 and len(merges) <= 12


# ----------------------------------------------------------------------
# builds: from_coo against the implementation it replaced
# ----------------------------------------------------------------------


def _fold(dup_op, keys_differ, arrays, v):
    """The duplicate fold shared by both old constructors."""
    boundary = np.empty(v.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = keys_differ
    starts = np.flatnonzero(boundary)
    if dup_op == "Second":
        v = v[np.append(starts[1:], v.size) - 1]
    elif dup_op == "First":
        v = v[starts]
    else:
        v = ops_table.segment_reduce_values(dup_op, v, starts).astype(v.dtype, copy=False)
    return [a[starts] for a in arrays], v


def _from_coo_lexsort(nrows, ncols, rows, cols, values, dtype, dup_op="Second"):
    """``SparseMatrix.from_coo`` as it was before the sort became optional
    (bounds check elided: callers pass in-range input)."""
    r = np.asarray(rows, dtype=np.int64).ravel()
    c = np.asarray(cols, dtype=np.int64).ravel()
    v = np.asarray(values).astype(dtype)
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], v[order]
    if r.size > 1:
        (r, c), v = _fold(dup_op, (r[1:] != r[:-1]) | (c[1:] != c[:-1]), (r, c), v)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    return SparseMatrix(nrows, ncols, np.cumsum(indptr), c, v)


def _vec_from_coo_argsort(size, idx, values, dtype, dup_op="Second"):
    i = np.asarray(idx, dtype=np.int64).ravel()
    v = np.asarray(values).astype(dtype)
    order = np.argsort(i, kind="stable")
    i, v = i[order], v[order]
    if i.size > 1:
        (i,), v = _fold(dup_op, i[1:] != i[:-1], (i,), v)
    return SparseVector(size, i, v)


def _coo_cases():
    rng = np.random.default_rng(11)
    flat = np.sort(rng.choice(N * N, size=50, replace=False))
    r, c, v = flat // N, flat % N, rng.uniform(-5, 5, size=50)
    perm = rng.permutation(50)
    dup = rng.integers(0, 50, size=120)
    return {
        "sorted": (r, c, v),
        "reversed": (r[::-1], c[::-1], v[::-1]),
        "shuffled": (r[perm], c[perm], v[perm]),
        "duplicates": (r[dup], c[dup], rng.uniform(-5, 5, size=120)),
        "empty": (r[:0], c[:0], v[:0]),
        "single": (r[:1], c[:1], v[:1]),
        "lists": (r.tolist(), c.tolist(), v.tolist()),
    }


class TestFromCoo:
    @pytest.mark.parametrize("dup_op", ["Second", "First", "Plus"])
    @pytest.mark.parametrize("case", sorted(_coo_cases()))
    def test_matrix_matches_the_lexsort_build(self, case, dup_op):
        r, c, v = _coo_cases()[case]
        got = SparseMatrix.from_coo(N, N, r, c, v, np.float64, dup_op)
        _same(got, _from_coo_lexsort(N, N, r, c, v, np.float64, dup_op))

    @pytest.mark.parametrize("dup_op", ["Second", "First", "Plus"])
    @pytest.mark.parametrize("case", sorted(_coo_cases()))
    def test_vector_matches_the_argsort_build(self, case, dup_op):
        r, c, v = _coo_cases()[case]
        idx = np.asarray(r) * N + np.asarray(c)
        got = SparseVector.from_coo(N * N, idx, v, np.float64, dup_op)
        _same(got, _vec_from_coo_argsort(N * N, idx, v, np.float64, dup_op))

    @settings(max_examples=60, deadline=None)
    @given(
        flat=st.lists(st.integers(0, N * N - 1), max_size=80),
        dtype=st.sampled_from([np.float64, np.int64]),
        dup_op=st.sampled_from(["Second", "First", "Plus", "Max"]),
    )
    def test_any_order_any_duplicates(self, flat, dtype, dup_op):
        flat = np.asarray(flat, dtype=np.int64)
        v = (np.arange(flat.size) % 7 - 3).astype(dtype)
        got = SparseMatrix.from_coo(N, N, flat // N, flat % N, v, dtype, dup_op)
        _same(got, _from_coo_lexsort(N, N, flat // N, flat % N, v, dtype, dup_op))

    def test_extent_whose_fused_key_overflows(self):
        wide = 2**62  # 3 * 2**62 does not fit int64
        r = np.array([2, 0, 2, 1, 0])
        c = np.array([wide - 1, 5, 0, wide - 1, 5])
        v = np.arange(5.0)
        got = SparseMatrix.from_coo(3, wide, r, c, v, np.float64)
        _same(got, _from_coo_lexsort(3, wide, r, c, v, np.float64))
        assert got.to_dict() == {(0, 5): 4.0, (1, wide - 1): 3.0, (2, 0): 2.0, (2, wide - 1): 0.0}
        m = gb.Matrix(got)
        m[1, wide - 2] = 9.0  # and the merge never forms a fused key
        assert m.get(1, wide - 2) == 9.0 and m.nvals == 5

    @pytest.mark.parametrize(
        "r,c", [([0, N], [0, 0]), ([0, 0], [0, N]), ([-1], [0]), ([0], [-1])]
    )
    def test_out_of_range_raises(self, r, c):
        with pytest.raises(IndexOutOfBounds):
            SparseMatrix.from_coo(N, N, r, c, np.ones(len(r)))

    def test_sorted_input_is_copied_not_adopted(self):
        r, c, v = (np.asarray(a) for a in _coo_cases()["sorted"])
        m = SparseMatrix.from_coo(N, N, r, c, v)
        u = SparseVector.from_coo(N * N, r * N + c, v)
        for store in (m, u):
            assert not np.shares_memory(store.values, v)
        assert not np.shares_memory(m.indices, c)
        v[:] = 0.0
        assert m.values.all() and u.values.all()


class TestTranspose:
    # 70 000 columns: too wide for the 16-bit sort key
    @pytest.mark.parametrize("ncols", [N + 3, 70_000])
    @settings(max_examples=30, deadline=None)
    @given(flat=st.lists(st.integers(0, N * (N + 3) - 1), max_size=90, unique=True))
    def test_one_key_sort_is_the_two_key_permutation(self, ncols, flat):
        flat = np.asarray(flat, dtype=np.int64) * (ncols // (N + 3))
        m = SparseMatrix.from_coo(N, ncols, flat // ncols, flat % ncols, flat.astype(float))
        rows, cols, vals = m.coo()
        order = np.lexsort((rows, cols))
        want = SparseMatrix.from_coo_sorted(ncols, N, cols[order], rows[order], vals[order])
        _same(m.transposed(), want)
