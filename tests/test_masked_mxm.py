"""What a matrix kernel of the cpp engine skips.

``GB::mxm`` forms only the part of the product a (non-complemented)
write mask can accept, ``GB::write_back_mat`` hands ``T`` through when
nothing merges into it and merges three sorted rows otherwise.  None of
that may be observable: results are compared *by bytes* against the dict
oracle (``backend/reference.py``) and against "whole product, then
``finalize_mat``" (the interpreted kernel), on the serial and the OpenMP
build.

Random operands hold small integers (as floats where the dtype is
float), so every dtype mix and association agrees exactly; the fold
order itself is pinned separately with values that do not associate.
"""

import contextlib
import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro import utilities
from repro.backend import kernels as K
from repro.backend import reference as R
from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.core.dispatch import InterpretedEngine
from repro.jit.cppcodegen import generate_cpp_source
from repro.jit.cppengine import toolchain_works
from repro.jit.spec import KernelSpec


def needs_cpp(test):
    """The module's guards (d) and (e) run everywhere, so the marks go on
    the tests that compile."""
    skip = pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
    return pytest.mark.cpp(skip(test))


@pytest.fixture(scope="module")
def cpp():
    from repro.jit.cppengine import CppJitEngine

    return CppJitEngine()


@pytest.fixture(scope="module")
def interp():
    return InterpretedEngine()


@contextlib.contextmanager
def _build(parallel: bool):
    """Select the serial or the ``par=1`` artifact (``$PYGB_PARALLEL`` is
    re-read per dispatch).  Not the ``monkeypatch`` fixture: Hypothesis
    re-enters the test body many times per fixture instance."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYGB_PARALLEL", "1" if parallel else "0")
        yield


def _store(d: dict, nrows: int, ncols: int, dtype) -> SparseMatrix:
    keys = sorted(d)
    return SparseMatrix.from_coo(
        nrows, ncols, [k[0] for k in keys], [k[1] for k in keys],
        np.asarray([d[k] for k in keys], dtype=dtype), dtype,
    )


def _same(got: SparseMatrix, want: SparseMatrix):
    assert got.shape == want.shape
    for x, y in zip((got.indptr, got.indices, got.values),
                    (want.indptr, want.indices, want.values)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
        assert x.tobytes() == y.tobytes()  # -0.0 and NaN payloads too


# ----------------------------------------------------------------------
# (a) masked mxm against both oracles
# ----------------------------------------------------------------------
B_, I_, F_ = np.dtype(np.bool_), np.dtype(np.int64), np.dtype(np.float64)

#: (A, B, C dtypes, add, mult, mask?, complement, replace, accum).  Every
#: row is one compiled spec per build, so the grid is a covering sample —
#: each flag and each accumulator on both sides of the push-down
#: (complement off: mask inside the product; on or no mask: whole
#: product), TT == TC and TT != TC — not the full cross product.
CONFIGS = [
    (F_, F_, F_, "Plus", "Times", True, False, False, None),  # triangle counting's shape
    (I_, I_, I_, "Plus", "Times", True, False, True, "Plus"),
    (B_, B_, B_, "LogicalOr", "LogicalAnd", True, False, False, "Second"),
    (I_, F_, I_, "Plus", "Times", True, False, True, "Min"),
    (B_, B_, I_, "LogicalOr", "LogicalAnd", True, False, True, None),
    (F_, F_, F_, "Plus", "Times", True, True, False, "Plus"),
    (I_, I_, F_, "Plus", "Times", True, True, True, None),
    (F_, F_, F_, "Min", "Plus", False, False, False, "Min"),
    (I_, I_, F_, "Plus", "Times", False, False, False, None),  # elided, values cast
    (F_, F_, F_, "Plus", "Times", False, False, False, None),  # elided, values moved
]


def _values(dtype):
    if dtype == B_:
        return st.booleans()
    # as Python values of the dtype: the dict oracle computes on these, and
    # -1.0 * 0.0 is -0.0 where -1 * 0 is 0
    return st.integers(-4, 4).map(float if dtype == F_ else int)


@st.composite
def _pattern(draw, nrows, ncols, dtype, empty_rows=()):
    """``{(i, j): value}`` with zeros among the stored values (a stored
    ``false`` when the matrix serves as a mask)."""
    cells = [(i, j) for i in range(nrows) if i not in empty_rows for j in range(ncols)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return {k: draw(_values(dtype)) for k, on in zip(cells, keep) if on}


@st.composite
def _case(draw, cfg):
    ta_dt, tb_dt, tc_dt, _add, _mult, masked, *_ = cfg
    n, k, m = (draw(st.integers(1, 7)) for _ in range(3))
    ta, tb = draw(st.booleans()), draw(st.booleans())
    a = draw(_pattern(*((k, n) if ta else (n, k)), ta_dt))
    b = draw(_pattern(*((m, k) if tb else (k, m)), tb_dt))
    c = draw(_pattern(n, m, tc_dt))
    mask = mask_dt = None
    if masked:
        mask_dt = draw(st.sampled_from([B_, I_, F_]))
        empty = draw(st.sets(st.integers(0, n - 1), max_size=n))
        mask = draw(_pattern(n, m, mask_dt, empty_rows=empty))
    return n, k, m, ta, tb, a, b, c, mask, mask_dt


def _effective(d: dict, transpose: bool) -> dict:
    """The operand as the product reads it, inserted in row-major order so
    the dict oracle folds each (i, j) in ascending k like the kernels."""
    if transpose:
        d = R.ref_transpose_dict(d)
    return {key: d[key] for key in sorted(d)}


@needs_cpp
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: "-".join(str(x) for x in c))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_masked_mxm_matches_both_oracles(cpp, interp, cfg, data):
    ta_dt, tb_dt, tc_dt, add, mult, masked, comp, repl, accum = cfg
    n, k, m, ta, tb, a, b, c, mask, mask_dt = data.draw(_case(cfg))
    A = _store(a, *((k, n) if ta else (n, k)), ta_dt)
    Bm = _store(b, *((m, k) if tb else (k, m)), tb_dt)
    C = _store(c, n, m, tc_dt)
    M = _store(mask, n, m, mask_dt) if masked else None
    desc = OpDesc(mask=M, complement=comp, replace=repl, accum=accum)

    t = R.ref_mxm(_effective(a, ta), _effective(b, tb), add, mult)
    oracle = _store(R.ref_finalize_mat(c, t, (n, m), tc_dt, mask, comp, repl, accum), n, m, tc_dt)
    whole_then_finalize = interp.mxm(C, A, Bm, add, mult, desc, ta, tb)
    _same(whole_then_finalize, oracle)

    for parallel in (False, True):
        with _build(parallel):
            _same(cpp.mxm(C, A, Bm, add, mult, desc, ta, tb), oracle)


@needs_cpp
class TestMaskedMxmPinned:
    """Shapes the random grid reaches only by luck."""

    N = 150  # >= 64 rows: the OpenMP build really runs its parallel region

    def _operands(self, rng, density=0.08):
        def mat():
            keep = rng.random((self.N, self.N)) < density
            rows, cols = np.nonzero(keep)
            return SparseMatrix.from_coo(
                self.N, self.N, rows, cols, rng.integers(-3, 4, rows.size).astype(float), F_
            )

        return mat(), mat(), mat(), mat()

    @pytest.mark.parametrize("accum", [None, "Plus"])
    @pytest.mark.parametrize("repl", [False, True])
    def test_parallel_region(self, cpp, interp, rng, accum, repl):
        A, Bm, C, M = self._operands(rng)
        # rows 10..39 of the mask are empty, and it stores zeros (false)
        lo, hi = int(M.indptr[10]), int(M.indptr[40])
        indptr = M.indptr.copy()
        indptr[11:40] = lo
        indptr[40:] -= hi - lo
        M = SparseMatrix(self.N, self.N, indptr, np.delete(M.indices, np.s_[lo:hi]),
                         np.delete(M.values, np.s_[lo:hi]))
        assert (M.values == 0).any()
        desc = OpDesc(mask=M, replace=repl, accum=accum)
        want = interp.mxm(C, A, Bm, "Plus", "Times", desc, False, True)
        for parallel in (False, True):
            with _build(parallel):
                _same(cpp.mxm(C, A, Bm, "Plus", "Times", desc, False, True), want)

    def test_aliased_statements(self, rng):
        """``C[C] = C @ C`` and ``B[L] = L @ L.T``: output, mask and
        operands are views of the same buffers."""
        keep = np.tril(rng.random((40, 40)) < 0.3, -1)
        rows, cols = np.nonzero(keep)
        vals = rng.integers(0, 3, rows.size)  # stored zeros: false as a mask

        def run(engine):
            with gb.use_engine(engine), gb.ArithmeticSemiring:
                L = gb.Matrix((vals, (rows, cols)), shape=(40, 40), dtype=np.int64)
                Bm = gb.Matrix(shape=(40, 40), dtype=np.int64)
                Bm[L] = L @ L.T
                C = gb.Matrix((vals, (rows, cols)), shape=(40, 40), dtype=np.int64)
                C[C] = C @ C
                return Bm._store, C._store

        for got, want in zip(run("cpp"), run("interpreted")):
            _same(got, want)


# ----------------------------------------------------------------------
# (b) fold order: products for one (i, j) fold in ascending k
# ----------------------------------------------------------------------
@needs_cpp
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "par"])
def test_fold_order_is_ascending_k(cpp, parallel):
    rows = 96  # past the kernel's parallel threshold
    triples = [(1e16, 1.0, -1e16), (1.0, 1e16, -1e16), (1e16, -1e16, 1.0)]
    vals = np.array([triples[r % 3] for r in range(rows)])
    left_fold = np.array([(t[0] + t[1]) + t[2] for t in vals])
    assert set(left_fold) == {0.0, 1.0}  # re-association would show
    A = SparseMatrix.from_dense(vals, F_)
    ones = SparseMatrix.from_dense(np.ones((3, 2)), F_)
    C = SparseMatrix.empty(rows, 2, F_)
    # the mask keeps column 1 only; column 0 is closed by a stored false
    mask = np.zeros((rows, 2))
    mask[:, 1] = 1.0
    M = SparseMatrix.from_coo(rows, 2, *np.nonzero(np.ones((rows, 2))), mask.ravel(), F_)
    with _build(parallel):
        whole = cpp.mxm(C, A, ones, "Plus", "Times", OpDesc())
        masked = cpp.mxm(C, A, ones, "Plus", "Times", OpDesc(mask=M))
    np.testing.assert_array_equal(whole.to_dense()[:, 1], left_fold)
    assert masked.nvals == rows and (masked.indices == 1).all()
    assert masked.values.tobytes() == left_fold.tobytes()


# ----------------------------------------------------------------------
# (c) every result is NumPy's: fetched whole, or values on a borrowed pattern
# ----------------------------------------------------------------------
@needs_cpp
@pytest.mark.parametrize("out_dtype", [F_, I_], ids=["moved", "cast"])
def test_unmerged_results_own_their_memory(interp, rng, out_dtype):
    """No mask, no accumulator.  ``mxm`` / eWise: the kernel's arrays
    become the held result by move, and ``pygb_fetch`` copies all three
    into NumPy's buffers.  ``apply_mat``: the kernel writes ``values``
    only, into a NumPy buffer, and ``indptr`` / ``indices`` *are* the
    operand's.  Either way nothing points into the shared object: all of
    it is alive after the engine and its libraries."""
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine()
    n = 30
    a = SparseMatrix.from_dense(rng.integers(-2, 3, (n, n)).astype(float), F_)
    b = SparseMatrix.from_dense(rng.integers(-2, 3, (n, n)).astype(float), F_)
    out, nodesc = SparseMatrix.empty(n, n, out_dtype), OpDesc()
    times2 = ("bind", "Times", 2.0, "second")
    fetched = [
        eng.mxm(out, a, b, "Plus", "Times", nodesc),
        eng.ewise_add_mat(out, a, b, "Plus", nodesc),
        eng.ewise_mult_mat(out, a, b, "Times", nodesc),
    ]
    applied = eng.apply_mat(out, a, times2, nodesc)
    _same(fetched[0], interp.mxm(out, a, b, "Plus", "Times", nodesc))
    _same(fetched[1], interp.ewise_add_mat(out, a, b, "Plus", nodesc))
    _same(applied, interp.apply_mat(out, a, times2, nodesc))
    assert applied.indptr is a.indptr and applied.indices is a.indices
    assert applied.values is not a.values
    owned = [arr for r in fetched for arr in (r.indptr, r.indices, r.values)]
    owned.append(applied.values)
    for r in (*fetched, applied):
        assert r.nvals > 0 and r.dtype == out_dtype
    for arr in owned:
        assert arr.flags.owndata and arr.flags.writeable
    saved = [(arr, arr.copy()) for arr in (*owned, applied.indptr, applied.indices)]
    cache = eng.cache
    del eng
    cache.clear_memory()
    gc.collect()
    for arr, copy in saved:
        np.testing.assert_array_equal(arr, copy)


# ----------------------------------------------------------------------
# (d) deterministic guards (no wall clock)
# ----------------------------------------------------------------------
def _mxm_source(mask: str, comp: bool) -> str:
    spec = KernelSpec.make(
        "mxm", a="float64", b="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", mask=mask, comp=comp, repl=False, accum="none",
    )
    return generate_cpp_source(spec)


def test_generated_source_pushes_only_a_plain_mask_into_the_product():
    assert "GB::mxm<TT>(A, B, AddOp{}, MultOp{}, &m);" in _mxm_source("value", False)
    for mask, comp in (("value", True), ("none", False)):
        source = _mxm_source(mask, comp)
        assert "GB::mxm<TT>(A, B, AddOp{}, MultOp{});" in source
        assert "MultOp{}, &m" not in source


# ----------------------------------------------------------------------
# (e) normalize_rows / normalize_cols against the implementation they replace
# ----------------------------------------------------------------------
def _old_scaled(store, sums_per_entry):
    vals = store.values.astype(np.float64, copy=True)
    nonzero = sums_per_entry != 0
    vals[nonzero] = vals[nonzero] / sums_per_entry[nonzero]
    if store.dtype.kind == "f":
        vals = vals.astype(store.dtype)
    return vals


def _old_normalize_rows(store):
    rows = np.repeat(np.arange(store.nrows, dtype=np.int64), store.row_lengths())
    sums = np.zeros(store.nrows, dtype=np.float64)
    np.add.at(sums, rows, store.values.astype(np.float64, copy=False))
    return _old_scaled(store, sums[rows])


def _old_normalize_cols(store):
    sums = np.zeros(store.ncols, dtype=np.float64)
    np.add.at(sums, store.indices, store.values.astype(np.float64, copy=False))
    return _old_scaled(store, sums[store.indices])


def _normalize_input(kind: str) -> "gb.Matrix":
    rng = np.random.default_rng(8)
    n = 60
    if kind == "empty":
        return gb.Matrix(shape=(n, n), dtype=float)
    dense = rng.uniform(1, 10, (n, n)) * (rng.random((n, n)) < 0.2)
    dense[7] = 0  # empty row
    dense[:, 9] = 0  # empty column
    dense[3] = 0
    dense[3, [1, 2]] = (2.5, -2.5)  # zero-sum row with stored values
    dense[:, 4] = 0
    dense[[5, 6], 4] = (1.5, -1.5)  # zero-sum column with stored values
    if kind == "int64":
        return gb.Matrix(np.trunc(dense).astype(np.int64))
    return gb.Matrix(dense.astype(kind), dtype=kind)


@pytest.mark.parametrize("kind", ["float64", "float32", "int64", "empty"])
@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_normalize_matches_the_add_at_implementation(kind, axis):
    m = _normalize_input(kind)
    before = m._store
    before_values = before.values.copy()
    old = _old_normalize_rows if axis == "rows" else _old_normalize_cols
    want = old(before) if before.nvals else before.values
    normalize = utilities.normalize_rows if axis == "rows" else utilities.normalize_cols
    assert normalize(m) is m
    got = m._store
    assert got.values.dtype == want.dtype == (before.dtype if before.dtype.kind == "f" else F_)
    assert got.values.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got.indptr, before.indptr)
    np.testing.assert_array_equal(got.indices, before.indices)
    # the store the matrix held is shared by convention: never scaled in place
    assert before.values.tobytes() == before_values.tobytes()


# ----------------------------------------------------------------------
# (f) normalize_rows: on cpp one compiled pass per row, the same fold
# ----------------------------------------------------------------------
#: one row per case the fold must get right: plain values, an empty row,
#: a zero-sum row, a row holding only -0.0, the fold-order row (left to
#: right 1e16 + 1.0 - 1e16 is 0 and the row is kept; pairwise it is 1),
#: a sum that rounds, a negative entry, a single entry
_FOLD_ROWS = [
    [1.5, 2.25, 3.0],
    [],
    [2.5, -2.5],
    [-0.0],
    [1e16, 1.0, -1e16],
    [0.1, 0.2, 0.3, 0.7],
    [-1.5, 4.0],
    [7.0],
]

_ENGINES = [
    "interpreted",
    "pyjit",
    pytest.param("cpp", marks=[
        pytest.mark.cpp,
        pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
    ]),
]


def _fold_input(kind: str) -> "gb.Matrix":
    shape = (len(_FOLD_ROWS), 5)
    if kind == "empty":
        return gb.Matrix(shape=shape, dtype=float)
    rows = [i for i, row in enumerate(_FOLD_ROWS) for _ in row]
    cols = [j for row in _FOLD_ROWS for j in range(len(row))]
    vals = np.array([v for row in _FOLD_ROWS for v in row])
    if kind == "int64":
        vals = np.trunc(vals)  # 1e16 and -1e16 still cancel; 0.1 ... 0.7 sum to zero
    elif kind == "bool":
        vals = vals != 0  # the -0.0 row becomes a zero-sum row
    return gb.Matrix((vals.astype(kind), (rows, cols)), shape=shape, dtype=kind)


@pytest.mark.parametrize("kind", ["float64", "float32", "int64", "bool", "empty"])
@pytest.mark.parametrize("engine_name", _ENGINES)
def test_normalize_rows_is_the_add_at_fold_on_every_engine(engine_name, kind, monkeypatch):
    """The cpp engine runs ``GB::normalize_rows``, the others the NumPy
    fold; both give the bytes of ``np.add.at`` (sums in double, ``float32``
    included), as a plain store on the input's own pattern."""
    from repro.jit.cppengine import CppJitEngine

    calls = []
    kernel = CppJitEngine.normalize_rows
    monkeypatch.setattr(CppJitEngine, "normalize_rows",
                        lambda self, a: calls.append(a) or kernel(self, a))
    m = _fold_input(kind)
    before = m._store
    if kind in ("float64", "float32"):
        assert np.signbit(before.values[before.indptr[3]])  # the -0.0 is stored
    want = _old_normalize_rows(before) if before.nvals else before.values
    with gb.use_engine(engine_name):
        assert utilities.normalize_rows(m) is m
    got = m._store
    assert len(calls) == (engine_name == "cpp" and before.nvals > 0)
    assert got is before if not before.nvals else type(got) is SparseMatrix
    assert got.values.dtype == want.dtype == (np.float32 if kind == "float32" else F_)
    assert got.values.tobytes() == want.tobytes()
    assert got.indptr is before.indptr and got.indices is before.indices


def test_normalize_rows_source_writes_values_only():
    """The operand pack and one ``TC* out_vals``; the cancellation check
    comes before the first write; nothing is held, nothing fetched."""
    source = generate_cpp_source(KernelSpec.make("normalize_rows", a="float32", c="float32"))
    assert "pygb_fetch" not in source and "pygb_held" not in source
    assert "const TA* a_vals,\n    TC* out_vals)" in source
    assert source.index("if (GB::cancel_requested()) return -2;") < source.index(
        "GB::normalize_rows<TC>(a_nrows, a_indptr, a_vals, out_vals);"
    )


@pytest.mark.parametrize("strict", [False, True], ids=["fallback", "strict"])
def test_normalize_rows_survives_a_failing_compiler(tmp_path, monkeypatch, no_faults, strict):
    """A compiler that fails every build leaves the NumPy fold in place
    with one ``JitFallbackWarning``; with that warning an error (strict) the
    call raises it instead and leaves the matrix as it was."""
    from repro.exceptions import CompilationError, JitFallbackWarning
    from repro.jit.cache import JitCache
    from repro.jit.cppengine import CppJitEngine

    bogus = tmp_path / "failing-g++"
    bogus.write_text("#!/bin/sh\nexit 1\n")
    bogus.chmod(0o755)
    monkeypatch.delenv("PYGB_CATALOG", raising=False)
    monkeypatch.setenv("PYGB_CXX", str(bogus))
    engine = CppJitEngine(JitCache(tmp_path / "cache"))
    m = _fold_input("float64")
    before = m._store
    with gb.use_engine(engine):
        if strict:
            with warnings.catch_warnings():
                warnings.simplefilter("error", JitFallbackWarning)
                with pytest.raises(JitFallbackWarning) as exc_info:
                    utilities.normalize_rows(m)
            assert isinstance(exc_info.value.__context__, CompilationError)
            assert m._store is before
            assert engine.cache.stats.fallbacks == 0
            return
        with pytest.warns(JitFallbackWarning):
            utilities.normalize_rows(m)
    assert m._store.values.tobytes() == _old_normalize_rows(before).tobytes()
    assert engine.cache.stats.fallbacks == 1


class _RecordsVxm:
    """An engine that records the matrix of every ``vxm`` it forwards."""

    def __init__(self, inner):
        self._inner, self.name, self.matrices = inner, inner.name, []

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def vxm(self, out, u, a, *args, **kwargs):
        self.matrices.append(a)
        return self._inner.vxm(out, u, a, *args, **kwargs)


@pytest.mark.parametrize("engine_name", _ENGINES)
def test_pagerank_native_normalises_like_the_listing(engine_name, monkeypatch):
    """Fig. 8's ``normalize_rows(float(graph)) * damping`` in
    ``pagerank_native`` and Fig. 7's set-up statements in ``pagerank``
    build the same ``m``, byte for byte."""
    from repro.algorithms.pagerank import pagerank, pagerank_native
    from repro.core.dispatch import make_engine
    from repro.io.generators import scale_free

    graph = scale_free(64, seed=7)
    engine = _RecordsVxm(make_engine(engine_name))
    native = []
    vxm = K.vxm
    with gb.use_engine(engine):
        pagerank(graph, gb.Vector(shape=(64,), dtype=float), max_iters=1)
        monkeypatch.setattr(K, "vxm", lambda out, u, a, *rest: native.append(a) or vxm(out, u, a, *rest))
        pagerank_native(graph._store, max_iters=1)
    (v1,), (v2,) = engine.matrices, native
    _same(v2, v1)
