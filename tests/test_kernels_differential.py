"""Differential tests: every vectorised kernel (under both the
interpreted and the Python-JIT engines) against the naive dict-of-keys
reference implementation, across randomized inputs and the full grid of
descriptor variants (mask × complement × replace × accumulate)."""

import numpy as np
import pytest

import repro as gb
from repro.backend import reference as R
from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.jit.cppengine import toolchain_works

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

N = 12  # container dimension for randomized cases

needs_cxx = [
    pytest.mark.cpp,
    pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
]


def _vec_store(d, size, dtype=np.float64):
    return vec_from_dict(d, size, dtype)._store


def _mat_store(d, nrows, ncols, dtype=np.float64):
    return mat_from_dict(d, nrows, ncols, dtype)._store


def _approx_eq(got: dict, want: dict):
    assert set(got) == set(want), f"patterns differ: {sorted(got)} vs {sorted(want)}"
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12, abs=1e-12), (k, got[k], want[k])


DESCS = [
    dict(mask=False, comp=False, repl=False, accum=None),
    dict(mask=False, comp=False, repl=False, accum="Plus"),
    dict(mask=True, comp=False, repl=False, accum=None),
    dict(mask=True, comp=True, repl=False, accum=None),
    dict(mask=True, comp=False, repl=True, accum=None),
    dict(mask=True, comp=True, repl=True, accum=None),
    dict(mask=True, comp=False, repl=False, accum="Plus"),
    dict(mask=True, comp=True, repl=True, accum="Min"),
]


def _make_desc(dcfg, mask_store):
    return OpDesc(
        mask=mask_store if dcfg["mask"] else None,
        complement=dcfg["comp"],
        replace=dcfg["repl"],
        accum=dcfg["accum"],
    )


def _ref_final_vec(c, t, dcfg, mask, dtype=np.float64):
    return R.ref_finalize_vec(
        c, t, N, dtype,
        mask if dcfg["mask"] else None,
        dcfg["comp"], dcfg["repl"], dcfg["accum"],
    )


def _ref_final_mat(c, t, dcfg, mask, shape=(N, N), dtype=np.float64):
    return R.ref_finalize_mat(
        c, t, shape, dtype,
        mask if dcfg["mask"] else None,
        dcfg["comp"], dcfg["repl"], dcfg["accum"],
    )


@pytest.mark.parametrize("dcfg", DESCS)
@pytest.mark.parametrize("semiring", [("Plus", "Times"), ("Min", "Plus"), ("Max", "First")])
def test_mxv(engine, rng, dcfg, semiring):
    add, mult = semiring
    a = random_mat_dict(rng, N, N)
    u = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.mxv(
        _vec_store(c, N), _mat_store(a, N, N), _vec_store(u, N),
        add, mult, _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want = _ref_final_vec(c, R.ref_mxv(a, u, add, mult), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("dcfg", DESCS[:4])
def test_mxv_transposed(engine, rng, dcfg):
    a = random_mat_dict(rng, N, N)
    u = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.mxv(
        _vec_store(c, N), _mat_store(a, N, N), _vec_store(u, N),
        "Plus", "Times", _make_desc(dcfg, _vec_store(mask, N, np.bool_)), ta=True,
    )
    want = _ref_final_vec(
        c, R.ref_mxv(R.ref_transpose_dict(a), u, "Plus", "Times"), dcfg, mask
    )
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("dcfg", DESCS)
def test_vxm(engine, rng, dcfg):
    a = random_mat_dict(rng, N, N)
    u = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.vxm(
        _vec_store(c, N), _vec_store(u, N), _mat_store(a, N, N),
        "Plus", "Times", _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want = _ref_final_vec(c, R.ref_vxm(u, a, "Plus", "Times"), dcfg, mask)
    _approx_eq(got.to_dict(), want)


def test_vxm_noncommutative_mult_order(engine, rng):
    # u ⊗ A(k, j): the vector value must be the LEFT operand of Minus
    u = {0: 10.0}
    a = {(0, 0): 3.0}
    eng = gb.current_backend_engine()
    got = eng.vxm(
        _vec_store({}, N), _vec_store(u, N), _mat_store(a, N, N),
        "Plus", "Minus", OpDesc(),
    )
    assert got.to_dict()[0] == 7.0


@pytest.mark.parametrize("dcfg", DESCS)
@pytest.mark.parametrize("semiring", [("Plus", "Times"), ("Min", "Plus")])
def test_mxm(engine, rng, dcfg, semiring):
    add, mult = semiring
    a = random_mat_dict(rng, N, N)
    b = random_mat_dict(rng, N, N)
    c = random_mat_dict(rng, N, N)
    mask = random_mat_dict(rng, N, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.mxm(
        _mat_store(c, N, N), _mat_store(a, N, N), _mat_store(b, N, N),
        add, mult, _make_desc(dcfg, _mat_store(mask, N, N, np.bool_)),
    )
    want = _ref_final_mat(c, R.ref_mxm(a, b, add, mult), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("transpose", ["a", "b", "both"])
def test_mxm_transposes(engine, rng, transpose):
    a = random_mat_dict(rng, N, N)
    b = random_mat_dict(rng, N, N)
    eng = gb.current_backend_engine()
    got = eng.mxm(
        _mat_store({}, N, N), _mat_store(a, N, N), _mat_store(b, N, N),
        "Plus", "Times", OpDesc(),
        ta=transpose in ("a", "both"), tb=transpose in ("b", "both"),
    )
    ra = R.ref_transpose_dict(a) if transpose in ("a", "both") else a
    rb = R.ref_transpose_dict(b) if transpose in ("b", "both") else b
    want = R.ref_mxm(ra, rb, "Plus", "Times")
    _approx_eq(got.to_dict(), {k: v for k, v in want.items()})


@pytest.mark.parametrize("dcfg", DESCS)
@pytest.mark.parametrize("op", ["Plus", "Minus", "Min", "Times"])
def test_ewise_add_vec(engine, rng, dcfg, op):
    u = random_vec_dict(rng, N)
    v = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.ewise_add_vec(
        _vec_store(c, N), _vec_store(u, N), _vec_store(v, N),
        op, _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want = _ref_final_vec(c, R.ref_ewise_add(u, v, op), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("out_dtype", [np.bool_, np.int64, np.float64])
@pytest.mark.parametrize(
    "da, db",
    [(np.bool_, np.bool_), (np.bool_, np.int64), (np.int64, np.bool_),
     (np.bool_, np.float64), (np.float64, np.bool_)],
)
@pytest.mark.parametrize("engine_name", ["interpreted", "pyjit", pytest.param("cpp", marks=needs_cxx)])
def test_plus_of_two_true_values(engine_name, da, db, out_dtype):
    """``True + True`` at an index both operands store: ``bool`` with
    ``bool`` adds as ``bool`` (one), whatever dtype the output then widens
    it to; with a wider operand the sum is formed at that dtype (two)."""
    one_u, one_v = np.dtype(da).type(1).item(), np.dtype(db).type(1).item()
    u, v = {0: one_u, 1: one_u}, {1: one_v, 2: one_v}
    with gb.use_engine(engine_name):
        got = gb.current_backend_engine().ewise_add_vec(
            SparseVector.empty(3, out_dtype), _vec_store(u, 3, da), _vec_store(v, 3, db),
            "Plus", OpDesc(),
        )
    want = R.ref_finalize_vec({}, R.ref_ewise_add(u, v, "Plus"), 3, out_dtype,
                              None, False, False, None)
    assert got.to_dict() == want
    assert want[1] == (1 if da == db == np.bool_ or out_dtype == np.bool_ else 2)


@pytest.mark.parametrize("dcfg", DESCS)
@pytest.mark.parametrize("op", ["Times", "Plus", "Max"])
def test_ewise_mult_vec(engine, rng, dcfg, op):
    u = random_vec_dict(rng, N)
    v = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.ewise_mult_vec(
        _vec_store(c, N), _vec_store(u, N), _vec_store(v, N),
        op, _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want = _ref_final_vec(c, R.ref_ewise_mult(u, v, op), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("dcfg", DESCS[:6])
@pytest.mark.parametrize("kind", ["add", "mult"])
def test_ewise_mat(engine, rng, dcfg, kind):
    a = random_mat_dict(rng, N, N)
    b = random_mat_dict(rng, N, N)
    c = random_mat_dict(rng, N, N)
    mask = random_mat_dict(rng, N, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    method = eng.ewise_add_mat if kind == "add" else eng.ewise_mult_mat
    ref = R.ref_ewise_add if kind == "add" else R.ref_ewise_mult
    got = method(
        _mat_store(c, N, N), _mat_store(a, N, N), _mat_store(b, N, N),
        "Plus", _make_desc(dcfg, _mat_store(mask, N, N, np.bool_)),
    )
    want = _ref_final_mat(c, ref(a, b, "Plus"), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("dcfg", DESCS[:6])
@pytest.mark.parametrize(
    "op_spec",
    [
        ("unary", "Identity"),
        ("unary", "AdditiveInverse"),
        ("bind", "Times", 2.5, "second"),
        ("bind", "Minus", 100.0, "first"),
    ],
)
def test_apply_vec(engine, rng, dcfg, op_spec):
    u = random_vec_dict(rng, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.apply_vec(
        _vec_store(u, N), _vec_store(u, N), op_spec, OpDesc()
    )
    want = _ref_final_vec(
        u, R.ref_apply(u, op_spec),
        dict(mask=False, comp=False, repl=False, accum=None), None,
    )
    _approx_eq(got.to_dict(), want)
    # and the full finalize grid against c
    got2 = eng.apply_vec(
        _vec_store(c, N), _vec_store(u, N), op_spec,
        _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want2 = _ref_final_vec(c, R.ref_apply(u, op_spec), dcfg, mask)
    _approx_eq(got2.to_dict(), want2)


@pytest.mark.parametrize("op_spec", [("unary", "Identity"), ("bind", "Times", 3.0, "second")])
def test_apply_mat(engine, rng, op_spec):
    a = random_mat_dict(rng, N, N)
    eng = gb.current_backend_engine()
    got = eng.apply_mat(_mat_store(a, N, N), _mat_store(a, N, N), op_spec, OpDesc())
    _approx_eq(got.to_dict(), R.ref_apply(a, op_spec))


@pytest.mark.parametrize("op", ["Plus", "Min", "Max", "Times"])
def test_reduce_scalar(engine, rng, op):
    a = random_mat_dict(rng, N, N)
    u = random_vec_dict(rng, N)
    eng = gb.current_backend_engine()
    got_m = eng.reduce_mat_scalar(_mat_store(a, N, N), op, None)
    got_v = eng.reduce_vec_scalar(_vec_store(u, N), op, None)
    assert got_m == pytest.approx(R.ref_reduce_scalar(a, op))
    assert got_v == pytest.approx(R.ref_reduce_scalar(u, op))


def test_reduce_scalar_empty_returns_identity(engine):
    eng = gb.current_backend_engine()
    empty_m = SparseMatrix.empty(N, N, np.float64)
    assert eng.reduce_mat_scalar(empty_m, "Plus", None) == 0.0
    assert eng.reduce_mat_scalar(empty_m, "Min", None) == np.inf
    empty_v = SparseVector.empty(N, np.int64)
    assert eng.reduce_vec_scalar(empty_v, "Max", None) == np.iinfo(np.int64).min


@pytest.mark.parametrize("dcfg", DESCS[:6])
def test_reduce_rows(engine, rng, dcfg):
    a = random_mat_dict(rng, N, N)
    c = random_vec_dict(rng, N)
    mask = random_vec_dict(rng, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.reduce_rows(
        _vec_store(c, N), _mat_store(a, N, N), "Plus",
        _make_desc(dcfg, _vec_store(mask, N, np.bool_)),
    )
    want = _ref_final_vec(c, R.ref_reduce_rows(a, "Plus"), dcfg, mask)
    _approx_eq(got.to_dict(), want)


@pytest.mark.parametrize("dcfg", DESCS[:6])
def test_transpose_op(engine, rng, dcfg):
    a = random_mat_dict(rng, N, N)
    c = random_mat_dict(rng, N, N)
    mask = random_mat_dict(rng, N, N, dtype=np.bool_)
    eng = gb.current_backend_engine()
    got = eng.transpose(
        _mat_store(c, N, N), _mat_store(a, N, N),
        _make_desc(dcfg, _mat_store(mask, N, N, np.bool_)),
    )
    want = _ref_final_mat(c, R.ref_transpose_dict(a), dcfg, mask)
    _approx_eq(got.to_dict(), want)


class TestExtract:
    def test_extract_vec(self, engine, rng):
        u = random_vec_dict(rng, N)
        idx = np.array([3, 0, 7, 3])  # permuted + duplicated
        eng = gb.current_backend_engine()
        got = eng.extract_vec(
            SparseVector.empty(idx.size, np.float64), _vec_store(u, N), idx, OpDesc()
        )
        assert got.to_dict() == R.ref_extract_vec(u, idx.tolist())

    def test_extract_mat(self, engine, rng):
        a = random_mat_dict(rng, N, N)
        rows = np.array([1, 1, 4])
        cols = np.array([5, 0, 5])
        eng = gb.current_backend_engine()
        got = eng.extract_mat(
            SparseMatrix.empty(rows.size, cols.size, np.float64),
            _mat_store(a, N, N), rows, cols, OpDesc(),
        )
        assert got.to_dict() == R.ref_extract_mat(a, rows.tolist(), cols.tolist())

    def test_extract_mat_transposed(self, engine, rng):
        a = random_mat_dict(rng, N, N)
        rows = np.arange(N)
        cols = np.arange(N)
        eng = gb.current_backend_engine()
        got = eng.extract_mat(
            SparseMatrix.empty(N, N, np.float64), _mat_store(a, N, N),
            rows, cols, OpDesc(), ta=True,
        )
        assert got.to_dict() == R.ref_transpose_dict(a)


class TestAssign:
    @pytest.mark.parametrize("accum", [None, "Plus"])
    def test_assign_vec(self, engine, rng, accum):
        c = random_vec_dict(rng, N)
        u = random_vec_dict(rng, 4)
        idx = np.array([2, 5, 7, 9])
        eng = gb.current_backend_engine()
        got = eng.assign_vec(
            _vec_store(c, N), _vec_store(u, 4), idx, OpDesc(accum=accum)
        )
        want = R.ref_assign_vec(c, u, idx.tolist(), accum)
        _approx_eq(got.to_dict(), want)

    @pytest.mark.parametrize("accum", [None, "Plus"])
    def test_assign_mat(self, engine, rng, accum):
        c = random_mat_dict(rng, N, N)
        a = random_mat_dict(rng, 3, 3, density=0.6)
        rows = np.array([1, 4, 8])
        cols = np.array([0, 5, 11])
        eng = gb.current_backend_engine()
        got = eng.assign_mat(
            _mat_store(c, N, N), _mat_store(a, 3, 3), rows, cols, OpDesc(accum=accum)
        )
        want = R.ref_assign_mat(c, a, rows.tolist(), cols.tolist(), accum)
        _approx_eq(got.to_dict(), want)

    def test_assign_vec_scalar_fills_region(self, engine, rng):
        c = random_vec_dict(rng, N)
        idx = np.array([0, 3, 6])
        eng = gb.current_backend_engine()
        got = eng.assign_vec_scalar(_vec_store(c, N), 42.0, idx, OpDesc())
        want = dict(c)
        for i in idx:
            want[int(i)] = 42.0
        _approx_eq(got.to_dict(), want)

    def test_assign_vec_scalar_masked_merge(self, engine, rng):
        # the BFS pattern: levels[frontier][:] = depth
        c = {0: 1.0, 5: 5.0}
        mask = {2: True, 5: True, 7: False}
        eng = gb.current_backend_engine()
        got = eng.assign_vec_scalar(
            _vec_store(c, N), 9.0, np.arange(N),
            OpDesc(mask=_vec_store(mask, N, np.bool_)),
        )
        assert got.to_dict() == {0: 1.0, 2: 9.0, 5: 9.0}

    def test_assign_mat_scalar(self, engine, rng):
        c = random_mat_dict(rng, N, N)
        rows = np.array([0, 2])
        cols = np.array([1, 3])
        eng = gb.current_backend_engine()
        got = eng.assign_mat_scalar(_mat_store(c, N, N), 7.0, rows, cols, OpDesc())
        want = dict(c)
        for r in rows:
            for s in cols:
                want[(int(r), int(s))] = 7.0
        _approx_eq(got.to_dict(), want)
