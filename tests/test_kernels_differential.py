"""Differential tests: every vectorised kernel (under both the
interpreted and the Python-JIT engines) against the naive dict-of-keys
reference implementation, across randomized inputs and the full grid of
descriptor variants (mask × complement × replace × accumulate)."""

import contextlib
import itertools

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
_ALL_ENGINES = ["interpreted", "pyjit", pytest.param("cpp", marks=needs_cxx)]


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


@pytest.mark.parametrize("out_dtype", [np.bool_, np.int64])
@pytest.mark.parametrize("engine_name", _ALL_ENGINES)
def test_minus_of_two_bool_operands(engine_name, out_dtype):
    """``Minus`` on ``bool`` with ``bool`` is GBTL's ``Minus<bool>``,
    ``bool(a - b)`` — XOR — on every engine and in the reference (NumPy
    itself refuses boolean subtract), whatever the output widens it to."""
    u, v = {0: True, 1: True, 2: False, 3: False}, {1: True, 2: True, 3: False, 4: True}
    a = {(i, j): i >= j for i in range(3) for j in range(4)}
    b = {(i, j): (i + j) % 2 == 0 for i in range(3) for j in range(4) if i != j}
    with gb.use_engine(engine_name):
        eng = gb.current_backend_engine()
        vec = eng.ewise_add_vec(
            SparseVector.empty(5, out_dtype), _vec_store(u, 5, np.bool_),
            _vec_store(v, 5, np.bool_), "Minus", OpDesc(),
        )
        mat = eng.ewise_add_mat(
            SparseMatrix.empty(3, 4, out_dtype), _mat_store(a, 3, 4, np.bool_),
            _mat_store(b, 3, 4, np.bool_), "Minus", OpDesc(),
        )
        # one stored entry a row: each product is the row's whole sum
        row = {(i, i): bool(i % 2) for i in range(4)}
        prod = eng.mxv(
            SparseVector.empty(4, out_dtype), _mat_store(row, 4, 4, np.bool_),
            _vec_store(u, 4, np.bool_), "Plus", "Minus", OpDesc(),
        )
    none = (None, False, False, None)
    assert vec.dtype == mat.dtype == prod.dtype == np.dtype(out_dtype)
    assert vec.to_dict() == R.ref_finalize_vec({}, R.ref_ewise_add(u, v, "Minus"), 5, out_dtype, *none)
    assert mat.to_dict() == R.ref_finalize_mat({}, R.ref_ewise_add(a, b, "Minus"), (3, 4), out_dtype, *none)
    assert prod.to_dict() == R.ref_finalize_vec({}, R.ref_mxv(row, u, "Plus", "Minus"), 4, out_dtype, *none)
    one = np.dtype(out_dtype).type(1).item()
    assert vec.to_dict() == {0: one, 1: 0, 2: one, 3: 0, 4: one}  # False - True is 1, not -1
    assert prod.to_dict() == {0: one, 1: 0, 2: 0, 3: one}


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


# ----------------------------------------------------------------------
# pattern-preserving apply: new values on the operand's indptr / indices
# ----------------------------------------------------------------------
#: (operator, operand dtype, output dtype).  A bound operator runs at the
#: promotion of operand and constant and casts to the output last, on
#: every engine and into a narrower output too: ``int64(a * 2.5)``.
_APPLY_CASES = [
    (("unary", "Identity"), np.int64, np.float64),
    (("unary", "Identity"), np.float64, np.int64),  # truncation
    (("unary", "Identity"), np.float64, np.bool_),  # GB::Bool: 0.5 is true
    (("unary", "Identity"), np.bool_, np.int64),
    (("unary", "Identity"), np.float64, np.float64),  # equal dtypes still copy
    (("unary", "AdditiveInverse"), np.int64, np.float64),
    (("unary", "AdditiveInverse"), np.float64, np.int64),
    (("unary", "LogicalNot"), np.int64, np.bool_),
    (("unary", "LogicalNot"), np.bool_, np.int64),
    (("bind", "Plus", 3, "second"), np.int64, np.float64),
    (("bind", "Minus", 100, "first"), np.bool_, np.int64),
    (("bind", "Times", 2.5, "second"), np.float64, np.float64),
    (("bind", "Minus", 1.5, "first"), np.int64, np.float64),
    (("bind", "Times", 2.5, "second"), np.float64, np.int64),
    (("bind", "Times", 2.5, "second"), np.int64, np.int64),
    (("bind", "Times", 0.1, "second"), np.float32, np.float32),  # rounds once, from double
    (("bind", "Minus", 1.5, "first"), np.float64, np.bool_),
    (("bind", "Minus", 2, "second"), np.int64, np.bool_),
    (("bind", "GreaterThan", 0.5, "second"), np.float64, np.int64),
    (("bind", "Plus", True, "second"), np.bool_, np.int64),  # bool + bool is bool
]


def _dsl_op(op_spec):
    if op_spec[0] == "unary":
        return gb.UnaryOp(op_spec[1])
    return gb.UnaryOp(op_spec[1], op_spec[2], bind=op_spec[3])


def _apply_operand(kind, dtype):
    """A 9 x 7 operand as ``{(i, j): value}``: fractional values for
    float (0.5 among them), zeros stored for int and bool."""
    if kind == "empty":
        return {}
    rng = np.random.default_rng(7)
    cells = rng.integers(-4, 5, (9, 7)) * (rng.random((9, 7)) < 0.6)
    cells[3, :] = 0  # one empty row
    rows, cols = np.nonzero(cells)
    vals = cells[rows, cols] + (0.5 if np.dtype(dtype).kind == "f" else 0)
    if np.dtype(dtype) == np.bool_:
        vals = vals > 0
    return {
        (int(i), int(j)): np.dtype(dtype).type(v).item() for i, j, v in zip(rows, cols, vals)
    }


@pytest.mark.parametrize("engine_name", _ALL_ENGINES)
class TestPatternSharingApply:
    """``C<> = f(A)`` stores exactly where ``A`` does: every engine
    returns new values on the operand's own ``indptr`` / ``indices``."""

    @pytest.fixture(autouse=True)
    def _engine(self, engine_name):
        with gb.use_engine(engine_name):
            yield

    @pytest.mark.parametrize(
        "op_spec, da, dc", _APPLY_CASES,
        ids=[f"{c[0][1]}-{np.dtype(c[1])}-{np.dtype(c[2])}" for c in _APPLY_CASES],
    )
    def test_values_match_the_reference_bit_for_bit(self, op_spec, da, dc):
        from repro.backend.tiled import TiledMatrix

        for kind in ("empty", "one-empty-row", "tiled"):
            cells = _apply_operand(kind, da)
            scope = gb.tiled(tiles=4, workers=2) if kind == "tiled" else contextlib.nullcontext()
            with scope:
                a = mat_from_dict(cells, 9, 7, da)
                assert kind != "tiled" or isinstance(a._store, TiledMatrix)
                for ta, nonblocking in itertools.product((False, True), repeat=2):
                    operand = a.T if ta else a
                    source = a._store.transposed() if ta else a._store
                    c = gb.Matrix(shape=operand.shape, dtype=dc)
                    with gb.nonblocking() if nonblocking else contextlib.nullcontext():
                        c[None] = gb.apply(_dsl_op(op_spec), operand)
                    got = c._store
                    want = R.ref_finalize_mat(
                        {}, R.ref_apply(source.to_dict(), op_spec), operand.shape, dc,
                        None, False, False, None,
                    )
                    label = (kind, ta, nonblocking)
                    assert got.dtype == np.dtype(dc) and got.shape == operand.shape, label
                    assert got.indptr is source.indptr and got.indices is source.indices, label
                    assert not np.shares_memory(got.values, source.values), label
                    assert list(want) == list(source.to_dict()), label
                    assert got.values.tobytes() == np.array(list(want.values()), dc).tobytes(), label

    @pytest.mark.parametrize("how", ["masked", "accumulated"])
    def test_a_mask_or_an_accumulator_still_merges(self, rng, how):
        """Neither statement keeps the operand's pattern, so neither may
        borrow it: both go through the merge and own what they return."""
        a, c, mask = (random_mat_dict(rng, N, N) for _ in range(3))
        dcfg = dict(mask=how == "masked", comp=False, repl=False,
                    accum="Plus" if how == "accumulated" else None)
        op_spec = ("bind", "Times", 3.0, "second")
        a_store = _mat_store(a, N, N)
        got = gb.current_backend_engine().apply_mat(
            _mat_store(c, N, N), a_store, op_spec, _make_desc(dcfg, _mat_store(mask, N, N))
        )
        _approx_eq(got.to_dict(), _ref_final_mat(c, R.ref_apply(a, op_spec), dcfg, mask))
        for mine in (got.indptr, got.indices, got.values):
            for theirs in (a_store.indptr, a_store.indices, a_store.values):
                assert not np.shares_memory(mine, theirs)

    def test_a_write_to_the_copy_leaves_the_source_alone(self):
        m1 = gb.Matrix([[1, 0, 2], [0, 0, 3]], dtype=np.int64)
        store = m1._store
        before = [x.copy() for x in (store.indptr, store.indices, store.values)]
        m2 = gb.Matrix(shape=m1.shape, dtype=np.float64)
        m2[None] = m1
        assert m2._store.indptr is store.indptr and m2._store.indices is store.indices
        m2[0, 0] = 9  # an overwrite
        m2[1, 0] = 7  # an insertion: the pattern itself changes
        assert m2.to_numpy().tolist() == [[9, 0, 2], [7, 0, 3]]
        assert m1._store is store and m1.to_numpy().tolist() == [[1, 0, 2], [0, 0, 3]]
        for now, was in zip((store.indptr, store.indices, store.values), before):
            assert now.tobytes() == was.tobytes()

    def test_a_cancelled_scope_leaves_the_output_unchanged(self):
        from repro.exceptions import OperationCancelled

        a = gb.Matrix([[1.0, 2.0], [0.0, 4.0]])
        c = gb.Matrix([[5, 0], [0, 6]], dtype=np.int64)
        kept = c._store
        with pytest.raises(OperationCancelled):
            with gb.deadline() as scope:
                scope.cancel()
                c[None] = gb.apply(a)
                gb.wait()
        assert c._store is kept
        c[None] = gb.apply(a)
        assert c.to_numpy().tolist() == [[1, 2], [0, 4]]


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
def test_values_only_kernel_returns_the_cancel_sentinel(rng):
    """The raised flag is seen before the first write: ``-2``, surfaced
    as ``OperationCancelled``; lowering it restores the kernel."""
    from repro import guard
    from repro.exceptions import OperationCancelled
    from repro.jit.cppengine import CppJitEngine

    eng = CppJitEngine()
    a = _mat_store(random_mat_dict(rng, N, N), N, N)
    out, op_spec = SparseMatrix.empty(N, N, np.int64), ("unary", "AdditiveInverse")
    clean = eng.apply_mat(out, a, op_spec, OpDesc())  # loads and registers the library
    with guard._CANCEL_LOCK:
        libs = list(guard._CANCEL_LIBS)
    for lib in libs:
        lib.pygb_request_cancel(1)
    try:
        with pytest.raises(OperationCancelled):
            eng.apply_mat(out, a, op_spec, OpDesc())
    finally:
        for lib in libs:
            lib.pygb_request_cancel(0)
    again = eng.apply_mat(out, a, op_spec, OpDesc())
    assert again.values.tobytes() == clean.values.tobytes()
    assert again.indptr is a.indptr and again.indices is a.indices


@pytest.mark.parametrize("form", ["unary", "bind"])
def test_values_only_apply_mat_source_has_no_holder(form):
    """The spec decides at generation time: no mask and no accumulator →
    one output pointer, the cancellation check ahead of the only write,
    nothing parked and nothing to fetch."""
    from repro.jit.cppcodegen import generate_cpp_source
    from repro.jit.spec import KernelSpec

    def source(mask, accum):
        return generate_cpp_source(KernelSpec.make(
            "apply_mat", a="int64", c="float64", form=form,
            op="Identity" if form == "unary" else "Times",
            side="none" if form == "unary" else "second",
            mask=mask, comp=False, repl=False, accum=accum, par=True,
        ))

    shared = source("none", "none")
    assert "pygb_fetch" not in shared and "pygb_held" not in shared
    assert "c_indptr" not in shared and "m_indptr" not in shared
    assert shared.index("if (GB::cancel_requested()) return -2;") < shared.index(
        "GB::apply_values<TC>(a_vals, nnz, make_unary(dconst, iconst), out_vals);"
    )
    for merged in (source("value", "none"), source("none", "Plus")):
        assert "pygb_fetch" in merged and "GB::write_back_mat<TC>" in merged
