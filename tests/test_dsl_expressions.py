"""Deferred-expression tests (paper Sec. IV): laziness, operator capture
at construction, terminating operations, container reuse via ``C[None]``,
and the ``+=`` accumulate protocol."""

import contextlib

import numpy as np
import pytest

import repro as gb
from repro.core.expressions import Expression, MXM, MXV, VXM, TransposeView
from repro.jit.cppengine import toolchain_works


@pytest.fixture
def ab():
    a = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = gb.Matrix([[5.0, 6.0], [7.0, 8.0]])
    return a, b


class TestLaziness:
    def test_matmul_returns_expression(self, ab):
        a, b = ab
        expr = a @ b
        assert isinstance(expr, MXM)
        assert isinstance(expr, Expression)

    def test_add_and_mul_return_expressions(self, ab):
        a, b = ab
        assert isinstance(a + b, Expression)
        assert isinstance(a * b, Expression)

    def test_expression_not_evaluated_until_used(self, ab, engine):
        a, b = ab
        expr = a @ b
        assert expr._materialized is None
        _ = expr.nvals  # terminating operation
        assert expr._materialized is not None

    def test_materialization_cached(self, ab, engine):
        a, b = ab
        expr = a @ b
        first = expr.new()
        assert expr.new() is first

    def test_setitem_evaluates_into_existing_container(self, ab, engine):
        # C[None] = A @ B keeps the reference (Sec. IV)
        a, b = ab
        c = gb.Matrix(shape=(2, 2), dtype=float)
        store_holder = c
        c[None] = a @ b
        assert store_holder is c
        assert c[0, 0] == 1 * 5 + 2 * 7

    def test_plain_assignment_rebinds(self, ab, engine):
        a, b = ab
        c = a @ b
        # c is an expression; using it as a container materialises a new one
        assert c.to_numpy()[1][1] == 3 * 6 + 4 * 8


class TestOperatorCapture:
    def test_semiring_captured_at_construction(self, ab, engine):
        # "The expression object also captures the value of the binary
        # operator from the context of the A + B expression" (Sec. IV)
        a, b = ab
        with gb.MinPlusSemiring:
            expr = a @ b
        # evaluated OUTSIDE the with block, still min-plus
        out = gb.Matrix(shape=(2, 2), dtype=float)
        out[None] = expr
        assert out[0, 0] == min(1 + 5, 2 + 7)

    def test_ewise_op_captured(self, ab, engine):
        a, b = ab
        with gb.BinaryOp("Minus"):
            expr = a + b
        out = gb.Matrix(shape=(2, 2), dtype=float)
        out[None] = expr
        assert out[0, 0] == 1.0 - 5.0

    def test_different_contexts_different_results(self, ab, engine):
        a, b = ab
        with gb.ArithmeticSemiring:
            plus_times = gb.Matrix(a @ b)
        with gb.MinPlusSemiring:
            min_plus = gb.Matrix(a @ b)
        assert plus_times[0, 0] == 19.0
        assert min_plus[0, 0] == 6.0


class TestTerminatingOperations:
    def test_shape_nvals_dtype(self, ab, engine):
        a, b = ab
        expr = a @ b
        assert expr.shape == (2, 2)
        assert expr.nvals == 4
        assert expr.dtype == np.float64

    def test_combining_expression_with_container(self, ab, engine):
        a, b = ab
        expr = (a @ b) + a
        out = gb.Matrix(expr)
        assert out[0, 0] == 19.0 + 1.0

    def test_chained_matmul(self, ab, engine):
        a, b = ab
        out = gb.Matrix(a @ b @ a)  # (a@b) materialises, then @ a
        expected = (a.to_numpy() @ b.to_numpy()) @ a.to_numpy()
        assert np.allclose(out.to_numpy(), expected)

    def test_reduce_of_expression(self, ab, engine):
        a, b = ab
        assert gb.reduce(a @ b) == pytest.approx((a.to_numpy() @ b.to_numpy()).sum())

    def test_extract_from_expression(self, ab, engine):
        a, b = ab
        expr = a @ b
        assert expr[0, 0] == 19.0


class TestVectorExpressions:
    def test_mxv(self, engine):
        a = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        v = gb.Vector([1.0, 1.0])
        expr = a @ v
        assert isinstance(expr, MXV)
        out = gb.Vector(expr)
        assert list(out.to_numpy()) == [3.0, 7.0]

    def test_vxm(self, engine):
        a = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        v = gb.Vector([1.0, 1.0])
        expr = v @ a
        assert isinstance(expr, VXM)
        out = gb.Vector(expr)
        assert list(out.to_numpy()) == [4.0, 6.0]

    def test_vector_ewise(self, engine):
        u = gb.Vector(([1.0], [0]), shape=(2,))
        v = gb.Vector(([2.0, 5.0], [0, 1]), shape=(2,))
        add = gb.Vector(u + v)
        assert add.to_coo()[1].tolist() == [3.0, 5.0]
        mult = gb.Vector(u * v)
        assert mult.nvals == 1 and mult[0] == 2.0

    def test_vector_matmul_vector_rejected(self):
        u = gb.Vector([1.0])
        with pytest.raises(gb.InvalidValue):
            u @ u


class TestTransposeViews:
    def test_T_returns_view(self, ab):
        a, _ = ab
        assert isinstance(a.T, TransposeView)
        assert a.T.shape == (2, 2)
        assert a.T.T is a

    def test_transpose_in_matmul(self, ab, engine):
        a, b = ab
        out = gb.Matrix(a.T @ b)
        assert np.allclose(out.to_numpy(), a.to_numpy().T @ b.to_numpy())
        out2 = gb.Matrix(a @ b.T)
        assert np.allclose(out2.to_numpy(), a.to_numpy() @ b.to_numpy().T)

    def test_transpose_assignment(self, ab, engine):
        a, _ = ab
        c = gb.Matrix(shape=(2, 2), dtype=float)
        c[None] = a.T
        assert np.allclose(c.to_numpy(), a.to_numpy().T)

    def test_transpose_materialise_constructor(self, ab):
        a, _ = ab
        t = gb.Matrix(a.T)
        assert np.allclose(t.to_numpy(), a.to_numpy().T)

    def test_gb_transpose_function(self, ab, engine):
        a, _ = ab
        c = gb.Matrix(shape=(2, 2), dtype=float)
        c[None] = gb.transpose(a)
        assert np.allclose(c.to_numpy(), a.to_numpy().T)

    def test_transpose_in_ewise(self, ab, engine):
        a, b = ab
        out = gb.Matrix(a.T + b)
        assert np.allclose(out.to_numpy(), a.to_numpy().T + b.to_numpy())


class TestAccumulateProtocol:
    def test_masked_view_iadd(self, engine):
        # path[None] += graph.T @ path (Fig. 4a)
        path = gb.Vector(([0.0], [0]), shape=(3,))
        graph = gb.Matrix(([1.0, 1.0], ([0, 1], [1, 2])), shape=(3, 3))
        with gb.MinPlusSemiring, gb.Accumulator("Min"):
            path[None] += graph.T @ path
        assert path.get(0) == 0.0 and path.get(1) == 1.0

    def test_plain_iadd_on_container(self, engine):
        v = gb.Vector(([1.0], [0]), shape=(2,))
        w = gb.Vector(([2.0, 3.0], [0, 1]), shape=(2,))
        v += gb.apply(w)
        assert v.get(0) == 3.0 and v.get(1) == 3.0

    def test_iadd_uses_context_accumulator(self, engine):
        v = gb.Vector(([10.0], [0]), shape=(2,))
        w = gb.Vector(([2.0], [0]), shape=(2,))
        with gb.Accumulator("Min"):
            v[None] += gb.apply(w)
        assert v.get(0) == 2.0


class TestScalarOperands:
    def test_scalar_add_is_bound_apply(self, engine):
        v = gb.Vector(([1.0], [0]), shape=(3,))
        out = gb.Vector(v + 10)
        assert out.nvals == 1 and out[0] == 11.0  # only stored entries

    def test_scalar_mul(self, engine):
        v = gb.Vector(([3.0], [1]), shape=(3,))
        out = gb.Vector(2 * v)
        assert out[1] == 6.0

    def test_apply_with_explicit_op(self, engine):
        v = gb.Vector([1.0, -2.0])
        out = gb.Vector(gb.apply(gb.UnaryOp("AdditiveInverse"), v))
        assert list(out.to_numpy()) == [-1.0, 2.0]

    def test_apply_requires_unary(self):
        v = gb.Vector([1.0])
        with pytest.raises(gb.InvalidValue):
            gb.apply(gb.BinaryOp("Plus"), v)


class TestDtypeInference:
    def test_mxm_logical_semiring_gives_bool(self, engine):
        a = gb.Matrix([[1, 0], [1, 1]], dtype=bool)
        with gb.LogicalSemiring:
            out = gb.Matrix(a @ a)
        assert out.dtype == np.bool_

    def test_ewise_compare_gives_bool(self, engine):
        a = gb.Matrix([[1.0]])
        with gb.BinaryOp("LessThan"):
            out = gb.Matrix(a + a)
        assert out.dtype == np.bool_

    def test_mixed_dtype_promotes(self, engine):
        a = gb.Matrix([[1]], dtype=np.int32)
        b = gb.Matrix([[1.5]], dtype=np.float64)
        out = gb.Matrix(a + b)
        assert out.dtype == np.float64

    def test_explicit_output_dtype_wins(self, engine):
        a = gb.Matrix([[1.9]])
        out = gb.Matrix(a + a, dtype=int)
        assert out.dtype == np.int64 and out[0, 0] == 3


_every_engine = pytest.mark.parametrize(
    "engine_name",
    [
        "interpreted",
        "pyjit",
        pytest.param(
            "cpp",
            marks=[
                pytest.mark.cpp,
                pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
            ],
        ),
    ],
)
_both_modes = pytest.mark.parametrize(
    "nonblocking", [False, True], ids=["blocking", "nonblocking"]
)


@pytest.fixture
def statement_scope(engine_name, nonblocking):
    mode = gb.nonblocking() if nonblocking else contextlib.nullcontext()
    with gb.use_engine(engine_name), mode:
        yield


@_every_engine
@_both_modes
@pytest.mark.usefixtures("statement_scope")
class TestProductExtents:
    """A product whose operands disagree on the extent it sums over is
    refused at the statement, on every engine — the cpp kernel used to
    index ``B.indptr`` by ``A``'s column (a segfault, so these run in
    this process on purpose), pyjit leaked an ``IndexError``, and with
    no entry out of range both returned a value."""

    @pytest.mark.parametrize(
        "a_shape, a_entry, b_shape",
        [((2, 5), (1, 4), (3, 2)), ((2, 3), (1, 2), (4, 2))],
        ids=["entry-past-B", "all-entries-in-range"],
    )
    def test_mxm(self, a_shape, a_entry, b_shape):
        a = gb.Matrix(([1.0, 2.0], ([0, a_entry[0]], [0, a_entry[1]])), shape=a_shape)
        b = gb.Matrix(([1.0, 2.0], ([0, 1], [0, 1])), shape=b_shape)
        c = gb.Matrix(shape=(2, 2), dtype=float)
        with pytest.raises(gb.DimensionMismatch, match="mxm"):
            c[None] = a @ b
            c.nvals
        with pytest.raises(gb.DimensionMismatch):
            c[None] = b.T @ a.T
            c.nvals
        assert c.nvals == 0

    def test_mxv_and_vxm(self):
        a = gb.Matrix(([1.0, 2.0], ([0, 1], [0, 2])), shape=(2, 3))
        u = gb.Vector(([1.0, 2.0], [0, 4]), shape=(5,))
        w = gb.Vector(shape=(2,), dtype=float)
        with pytest.raises(gb.DimensionMismatch, match="mxv"):
            w[None] = a @ u
            w.nvals
        with pytest.raises(gb.DimensionMismatch, match="vxm"):
            w[None] = u @ a.T
            w.nvals
        with pytest.raises(gb.DimensionMismatch, match="vxm"):
            w[None] = u @ a
            w.nvals
        assert w.nvals == 0

    def test_conforming_products_with_transposes_still_run(self):
        a = gb.Matrix(([1.0, 2.0], ([0, 1], [0, 2])), shape=(2, 3))
        u = gb.Vector(([1.0, 2.0], [0, 2]), shape=(3,))
        v = gb.Vector(([3.0], [1]), shape=(2,))
        assert gb.Vector(a @ u).to_numpy().tolist() == [1.0, 4.0]
        assert gb.Vector(u @ a.T).to_numpy().tolist() == [1.0, 4.0]
        assert gb.Vector(v @ a).to_numpy().tolist() == [0.0, 0.0, 6.0]
        assert gb.Vector(a.T @ v).to_numpy().tolist() == [0.0, 0.0, 6.0]
        assert gb.Matrix(a @ a.T).shape == (2, 2) and gb.Matrix(a.T @ a).shape == (3, 3)
        assert gb.Vector((a @ a.T) @ v).shape == (2,)  # an expression operand


@_every_engine
@_both_modes
@pytest.mark.usefixtures("statement_scope")
class TestStatementExtents:
    """``C[M] = expr`` writes ``C`` entry for entry: an expression, an
    eWise operand or a mask of another extent is refused before any
    engine is entered (in nonblocking mode, when the statement runs).
    The cpp kernels sized their buffers from one of them and indexed with
    another — heap corruption, a store with 16 values behind a 4-long
    ``indptr``, a segfault on an undersized mask — so these too run in
    this process on purpose; pyjit returned a size-3 vector holding
    index 3."""

    @staticmethod
    def _refused(out, statement):
        kept = out.to_numpy().tolist()
        with pytest.raises(gb.DimensionMismatch):
            statement()
            out.nvals
        assert out.to_numpy().tolist() == kept

    def test_vector_statements(self):
        a = gb.Matrix(np.arange(1.0, 17.0).reshape(4, 4))
        u = gb.Vector(np.arange(1.0, 5.0))
        w = gb.Vector(([7.0], [1]), shape=(3,))

        def mxv():
            w[None] = a @ u

        def vxm():
            w[None] = u @ a

        def apply():
            w[None] = gb.apply(u)

        def copy():
            w[None] = u

        def ewise():
            w[None] = u + u

        def reduce_rows():
            w[None] = gb.reduce(gb.Monoid("Plus", "PlusIdentity"), a)

        for statement in (mxv, vxm, apply, copy, ewise, reduce_rows):
            self._refused(w, statement)

    def test_matrix_statements(self):
        a = gb.Matrix(np.arange(1.0, 17.0).reshape(4, 4))
        b = gb.Matrix(np.arange(2.0, 18.0).reshape(4, 4))
        c = gb.Matrix(([7.0], ([1], [2])), shape=(3, 3))

        def copy():
            c[None] = a

        def apply():
            c[None] = gb.apply(a.T)

        def mxm():
            c[None] = a @ b

        def ewise_add():
            c[None] = a + b

        def ewise_mult():
            c[None] = a * b

        def transpose():
            c[None] = a.T

        def accumulate():
            c[None] += a

        for statement in (copy, apply, mxm, ewise_add, ewise_mult, transpose, accumulate):
            self._refused(c, statement)

    def test_ewise_operands_of_different_extents(self):
        a = gb.Matrix(np.arange(1.0, 17.0).reshape(4, 4))
        small = gb.Matrix([[1.0, 2.0], [3.0, 4.0]])
        wide = gb.Matrix(np.ones((2, 4)))
        c = gb.Matrix(([7.0], ([1], [2])), shape=(4, 4))
        u, short = gb.Vector(np.arange(1.0, 5.0)), gb.Vector([1.0, 2.0])
        w = gb.Vector(([7.0], [1]), shape=(4,))

        def add():
            c[None] = a + small

        def mult():
            c[None] = a * small

        def transposed():
            c[None] = a + wide.T.T

        def nested():
            c[None] = gb.apply(a + small)

        for statement in (add, mult, transposed, nested):
            self._refused(c, statement)

        def vec_add():
            w[None] = u + short

        def vec_mult():
            w[None] = u * short

        for statement in (vec_add, vec_mult):
            self._refused(w, statement)

    def test_undersized_masks(self):
        n = 2000  # the cpp merge walked 2000 rows of a 3-long mask indptr
        diag = gb.Matrix((np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n))
        m = gb.Matrix([[True, True], [True, True]])
        c = gb.Matrix(([7.0], ([1], [2])), shape=(n, n))
        with pytest.raises(gb.DimensionMismatch, match="mask"):
            c[m] = diag + diag
            c.nvals
        with pytest.raises(gb.DimensionMismatch, match="mask"):
            c[~m] = diag @ diag
            c.nvals
        assert c.nvals == 1 and c[1, 2] == 7.0
        u = gb.Vector(np.ones(n))
        vm = gb.Vector([True, True])
        w = gb.Vector(([7.0], [1]), shape=(n,))
        with pytest.raises(gb.DimensionMismatch, match="mask"):
            w[vm] = diag @ u
            w.nvals
        with pytest.raises(gb.DimensionMismatch, match="mask"):
            w[vm] = gb.apply(u)
            w.nvals
        assert w.nvals == 1 and w[1] == 7.0

    def test_conforming_statements_still_run(self):
        a = gb.Matrix([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
        m = gb.Matrix([[True, False], [False, True], [True, True]])
        c = gb.Matrix(shape=(3, 2), dtype=float)
        c[m] = a.T + a.T
        assert c.to_numpy().tolist() == [[2.0, 0.0], [0.0, 6.0], [0.0, 8.0]]
        c[None] = gb.apply(a.T)
        assert c.to_numpy().tolist() == [[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]]
        w = gb.Vector(shape=(2,), dtype=float)
        w[gb.Vector([True, False])] = a @ gb.Vector([1.0, 1.0, 1.0])
        assert w.to_numpy().tolist() == [3.0, 0.0]
