"""Deferred expression objects (paper Sec. IV, "PyGB uses deferred
operator evaluation to enable the expression syntax without excessive
copying of data").

``A @ B`` does not compute anything: it returns an :class:`MXM` object
wrapping the operands and the semiring captured from the enclosing
``with`` block.  Operands that are themselves expressions stay deferred
too, so ``apply(A @ u)`` is a two-node DAG rather than a forced temporary
plus a node.  The tree is evaluated

* inside ``C.__setitem__`` — :func:`repro.core.plan.evaluate` runs the
  root node into ``C`` with ``C``'s mask, accumulator and replace flag,
  each deferred operand materialising (once) on the way down; or
* by a *terminating operation*: any use that treats the expression like a
  container (reading ``nvals``, indexing it, converting it) forces
  evaluation into a fresh container, which is what plain ``C = A @ B``
  yields.

This is the runtime analog of C++ expression templates the paper draws
the comparison to.
"""

from __future__ import annotations

import numbers

import numpy as np

from .. import schedule as _schedule
from ..backend.kernels import OpDesc
from ..backend.ops_table import binary_result_dtype
from ..exceptions import DimensionMismatch, InvalidValue
from . import operators
from .context import current_backend_engine

__all__ = [
    "Expression",
    "TransposeView",
    "MXM",
    "MXV",
    "VXM",
    "EWiseAdd",
    "EWiseMult",
    "Apply",
    "ReduceRows",
    "ExtractMat",
    "ExtractVec",
    "Select",
    "Kronecker",
    "TransposeExpr",
]


_Matrix = _Vector = _evaluate = None  # bound by the first Expression.new()


def _is_scalar(value) -> bool:
    return isinstance(value, (numbers.Number, np.number, np.bool_))


def _unwrap(operand):
    """``(dsl_container, transpose_flag)`` for a container or its ``.T``;
    expressions pass through untransposed (``.T`` on an expression is a
    terminating operation, so they never carry a flag)."""
    if isinstance(operand, TransposeView):
        return operand.parent, True
    return operand, False


# -- deferred-operand helpers: expressions stay lazy in operand slots ----

def _store_of(operand):
    """Backend store of an operand, materialising expressions (once —
    ``new`` caches) at evaluation time."""
    if isinstance(operand, Expression):
        return operand.new()._store
    return operand._store


def _shape_of(operand):
    if isinstance(operand, Expression):
        return operand.result_shape()
    return operand.shape


def _dtype_of(operand):
    if isinstance(operand, Expression):
        return operand.result_dtype()
    return operand.dtype


def _is_vec(operand) -> bool:
    if isinstance(operand, Expression):
        return not operand.produces_matrix
    return bool(getattr(operand, "is_vector", False))


def _check_inner(kind: str, a, ta: bool, other, axis: int) -> None:
    """A product's operands must agree on the extent it sums over: the
    columns of ``op(a)`` (its rows for ``vxm``) against axis *axis* of
    *other*.  Checked where the statement is written, for every engine —
    a compiled kernel indexes one operand by the other's coordinates."""
    over_rows = (kind == "vxm") != ta
    inner, extent = _shape_of(a)[0 if over_rows else 1], _shape_of(other)[axis]
    if inner != extent:
        raise DimensionMismatch(f"{kind}: inner dimensions disagree ({inner} vs {extent})")


class Expression:
    """Base class for all deferred operations."""

    #: subclasses set: does this expression produce a Matrix or a Vector?
    produces_matrix = True
    #: the attribute names holding operands that may themselves be
    #: deferred expressions
    operand_slots: tuple = ()

    def __init__(self):
        self._materialized = None

    # -- interface implemented by subclasses -----------------------------
    def result_shape(self):
        raise NotImplementedError

    def result_dtype(self) -> np.dtype:
        raise NotImplementedError

    def eval_into(self, out, desc: OpDesc):
        """Evaluate directly into DSL container *out* (no temporaries)."""
        raise NotImplementedError

    # -- materialisation --------------------------------------------------
    def new(self, dtype=None):
        """Force evaluation into a brand-new container (the behaviour of
        plain ``C = A @ B``).

        The natural-dtype result is computed once and cached on the
        expression, so an expression used as an operand of two enclosing
        expressions is not evaluated twice; an explicit *dtype* is a cast
        of the cached result."""
        global _Matrix, _Vector, _evaluate
        if _Matrix is None:
            # bound on first use: the containers import this module
            from .matrix import Matrix as _Matrix
            from .plan import evaluate as _evaluate
            from .vector import Vector as _Vector
        cls = _Matrix if self.produces_matrix else _Vector
        if self._materialized is None:
            out = cls(shape=self.result_shape(), dtype=self.result_dtype())
            _evaluate(self, out, OpDesc())
            self._materialized = out
        if dtype is None:
            return self._materialized
        return cls(self._materialized, dtype=dtype)

    # -- composition: operands stay deferred ------------------------------
    def __matmul__(self, other):
        if self.produces_matrix:
            if _is_vec(other):
                return MXV(self, other)
            return MXM(self, other)
        if _is_vec(other):
            raise InvalidValue("a Vector can only be matmul-ed with a Matrix")
        return VXM(self, other)

    def __rmatmul__(self, other):
        if self.produces_matrix:
            return MXM(other, self)
        return MXV(other, self)

    def __add__(self, other):
        if _is_scalar(other):
            return Apply(self, operators.UnaryOp(operators.resolve_ewise_add_op(), other))
        return EWiseAdd(self, other)

    def __radd__(self, other):
        if _is_scalar(other):
            return Apply(
                self, operators.UnaryOp(operators.resolve_ewise_add_op(), other, bind="first")
            )
        return EWiseAdd(other, self)

    def __mul__(self, other):
        if _is_scalar(other):
            return Apply(self, operators.UnaryOp(operators.resolve_ewise_mult_op(), other))
        return EWiseMult(self, other)

    def __rmul__(self, other):
        if _is_scalar(other):
            return Apply(
                self, operators.UnaryOp(operators.resolve_ewise_mult_op(), other, bind="first")
            )
        return EWiseMult(other, self)

    # -- shape/dtype are derivable without evaluation ----------------------
    @property
    def shape(self):
        return self.result_shape()

    @property
    def dtype(self):
        return np.dtype(self.result_dtype())

    # -- terminating operations (treat the expression like a container) --
    @property
    def nvals(self):
        return self.new().nvals

    @property
    def T(self):
        return self.new().T

    def __invert__(self):
        return ~self.new()

    def __getitem__(self, key):
        return self.new()[key]

    def to_numpy(self):
        return self.new().to_numpy()


class TransposeView:
    """``A.T`` — a zero-copy view; materialised only when assigned
    (``C[None] = A.T``) or combined outside a transposing operation."""

    __slots__ = ("parent",)

    def __init__(self, parent):
        self.parent = parent

    @property
    def T(self):
        return self.parent

    @property
    def shape(self):
        r, c = self.parent.shape
        return (c, r)

    @property
    def dtype(self):
        return self.parent.dtype

    @property
    def nvals(self):
        return self.parent.nvals

    def __matmul__(self, other):
        if _is_vec(other):
            return MXV(self, other)
        return MXM(self, other)

    def __rmatmul__(self, other):
        if _is_vec(other):
            return VXM(other, self)
        return MXM(other, self)

    def __add__(self, other):
        return EWiseAdd(self, other)

    def __mul__(self, other):
        return EWiseMult(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.parent!r}.T"


class MXM(Expression):
    """``A ⊕.⊗ B`` — semiring captured at construction time."""

    produces_matrix = True
    operand_slots = ("a", "b")

    def __init__(self, a, b, semiring=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.b, self.tb = _unwrap(b)
        _check_inner("mxm", self.a, self.ta, self.b, 1 if self.tb else 0)
        self.add_op, self.mult_op = operators.resolve_semiring(semiring)

    def result_shape(self):
        ar, ac = _shape_of(self.a) if not self.ta else _shape_of(self.a)[::-1]
        br, bc = _shape_of(self.b) if not self.tb else _shape_of(self.b)[::-1]
        return (ar, bc)

    def result_dtype(self):
        t = binary_result_dtype(self.mult_op, _dtype_of(self.a), _dtype_of(self.b))
        return binary_result_dtype(self.add_op, t, t)

    def eval_into(self, out, desc):
        out._store = current_backend_engine().mxm(
            out._store, _store_of(self.a), _store_of(self.b),
            self.add_op, self.mult_op, desc, self.ta, self.tb,
        )


class MXV(Expression):
    """``A ⊕.⊗ u``."""

    produces_matrix = False
    operand_slots = ("a", "u")

    def __init__(self, a, u, semiring=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.u = u
        _check_inner("mxv", self.a, self.ta, u, 0)
        self.add_op, self.mult_op = operators.resolve_semiring(semiring)
        self.schedule = _schedule.Schedule.capture()

    def result_shape(self):
        shape = _shape_of(self.a)
        return (shape[1] if self.ta else shape[0],)

    def result_dtype(self):
        t = binary_result_dtype(self.mult_op, _dtype_of(self.a), _dtype_of(self.u))
        return binary_result_dtype(self.add_op, t, t)

    def eval_into(self, out, desc):
        a_store, u_store = _store_of(self.a), _store_of(self.u)
        sched = self.schedule.resolve(
            "mxv", a_store, u_store, desc, self.ta, self.add_op
        )
        out._store = current_backend_engine().mxv(
            out._store, a_store, u_store,
            self.add_op, self.mult_op, desc, self.ta, sched=sched,
        )


class VXM(Expression):
    """``u ⊕.⊗ A`` — a row vector times a matrix (PageRank's
    ``page_rank @ m``)."""

    produces_matrix = False
    operand_slots = ("u", "a")

    def __init__(self, u, a, semiring=None):
        super().__init__()
        self.u = u
        self.a, self.ta = _unwrap(a)
        _check_inner("vxm", self.a, self.ta, u, 0)
        self.add_op, self.mult_op = operators.resolve_semiring(semiring)
        self.schedule = _schedule.Schedule.capture()

    def result_shape(self):
        shape = _shape_of(self.a)
        return (shape[0] if self.ta else shape[1],)

    def result_dtype(self):
        t = binary_result_dtype(self.mult_op, _dtype_of(self.u), _dtype_of(self.a))
        return binary_result_dtype(self.add_op, t, t)

    def eval_into(self, out, desc):
        u_store, a_store = _store_of(self.u), _store_of(self.a)
        sched = self.schedule.resolve(
            "vxm", a_store, u_store, desc, self.ta, self.add_op
        )
        out._store = current_backend_engine().vxm(
            out._store, u_store, a_store,
            self.add_op, self.mult_op, desc, self.ta, sched=sched,
        )


class _EWise(Expression):
    resolve = None  # set by subclasses
    engine_mat = ""
    engine_vec = ""
    operand_slots = ("a", "b")

    def __init__(self, a, b, op=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.b, self.tb = _unwrap(b)
        self.op = type(self).resolve(op)
        self.produces_matrix = not _is_vec(self.a)

    def result_shape(self):
        if self.produces_matrix and self.ta:
            return _shape_of(self.a)[::-1]
        return _shape_of(self.a)

    def result_dtype(self):
        return binary_result_dtype(self.op, _dtype_of(self.a), _dtype_of(self.b))

    def eval_into(self, out, desc):
        eng = current_backend_engine()
        if self.produces_matrix:
            out._store = getattr(eng, self.engine_mat)(
                out._store, _store_of(self.a), _store_of(self.b), self.op, desc,
                self.ta, self.tb,
            )
        else:
            out._store = getattr(eng, self.engine_vec)(
                out._store, _store_of(self.a), _store_of(self.b), self.op, desc
            )


class EWiseAdd(_EWise):
    """``A ⊕ B`` / ``u ⊕ v`` — union structure (``+`` operator)."""

    resolve = staticmethod(operators.resolve_ewise_add_op)
    engine_mat = "ewise_add_mat"
    engine_vec = "ewise_add_vec"


class EWiseMult(_EWise):
    """``A ⊗ B`` / ``u ⊗ v`` — intersection structure (``*`` operator)."""

    resolve = staticmethod(operators.resolve_ewise_mult_op)
    engine_mat = "ewise_mult_mat"
    engine_vec = "ewise_mult_vec"


class Apply(Expression):
    """``fᵤ(A)`` — unary operator captured from context or given
    explicitly (``gb.apply``)."""

    operand_slots = ("a",)

    def __init__(self, a, op=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.op_spec = operators.resolve_unary_spec(op)
        self.produces_matrix = not _is_vec(self.a)

    def result_shape(self):
        if self.produces_matrix and self.ta:
            return _shape_of(self.a)[::-1]
        return _shape_of(self.a)

    def result_dtype(self):
        if self.op_spec[0] == "bind":
            const = np.asarray(self.op_spec[2])
            return binary_result_dtype(self.op_spec[1], _dtype_of(self.a), const.dtype)
        if self.op_spec[1] == "LogicalNot":
            return np.dtype(np.bool_)
        return _dtype_of(self.a)

    def eval_into(self, out, desc):
        eng = current_backend_engine()
        if self.produces_matrix:
            out._store = eng.apply_mat(out._store, _store_of(self.a), self.op_spec, desc, self.ta)
        else:
            out._store = eng.apply_vec(out._store, _store_of(self.a), self.op_spec, desc)


class ReduceRows(Expression):
    """``[⊕ⱼ A(:, j)]`` — row-wise monoid reduction to a vector."""

    produces_matrix = False
    operand_slots = ("a",)

    def __init__(self, a, monoid=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.op, self.identity = operators.resolve_reduce_monoid(monoid)

    def result_shape(self):
        shape = _shape_of(self.a)
        return (shape[1] if self.ta else shape[0],)

    def result_dtype(self):
        return _dtype_of(self.a)

    def eval_into(self, out, desc):
        out._store = current_backend_engine().reduce_rows(
            out._store, _store_of(self.a), self.op, desc, self.ta
        )


class ExtractMat(Expression):
    """``A(i, j)`` as a sub-matrix."""

    produces_matrix = True
    operand_slots = ("a",)

    def __init__(self, a, rows, cols, ta=False):
        super().__init__()
        self.a = a
        self.rows = rows
        self.cols = cols
        self.ta = ta

    def result_shape(self):
        return (self.rows.size, self.cols.size)

    def result_dtype(self):
        return _dtype_of(self.a)

    def eval_into(self, out, desc):
        out._store = current_backend_engine().extract_mat(
            out._store, _store_of(self.a), self.rows, self.cols, desc, self.ta
        )


class ExtractVec(Expression):
    """``u(i)`` — also covers row/column extraction from a matrix, which
    the containers lower to an index list over the (possibly transposed)
    matrix before building this expression."""

    produces_matrix = False

    def __init__(self, source_vec_store_fn, size, indices):
        super().__init__()
        self._store_fn = source_vec_store_fn
        self._size = size
        self.indices = indices

    def result_shape(self):
        return (self.indices.size,)

    def result_dtype(self):
        return self._store_fn().dtype

    def eval_into(self, out, desc):
        out._store = current_backend_engine().extract_vec(
            out._store, self._store_fn(), self.indices, desc
        )


class Select(Expression):
    """``select(op, A, k)`` — keep stored entries satisfying a positional
    or value predicate (``GrB_select``)."""

    operand_slots = ("a",)

    def __init__(self, a, op, thunk=0):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.op = op
        self.thunk = thunk
        self.produces_matrix = not _is_vec(self.a)

    def result_shape(self):
        if self.produces_matrix and self.ta:
            return _shape_of(self.a)[::-1]
        return _shape_of(self.a)

    def result_dtype(self):
        return _dtype_of(self.a)

    def eval_into(self, out, desc):
        eng = current_backend_engine()
        if self.produces_matrix:
            out._store = eng.select_mat(
                out._store, _store_of(self.a), self.op, self.thunk, desc, self.ta
            )
        else:
            out._store = eng.select_vec(
                out._store, _store_of(self.a), self.op, self.thunk, desc
            )


class Kronecker(Expression):
    """``kron(A, B)`` over a binary ``⊗`` (``GrB_kronecker``)."""

    produces_matrix = True
    operand_slots = ("a", "b")

    def __init__(self, a, b, op=None):
        super().__init__()
        self.a, self.ta = _unwrap(a)
        self.b, self.tb = _unwrap(b)
        self.op = operators.resolve_ewise_mult_op(op)

    def result_shape(self):
        ar, ac = _shape_of(self.a) if not self.ta else _shape_of(self.a)[::-1]
        br, bc = _shape_of(self.b) if not self.tb else _shape_of(self.b)[::-1]
        return (ar * br, ac * bc)

    def result_dtype(self):
        return binary_result_dtype(self.op, _dtype_of(self.a), _dtype_of(self.b))

    def eval_into(self, out, desc):
        out._store = current_backend_engine().kronecker(
            out._store, _store_of(self.a), _store_of(self.b), self.op, desc,
            self.ta, self.tb,
        )


class TransposeExpr(Expression):
    """``Aᵀ`` in assignment position: ``C[M] = A.T``."""

    produces_matrix = True
    operand_slots = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def result_shape(self):
        return _shape_of(self.a)[::-1]

    def result_dtype(self):
        return _dtype_of(self.a)

    def eval_into(self, out, desc):
        out._store = current_backend_engine().transpose(out._store, _store_of(self.a), desc)
