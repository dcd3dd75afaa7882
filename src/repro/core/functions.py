"""Free-function operations of the DSL: ``reduce``, ``apply`` and
``transpose`` (Table I rows *reduce*, *apply*, *transpose*).

Signatures follow the paper's usage:

* ``gb.reduce(A)`` / ``gb.reduce(u)`` — reduce to a Python scalar with the
  monoid from context (defaulting to the Plus monoid, as in Fig. 5's
  triangle count and Fig. 7's ``squared_error``);
* ``gb.reduce(monoid, A)`` — row-wise reduction producing a deferred
  vector expression (Table I *reduce (row)*);
* ``gb.apply(A)`` — unary apply with the operator from context (Fig. 7);
  ``gb.apply(op, A)`` passes it explicitly;
* ``gb.transpose(A)`` — deferred ``Aᵀ`` for assignment position.
"""

from __future__ import annotations

from ..exceptions import InvalidValue
from . import operators
from .context import current_backend_engine
from .expressions import (
    Apply,
    EWiseAdd,
    EWiseMult,
    Expression,
    Kronecker,
    ReduceRows,
    Select,
    TransposeExpr,
    TransposeView,
    _store_of,
)

__all__ = ["reduce", "apply", "transpose", "select", "kron"]


def _materialize(x):
    return x.new() if isinstance(x, Expression) else x


def reduce(*args):
    """``reduce(x)`` -> scalar; ``reduce(monoid, x)`` -> scalar for a
    vector operand or a deferred row-reduction for a matrix operand."""
    if len(args) == 1:
        monoid, operand = None, args[0]
    elif len(args) == 2:
        monoid, operand = args
    else:
        raise InvalidValue(f"reduce takes 1 or 2 arguments, got {len(args)}")
    if isinstance(operand, TransposeView):
        operand = operand.parent  # reduction to scalar ignores transposition
    if isinstance(operand, Expression):
        is_vector = not operand.produces_matrix
        if monoid is not None and not is_vector:
            return ReduceRows(operand, monoid)  # stays deferred
        op, identity = operators.resolve_reduce_monoid(monoid)
        eng = current_backend_engine()
        # fold an elementwise producer straight into the reduction when
        # the engine has the fused kernel
        if is_vector and operand._materialized is None:
            fused_name = {EWiseAdd: "ewise_add_vec_reduce_scalar",
                          EWiseMult: "ewise_mult_vec_reduce_scalar"}.get(type(operand))
            if (
                fused_name is not None
                and getattr(eng, "supports_fusion", False)
                and hasattr(eng, fused_name)
            ):
                result = getattr(eng, fused_name)(
                    _store_of(operand.a), _store_of(operand.b),
                    operand.op, op, identity,
                )
                return result.item() if hasattr(result, "item") else result
        operand = operand.new()
    is_vector = getattr(operand, "is_vector", None)
    if is_vector is None:
        raise InvalidValue("reduce expects a Matrix or Vector operand")
    if monoid is not None and not is_vector:
        return ReduceRows(operand, monoid)
    op, identity = operators.resolve_reduce_monoid(monoid)
    eng = current_backend_engine()
    if is_vector:
        result = eng.reduce_vec_scalar(operand._store, op, identity)
    else:
        result = eng.reduce_mat_scalar(operand._store, op, identity)
    return result.item() if hasattr(result, "item") else result


def apply(*args):
    """``apply(x)`` with a context operator or ``apply(op, x)`` — a
    deferred elementwise map over the stored values."""
    if len(args) == 1:
        op, operand = None, args[0]
    elif len(args) == 2:
        op, operand = args
    else:
        raise InvalidValue(f"apply takes 1 or 2 arguments, got {len(args)}")
    if op is not None and not isinstance(op, operators.UnaryOp):
        raise InvalidValue("the explicit operator for apply must be a UnaryOp")
    return Apply(operand, op)  # operand stays deferred


def transpose(a):
    """Deferred transpose: ``C[M] = gb.transpose(A)``."""
    a = _materialize(a)
    if isinstance(a, TransposeView):
        return a.parent
    return TransposeExpr(a)


def select(op, operand, thunk=0):
    """``C[M] = gb.select("Tril", A)`` — deferred entry filter by a
    positional (``Tril``/``Triu``/``Diag``/``Offdiag``) or value
    (``NonZero``, ``ValueGT`` …) predicate with optional scalar *thunk*."""
    from ..backend.kernels import SELECT_OPS

    if op not in SELECT_OPS:
        raise InvalidValue(
            f"unknown select operator {op!r}; valid names: {sorted(SELECT_OPS)}"
        )
    return Select(operand, op, thunk)


def kron(a, b, op=None):
    """``C[M] = gb.kron(A, B)`` — deferred Kronecker product; ``⊗`` comes
    from *op* or the operator context (default ``Times``)."""
    return Kronecker(a, b, op)
