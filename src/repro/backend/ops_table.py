"""The GBTL operator table (paper Fig. 6).

Every operator the DSL can reference is defined here once, with three
realizations:

* a NumPy callable used by the vectorised backend and by the generated
  Python JIT modules,
* a C++ expression template used by the C++ JIT backend (the analog of the
  ``-DADD_BINOP=Plus`` defines in the paper's Fig. 9),
* identity elements for the monoid-forming operators, as dtype-dependent
  values (``MinIdentity`` is ``+inf`` for floats but ``INT64_MAX`` for
  64-bit integers, etc.).

The paper restricts user programs to exactly this table ("The DSL can only
reference operators defined in GBTL's algebra.hpp file"); we enforce the
same restriction and raise :class:`~repro.exceptions.UnknownOperator`
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import UnknownOperator
from ..types import normalize_dtype

__all__ = [
    "UNARY_OPS",
    "BINARY_OPS",
    "IDENTITIES",
    "DEFAULT_IDENTITY_NAME",
    "unary_def",
    "binary_def",
    "identity_value",
    "binary_result_dtype",
    "unary_domain",
    "apply_binary",
    "apply_unary",
    "reduce_ufunc",
    "segment_reduce_values",
]


def _c_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Division with C++ semantics: true division for floats, division
    truncated toward zero for integers (NumPy's ``//`` floors instead)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if np.issubdtype(np.result_type(a, b), np.floating):
        return np.true_divide(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.true_divide(a, b)
    q = np.nan_to_num(q, nan=0.0, posinf=0.0, neginf=0.0)
    return np.trunc(q).astype(np.result_type(a, b))


def _first(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.broadcast_arrays(a, b)[0].copy()


def _second(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.broadcast_arrays(a, b)[1].copy()


def _minus(a, b):
    """``a - b``; two ``bool`` operands combine as ``bool`` — GBTL's
    ``Minus<bool>`` is ``bool(a - b)``, which is XOR — where NumPy
    refuses boolean subtract."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == b.dtype == np.bool_:
        return np.logical_xor(a, b)
    return np.subtract(a, b)


def _additive_inverse(a):
    """``-a``; a ``bool`` operand is negated as the integer C++ promotes
    it to (``-true`` is ``-1``, true again in a ``bool`` output), where
    NumPy refuses boolean negative."""
    a = np.asarray(a)
    return np.negative(a.astype(np.int64) if a.dtype == np.bool_ else a)


def _logical_xor(a, b):
    return np.logical_xor(np.asarray(a).astype(bool), np.asarray(b).astype(bool))


def _mult_inverse(a):
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.floating):
        return np.reciprocal(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.true_divide(1, a)
    return np.nan_to_num(q, nan=0.0, posinf=0.0, neginf=0.0).astype(a.dtype)


@dataclass(frozen=True)
class UnaryOpDef:
    """One entry of the unary-operator table."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    cxx: str  #: C++ expression with ``{a}`` placeholder and ``T`` output type


@dataclass(frozen=True)
class BinaryOpDef:
    """One entry of the binary-operator table.

    ``kind`` drives result-dtype inference: comparisons and logical
    operators always yield ``bool``; arithmetic yields the promoted operand
    dtype; the selectors ``First``/``Second`` yield the dtype of the chosen
    operand.
    """

    name: str
    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cxx: str  #: C++ expression with ``{a}``/``{b}`` placeholders
    kind: str = "arith"  #: one of arith|compare|logical|select
    #: associative+commutative NumPy ufunc usable for monoid reductions
    #: (``None`` when the operator cannot form a monoid, e.g. Minus).
    reduce: np.ufunc | None = field(default=None)


UNARY_OPS: dict[str, UnaryOpDef] = {
    d.name: d
    for d in (
        UnaryOpDef("Identity", lambda a: np.asarray(a).copy(), "({a})"),
        UnaryOpDef("AdditiveInverse", _additive_inverse, "(-({a}))"),
        UnaryOpDef(
            "LogicalNot", lambda a: np.logical_not(np.asarray(a).astype(bool)), "(!({a}))"
        ),
        UnaryOpDef("MultiplicativeInverse", _mult_inverse, "(T(1)/({a}))"),
    )
}

BINARY_OPS: dict[str, BinaryOpDef] = {
    d.name: d
    for d in (
        BinaryOpDef("Plus", np.add, "(({a}) + ({b}))", "arith", np.add),
        BinaryOpDef("Minus", _minus, "(({a}) - ({b}))", "arith", None),
        BinaryOpDef("Times", np.multiply, "(({a}) * ({b}))", "arith", np.multiply),
        BinaryOpDef("Div", _c_div, "(({b}) == 0 ? T(0) : T(({a}) / ({b})))", "arith", None),
        BinaryOpDef("Min", np.minimum,
                    "((({a}) != ({a})) ? ({a}) : ((({a}) < ({b})) ? ({a}) : ({b})))",
                    "arith", np.minimum),
        BinaryOpDef("Max", np.maximum,
                    "((({a}) != ({a})) ? ({a}) : ((({a}) > ({b})) ? ({a}) : ({b})))",
                    "arith", np.maximum),
        BinaryOpDef("First", _first, "({a})", "select", None),
        BinaryOpDef("Second", _second, "({b})", "select", None),
        BinaryOpDef(
            "LogicalOr",
            lambda a, b: np.logical_or(np.asarray(a).astype(bool), np.asarray(b).astype(bool)),
            "(bool({a}) || bool({b}))",
            "logical",
            np.logical_or,
        ),
        BinaryOpDef(
            "LogicalAnd",
            lambda a, b: np.logical_and(np.asarray(a).astype(bool), np.asarray(b).astype(bool)),
            "(bool({a}) && bool({b}))",
            "logical",
            np.logical_and,
        ),
        BinaryOpDef(
            "LogicalXor", _logical_xor, "(bool({a}) != bool({b}))", "logical", np.logical_xor
        ),
        BinaryOpDef("Equal", np.equal, "(({a}) == ({b}))", "compare", np.equal),
        BinaryOpDef("NotEqual", np.not_equal, "(({a}) != ({b}))", "compare", np.not_equal),
        BinaryOpDef("GreaterThan", np.greater, "(({a}) > ({b}))", "compare", None),
        BinaryOpDef("LessThan", np.less, "(({a}) < ({b}))", "compare", None),
        BinaryOpDef("GreaterEqual", np.greater_equal, "(({a}) >= ({b}))", "compare", None),
        BinaryOpDef("LessEqual", np.less_equal, "(({a}) <= ({b}))", "compare", None),
    )
}

#: named identity elements, as used in ``gb.Monoid("Min", "MinIdentity")``
#: (paper Sec. III).  Values are dtype-dependent, hence callables.
IDENTITIES: dict[str, Callable[[np.dtype], object]] = {}


def _register_identity(name):
    def deco(fn):
        IDENTITIES[name] = fn
        return fn

    return deco


@_register_identity("PlusIdentity")
def _plus_identity(dtype: np.dtype):
    return dtype.type(0)


@_register_identity("TimesIdentity")
def _times_identity(dtype: np.dtype):
    return dtype.type(1)


@_register_identity("MinIdentity")
def _min_identity(dtype: np.dtype):
    if dtype.kind == "f":
        return dtype.type(np.inf)
    if dtype.kind == "b":
        return np.bool_(True)
    return np.iinfo(dtype).max


@_register_identity("MaxIdentity")
def _max_identity(dtype: np.dtype):
    if dtype.kind == "f":
        return dtype.type(-np.inf)
    if dtype.kind == "b":
        return np.bool_(False)
    return np.iinfo(dtype).min


@_register_identity("LogicalOrIdentity")
def _lor_identity(dtype: np.dtype):
    return dtype.type(0)


@_register_identity("LogicalAndIdentity")
def _land_identity(dtype: np.dtype):
    return dtype.type(1)


@_register_identity("LogicalXorIdentity")
def _lxor_identity(dtype: np.dtype):
    return dtype.type(0)


@_register_identity("EqualIdentity")
def _eq_identity(dtype: np.dtype):
    return dtype.type(1)


#: binary-op name -> name of its canonical monoid identity
DEFAULT_IDENTITY_NAME: dict[str, str] = {
    "Plus": "PlusIdentity",
    "Times": "TimesIdentity",
    "Min": "MinIdentity",
    "Max": "MaxIdentity",
    "LogicalOr": "LogicalOrIdentity",
    "LogicalAnd": "LogicalAndIdentity",
    "LogicalXor": "LogicalXorIdentity",
    "Equal": "EqualIdentity",
}

#: C++ spellings of the named identities (``T`` is the element type)
IDENTITY_CXX: dict[str, str] = {
    "PlusIdentity": "T(0)",
    "TimesIdentity": "T(1)",
    "MinIdentity": "(std::numeric_limits<T>::has_infinity"
    " ? std::numeric_limits<T>::infinity() : std::numeric_limits<T>::max())",
    "MaxIdentity": "(std::numeric_limits<T>::has_infinity"
    " ? -std::numeric_limits<T>::infinity() : std::numeric_limits<T>::lowest())",
    "LogicalOrIdentity": "T(0)",
    "LogicalAndIdentity": "T(1)",
    "LogicalXorIdentity": "T(0)",
    "EqualIdentity": "T(1)",
}


#: names of the built-in (Fig. 6) operators; user registrations may not
#: shadow them, and the C++ codegen uses this to distinguish GBTL
#: functors from inline user-defined ones.
BUILTIN_UNARY = frozenset(UNARY_OPS)
BUILTIN_BINARY = frozenset(BINARY_OPS)

_NAME_RULES = (
    "operator names must be valid Python/C++ identifiers starting with an "
    "uppercase letter (GBTL convention)"
)


def _check_user_name(name: str, table: dict, builtin: frozenset) -> None:
    if not (name.isidentifier() and name[0].isupper()):
        raise UnknownOperator(f"bad operator name {name!r}: {_NAME_RULES}")
    if name in builtin:
        raise UnknownOperator(f"cannot redefine the built-in operator {name!r}")
    if name in table:
        raise UnknownOperator(f"operator {name!r} is already registered")


def _vectorize1(fn):
    uf = np.frompyfunc(fn, 1, 1)

    def wrapped(a):
        a = np.asarray(a)
        out = np.asarray(uf(a))  # frompyfunc hands back a bare scalar for 0-d input
        return out.astype(a.dtype) if a.size else a

    return wrapped


def _vectorize2(fn):
    uf = np.frompyfunc(fn, 2, 1)

    def wrapped(a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.asarray(uf(a, b))  # frompyfunc hands back a bare scalar for 0-d inputs
        res_dt = np.result_type(a, b)
        return out.astype(res_dt) if out.size else np.empty(0, res_dt)

    return wrapped


def register_unary_op(name: str, func, cxx: str | None = None, vectorized: bool = False):
    """Register a user-defined unary operator (paper Sec. VIII future
    work: "user-defined operators for use in the PyGB operations").

    *func* maps one scalar to one scalar (or, with ``vectorized=True``, an
    array to an array).  *cxx* is an optional C++ expression with an
    ``{a}`` placeholder and element type ``T``, the dtype *func* yields
    over the operand's (:func:`unary_domain`); without it, only the
    Python engines can execute the operator.  Registration is per-process
    — a fresh interpreter must register the operator before any cached
    module referencing it is loaded.
    """
    _check_user_name(name, UNARY_OPS, BUILTIN_UNARY)
    impl = func if vectorized else _vectorize1(func)
    d = UnaryOpDef(name, impl, cxx or "")
    UNARY_OPS[name] = d
    return d


def register_binary_op(
    name: str,
    func,
    cxx: str | None = None,
    kind: str = "arith",
    associative: bool = False,
    vectorized: bool = False,
):
    """Register a user-defined binary operator.

    *func* maps two scalars to one (or arrays with ``vectorized=True``);
    *cxx* is an optional C++ expression with ``{a}``/``{b}`` placeholders.
    ``associative=True`` additionally makes the operator usable as a
    monoid ``⊕`` (reductions run through ``np.frompyfunc``'s generic
    ``reduceat``, slower than the built-in ufuncs but exact).
    """
    _check_user_name(name, BINARY_OPS, BUILTIN_BINARY)
    if kind not in ("arith", "compare", "logical", "select"):
        raise UnknownOperator(f"bad operator kind {kind!r}")
    impl = func if vectorized else _vectorize2(func)
    reduce_uf = None
    if associative:
        reduce_uf = np.frompyfunc(
            (lambda a, b: func(a, b)) if not vectorized else func, 2, 1
        )
    d = BinaryOpDef(name, impl, cxx or "", kind, reduce_uf)
    BINARY_OPS[name] = d
    return d


def unregister_op(name: str) -> None:
    """Remove a user-registered operator (built-ins cannot be removed).
    Primarily for test isolation."""
    if name in BUILTIN_UNARY or name in BUILTIN_BINARY:
        raise UnknownOperator(f"cannot unregister the built-in operator {name!r}")
    UNARY_OPS.pop(name, None)
    BINARY_OPS.pop(name, None)


def unary_def(name: str) -> UnaryOpDef:
    """Look up a unary operator by GBTL name, or raise ``UnknownOperator``."""
    try:
        return UNARY_OPS[name]
    except KeyError:
        raise UnknownOperator(
            f"unknown unary operator {name!r}; valid names: {sorted(UNARY_OPS)}"
        ) from None


def binary_def(name: str) -> BinaryOpDef:
    """Look up a binary operator by GBTL name, or raise ``UnknownOperator``."""
    try:
        return BINARY_OPS[name]
    except KeyError:
        raise UnknownOperator(
            f"unknown binary operator {name!r}; valid names: {sorted(BINARY_OPS)}"
        ) from None


def identity_value(name_or_value, dtype) -> object:
    """Resolve an identity given either a named identity (``"MinIdentity"``)
    or a literal value, as a scalar of *dtype*."""
    dt = normalize_dtype(dtype)
    if isinstance(name_or_value, str):
        try:
            return IDENTITIES[name_or_value](dt)
        except KeyError:
            raise UnknownOperator(
                f"unknown identity {name_or_value!r}; valid names: {sorted(IDENTITIES)}"
            ) from None
    return dt.type(name_or_value)


def binary_result_dtype(name: str, a_dtype, b_dtype) -> np.dtype:
    """Natural output dtype of binary op *name* on the given operand dtypes,
    following the C++ rules of Sec. V (comparisons -> bool, arithmetic ->
    promoted operand type, selectors -> chosen operand type)."""
    d = binary_def(name)
    a_dtype = normalize_dtype(a_dtype)
    b_dtype = normalize_dtype(b_dtype)
    if d.kind in ("compare", "logical"):
        return np.dtype(np.bool_)
    if d.name == "First":
        return a_dtype
    if d.name == "Second":
        return b_dtype
    res = np.promote_types(a_dtype, b_dtype)
    # C++ promotes bool operands of arithmetic operators to int
    if res == np.bool_ and d.kind == "arith":
        res = np.dtype(np.int64)
    return np.dtype(res)


def apply_binary(name: str, a: np.ndarray, b: np.ndarray, out_dtype=None) -> np.ndarray:
    """Elementwise application of binary op *name*, cast to *out_dtype*."""
    d = binary_def(name)
    res = d.func(a, b)
    if out_dtype is not None:
        res = np.asarray(res).astype(normalize_dtype(out_dtype), copy=False)
    return np.asarray(res)


def unary_domain(name: str, dtype) -> np.dtype:
    """The dtype unary operator *name* computes at over *dtype* operands
    before any cast to the output — what :func:`apply_unary` yields
    (``LogicalNot`` at ``bool``, ``AdditiveInverse`` of a ``bool`` at
    ``int64``, a user-defined operator's per-element Python function at
    the operand's dtype), so ``MultiplicativeInverse`` of ``0.5`` into
    ``int64`` is ``int64(2.0)``."""
    return np.asarray(unary_def(name).func(np.zeros(0, normalize_dtype(dtype)))).dtype


def apply_unary(name: str, a: np.ndarray, out_dtype=None) -> np.ndarray:
    """Elementwise application of unary op *name*, cast to *out_dtype*."""
    d = unary_def(name)
    res = d.func(np.asarray(a))
    if out_dtype is not None:
        res = np.asarray(res).astype(normalize_dtype(out_dtype), copy=False)
    return np.asarray(res)


def reduce_ufunc(name: str) -> np.ufunc:
    """The associative ufunc used for monoid reductions with op *name*."""
    d = binary_def(name)
    if d.reduce is None:
        raise UnknownOperator(
            f"binary operator {name!r} is not associative and cannot form a monoid"
        )
    return d.reduce


def segment_reduce_values(name: str, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Reduce *values* over contiguous segments beginning at *starts* using
    the monoid ufunc for op *name*.

    Every segment must be non-empty (callers build *starts* from grouped,
    sorted data, so this invariant holds by construction; NumPy's
    ``reduceat`` would silently misbehave otherwise).
    """
    uf = reduce_ufunc(name)
    if values.size == 0:
        return values[:0]
    logical = binary_def(name).kind in ("logical",)
    vals = values.astype(bool) if logical else values
    out = uf.reduceat(vals, starts)
    return out


def fold_duplicates(name: str, first: np.ndarray, values: np.ndarray):
    """Combine runs of duplicate keys in sorted COO data with op *name*;
    ``first[k]`` marks the first entry of each run.  Returns ``(starts,
    folded)``: where each run starts and its one value — the last
    (``Second``, GBTL's build behaviour), the first, or the monoid
    reduction of the run."""
    starts = np.flatnonzero(first)
    if name == "Second":
        return starts, values[np.append(starts[1:], values.size) - 1]
    if name == "First":
        return starts, values[starts]
    reduced = segment_reduce_values(name, values, starts)
    return starts, reduced.astype(values.dtype, copy=False)
