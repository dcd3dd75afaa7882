"""PyGB operator objects: ``UnaryOp``, ``BinaryOp``, ``Monoid``,
``Semiring`` and ``Accumulator`` (paper Sec. III, Fig. 6).

All operator objects are context managers — entering one pushes it onto
the operator stack of :mod:`~repro.core.context` so subsequent operations
can infer it ("PyGB operators are Python objects ... brought into
context").  They can also be passed explicitly to ``gb.apply`` and
``gb.reduce``.

Construction follows the paper's examples::

    AdditiveInv = gb.UnaryOp("AdditiveInverse")
    ScaleOp     = gb.UnaryOp("Times", 0.85)          # Bind2nd form (Fig. 7)
    PlusOp      = gb.BinaryOp("Plus")
    PlusMonoid  = gb.Monoid(PlusOp, 0)
    MinMonoid   = gb.Monoid("Min", "MinIdentity")
    ArithmeticSR = gb.Semiring(PlusMonoid, "Times")
    MinAccum    = gb.Accumulator("Min")
"""

from __future__ import annotations

from ..backend import ops_table
from ..exceptions import UnknownOperator
from . import context

__all__ = [
    "UnaryOp",
    "BinaryOp",
    "Monoid",
    "Semiring",
    "Accumulator",
    "resolve_semiring",
    "resolve_ewise_add_op",
    "resolve_ewise_mult_op",
    "resolve_accum_op",
    "resolve_reduce_monoid",
    "resolve_unary_spec",
]


class _ContextOperator:
    """Base: every operator participates in ``with`` blocks."""

    def __enter__(self):
        context.push(self)
        return self

    def __exit__(self, *exc):
        context.pop(self)
        return False


class BinaryOp(_ContextOperator):
    """A named GBTL binary operator (Fig. 6)."""

    __slots__ = ("name",)

    def __init__(self, name):
        if isinstance(name, BinaryOp):
            name = name.name
        ops_table.binary_def(name)  # validate eagerly
        self.name = name

    @classmethod
    def define(cls, name, func, cxx=None, kind="arith", associative=False,
               vectorized=False) -> "BinaryOp":
        """Define a new binary operator from a Python function (and an
        optional C++ expression for the ``cpp`` engine) and return it as a
        ready-to-use ``BinaryOp`` — the paper's Sec. VIII future-work item::

            Hypot = gb.BinaryOp.define(
                "Hypot", lambda a, b: (a*a + b*b) ** 0.5,
                cxx="std::sqrt(double(({a})*({a}) + ({b})*({b})))",
            )
            with Hypot:
                C[None] = A + B
        """
        ops_table.register_binary_op(
            name, func, cxx=cxx, kind=kind, associative=associative,
            vectorized=vectorized,
        )
        return cls(name)

    def __repr__(self) -> str:
        return f"BinaryOp({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, BinaryOp) and other.name == self.name

    def __hash__(self):
        return hash(("BinaryOp", self.name))


class UnaryOp(_ContextOperator):
    """A named GBTL unary operator, or a binary operator with a bound
    constant (GBTL's ``BinaryOp_Bind1st``/``Bind2nd``).

    ``UnaryOp("AdditiveInverse")`` is the plain form;
    ``UnaryOp("Times", 0.85)`` binds the constant as the *second* operand
    (matching Fig. 7/8, where ``GB::BinaryOp_Bind2nd`` appears in the C++);
    pass ``bind="first"`` to bind on the left instead.
    """

    __slots__ = ("name", "const", "side")

    def __init__(self, name, const=None, bind="second"):
        if const is None:
            ops_table.unary_def(name)
        else:
            ops_table.binary_def(name)
            if bind not in ("first", "second"):
                raise ValueError(f"bind must be 'first' or 'second', got {bind!r}")
        self.name = name
        self.const = const
        self.side = bind

    @property
    def spec(self) -> tuple:
        """Backend op spec: ``("unary", name)`` or ``("bind", name, c, side)``."""
        if self.const is None:
            return ("unary", self.name)
        return ("bind", self.name, self.const, self.side)

    @classmethod
    def define(cls, name, func, cxx=None, vectorized=False) -> "UnaryOp":
        """Define a new unary operator from a Python function (optional
        C++ expression with an ``{a}`` placeholder for the ``cpp``
        engine); see :meth:`BinaryOp.define`."""
        ops_table.register_unary_op(name, func, cxx=cxx, vectorized=vectorized)
        return cls(name)

    def __repr__(self) -> str:
        if self.const is None:
            return f"UnaryOp({self.name!r})"
        return f"UnaryOp({self.name!r}, {self.const!r}, bind={self.side!r})"


class Monoid(_ContextOperator):
    """A commutative-monoid: an associative binary operator plus identity.

    The identity may be a literal value, a named identity such as
    ``"MinIdentity"`` (resolved per-dtype at execution time), or omitted to
    use the operator's canonical identity.
    """

    __slots__ = ("op", "identity")

    def __init__(self, op, identity=None):
        self.op = BinaryOp(op)
        ops_table.reduce_ufunc(self.op.name)  # must be associative
        if identity is None:
            identity = ops_table.DEFAULT_IDENTITY_NAME[self.op.name]
        if isinstance(identity, str) and identity not in ops_table.IDENTITIES:
            raise UnknownOperator(f"unknown identity name {identity!r}")
        self.identity = identity

    def __repr__(self) -> str:
        return f"Monoid({self.op.name!r}, {self.identity!r})"


class Semiring(_ContextOperator):
    """A GraphBLAS semiring: an additive monoid ``⊕`` and a multiplicative
    binary operator ``⊗`` (whose annihilator is the monoid identity)."""

    __slots__ = ("monoid", "mult")

    def __init__(self, add, mult):
        self.monoid = add if isinstance(add, Monoid) else Monoid(add)
        self.mult = BinaryOp(mult)

    @property
    def add_op(self) -> str:
        return self.monoid.op.name

    @property
    def mult_op(self) -> str:
        return self.mult.name

    def __repr__(self) -> str:
        return f"Semiring({self.monoid!r}, {self.mult.name!r})"


class Accumulator(_ContextOperator):
    """The ``⊙`` accumulate operator: governs how operation results merge
    into existing output values (paper Sec. II)."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = BinaryOp(op)

    @property
    def name(self) -> str:
        return self.op.name

    def __repr__(self) -> str:
        return f"Accumulator({self.op.name!r})"


# ----------------------------------------------------------------------
# context resolution: "when an operation is called, it searches through
# the stack to find the first operator that it can use" (Sec. IV)
# ----------------------------------------------------------------------

#: defaults used when the stack holds no usable operator; these give the
#: conventional arithmetic interpretation (Fig. 7 uses ``delta * delta``
#: and ``gb.reduce(delta)`` outside of any ``with`` block).
_DEFAULT_SEMIRING_OPS = ("Plus", "Times")


def resolve_semiring(explicit: Semiring | None = None) -> tuple[str, str]:
    """``(add_op, mult_op)`` for mxm/mxv/vxm."""
    if explicit is not None:
        return explicit.add_op, explicit.mult_op
    sr = context.innermost(Semiring)
    if sr is not None:
        return sr.add_op, sr.mult_op
    return _DEFAULT_SEMIRING_OPS


def resolve_ewise_add_op(explicit=None) -> str:
    """Binary op for ``A + B``: nearest BinaryOp, Monoid or Semiring (its
    ``⊕``); defaults to ``Plus``."""
    if explicit is not None:
        return BinaryOp(explicit).name
    obj = context.innermost((BinaryOp, Monoid, Semiring))
    if isinstance(obj, BinaryOp):
        return obj.name
    if isinstance(obj, Monoid):
        return obj.op.name
    if isinstance(obj, Semiring):
        return obj.add_op
    return "Plus"


def resolve_ewise_mult_op(explicit=None) -> str:
    """Binary op for ``A * B``: nearest BinaryOp, Monoid or Semiring (its
    ``⊗``); defaults to ``Times``."""
    if explicit is not None:
        return BinaryOp(explicit).name
    obj = context.innermost((BinaryOp, Monoid, Semiring))
    if isinstance(obj, BinaryOp):
        return obj.name
    if isinstance(obj, Monoid):
        return obj.op.name
    if isinstance(obj, Semiring):
        return obj.mult_op
    return "Times"


def resolve_accum_op() -> str:
    """Accumulate op for ``+=``: the innermost Accumulator anywhere on the
    stack; only when none exists, the ``⊕`` of the nearest Monoid/Semiring
    (the paper's SSSP omits ``Accumulator("Min")`` and falls back to the
    MinPlusSemiring's MinMonoid); otherwise ``Plus``.

    An Accumulator outranks a more deeply nested Semiring because the two
    serve different operation slots — Fig. 7's
    ``with gb.Accumulator("Second"), gb.Semiring(gb.PlusMonoid, "Times")``
    expects the Second accumulator even though the semiring is innermost.
    """
    obj = context.innermost(Accumulator)
    if isinstance(obj, Accumulator):
        return obj.op.name
    obj = context.innermost((Monoid, Semiring))
    if isinstance(obj, Monoid):
        return obj.op.name
    if isinstance(obj, Semiring):
        return obj.add_op
    return "Plus"


def resolve_reduce_monoid(explicit: Monoid | None = None) -> tuple[str, object]:
    """``(op, identity)`` for reduce: nearest Monoid/Semiring monoid;
    defaults to the Plus monoid."""
    if explicit is not None:
        if isinstance(explicit, Semiring):
            explicit = explicit.monoid
        if isinstance(explicit, (str, BinaryOp)):
            explicit = Monoid(explicit)
        return explicit.op.name, explicit.identity
    obj = context.innermost((Monoid, Semiring))
    if isinstance(obj, Semiring):
        obj = obj.monoid
    if isinstance(obj, Monoid):
        return obj.op.name, obj.identity
    return "Plus", "PlusIdentity"


def resolve_unary_spec(explicit: UnaryOp | None = None) -> tuple:
    """Op spec for apply: nearest UnaryOp; defaults to Identity."""
    if explicit is not None:
        return explicit.spec
    obj = context.innermost(UnaryOp)
    if obj is not None:
        return obj.spec
    return ("unary", "Identity")
