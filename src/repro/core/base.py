"""Shared container behaviour for :class:`~repro.core.matrix.Matrix` and
:class:`~repro.core.vector.Vector`.

The write-side protocol (paper Sec. IV):

* ``C = A @ B`` rebinds ``C`` to a brand-new container;
* ``C[None] = A @ B`` evaluates into the existing container (retaining
  the reference, GBTL's ``NoMask``);
* ``C[None] += expr`` accumulates with the operator inferred from context;
* ``C[M] = expr`` / ``C[~M] = expr`` / ``C[M, True] = expr`` mask the
  write (optionally complemented / with the replace flag);
* ``C[i, j] = s`` / ``w[i] = s`` (a scalar at a scalar index, no mask,
  no accumulator) is buffered on the container and merged into a new
  store at the next observation (docs/architecture.md, *The write path*).
"""

from __future__ import annotations

import numbers

import numpy as np

from ..exceptions import InvalidValue
from . import operators
from .expressions import Apply, EWiseAdd, EWiseMult, Expression, TransposeView, TransposeExpr
from .masks import (
    ACCUM_APPLIED,
    AccumExpr,
    Complemented,
    MaskedView,
    SetKey,
    build_desc,
    parse_mask_key,
)
from .plan import evaluate

__all__ = ["Container"]


def _is_scalar(value) -> bool:
    return isinstance(value, (numbers.Number, np.number, np.bool_))


class Container:
    """Base class: operator overloads and the subscript protocol."""

    is_vector = False
    _backing = None  # backend SparseMatrix / SparseVector
    #: buffered element writes not yet merged into the store: a list of
    #: ``(*index, value)`` tuples in program order, plain Python data
    _pending = None

    # ------------------------------------------------------------------
    # the store accessor is the single observation point: any read of a
    # container's store (every conversion / extraction / operand or mask
    # use) first merges buffered element writes, so no call site needs
    # its own hook
    # ------------------------------------------------------------------
    @property
    def _store(self):
        if self._pending is not None:
            self._merge_pending()
        return self._backing

    @_store.setter
    def _store(self, store):
        self._rebind(store)

    def _rebind(self, store) -> None:
        """Adopt *store* as the container's value.  Every replacement of
        ``_backing`` comes through here because every one is a full
        overwrite: element writes still buffered against the old store
        can no longer be observed and are dropped unmerged."""
        self._backing = store
        self._pending = None

    def _merge_pending(self) -> None:
        self._rebind(self._backing.set_elements(*zip(*self._pending)))

    def _buffer_write(self, index: tuple, value) -> None:
        """``self[index] = value`` at a scalar index with no mask and no
        accumulator: cast the value as ``assign_*_scalar`` would and keep
        the tuple for the next observation.  Stores stay immutable, so
        every memo and argument pack built on the current one stays valid."""
        backing = self._backing
        item = np.full(1, value, dtype=backing.dtype)[0].item()
        if self._pending is None:
            self._pending = []
        self._pending.append((*index, item))
        if len(self._pending) >= backing.nvals:
            # as many buffered tuples as stored entries: merging now keeps
            # a write amortised O(1) and the buffer within the store's size
            self._merge_pending()

    def __getstate__(self):
        """``copy`` / ``pickle`` take the container's value — buffered
        element writes merge — not its buffer (a shallow copy would share
        it)."""
        return {"_backing": self._store}

    # ------------------------------------------------------------------
    # shared properties
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Number of stored values (``GrB_nvals``) — an observation, so it
        merges buffered element writes."""
        return self._store.nvals

    @property
    def dtype(self) -> np.dtype:
        # dtype is write-invariant (kernels preserve the output dtype), so
        # reading it must not merge buffered element writes
        return self._backing.dtype

    # ------------------------------------------------------------------
    # arithmetic operators build deferred expressions
    # ------------------------------------------------------------------
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

    def __invert__(self):
        """``~C``: complement when used in mask position (Sec. III)."""
        return Complemented(self)

    def __iadd__(self, other):
        """Plain ``C += expr``: in-place accumulate with the context
        operator — shorthand for ``C[None] += expr``."""
        self.__setitem__(None, AccumExpr(other))
        return self

    # ------------------------------------------------------------------
    # subscript protocol
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        setkey = parse_mask_key(key)
        if setkey is not None:
            return MaskedView(self, setkey)
        return self._extract(key)

    def __setitem__(self, key, value):
        if value is ACCUM_APPLIED:
            # trailing half of `C[M] += expr`: MaskedView.__iadd__ already
            # applied the accumulate with the view's own SetKey
            return
        accum = None
        if isinstance(value, AccumExpr):
            value = value.value
            accum = operators.resolve_accum_op()
        setkey = parse_mask_key(key)
        if setkey is None:
            self._assign(SetKey(), key, value, accum)
        else:
            self._set_masked(setkey, value, accum)

    def _set_masked(self, setkey: SetKey, value, accum: str | None):
        desc = build_desc(setkey, accum)
        if isinstance(value, Expression):
            evaluate(value, self, desc)
        elif isinstance(value, TransposeView):
            evaluate(TransposeExpr(value.parent), self, desc)
        elif isinstance(value, Container):
            # C[M] = A: identity-apply of A into C under the mask; also
            # performs the dtype cast of `m[None] = graph` (Fig. 7 line 8)
            evaluate(Apply(value, operators.UnaryOp("Identity")), self, desc)
        elif _is_scalar(value):
            # C[M] = s: masked constant fill over the whole container
            self._assign(setkey, self._full_slice(), value, accum)
        else:
            raise InvalidValue(f"cannot assign object of type {type(value).__name__}")

    # subclasses implement:
    def _extract(self, key):  # pragma: no cover - interface
        raise NotImplementedError

    def _assign(self, setkey: SetKey, index_key, value, accum=None):  # pragma: no cover
        raise NotImplementedError

    def _full_slice(self):  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    # comparisons for tests/debugging (not GraphBLAS operations)
    # ------------------------------------------------------------------
    def isequal(self, other) -> bool:
        """Same shape, same stored pattern, equal stored values (Python
        ``==`` on the values: ``1 == 1.0 == True``, NaN equals nothing)."""
        if self.is_vector != getattr(other, "is_vector", None):
            return False
        mine, theirs = self._store, other._store
        if self.is_vector:
            if mine.size != theirs.size:
                return False
        elif mine.shape != theirs.shape or not np.array_equal(mine.indptr, theirs.indptr):
            return False
        if mine.nvals != theirs.nvals or not np.array_equal(mine.indices, theirs.indices):
            return False
        if mine.dtype == theirs.dtype:
            return bool(np.array_equal(mine.values, theirs.values))
        # across dtypes NumPy would compare after promotion (int64 against
        # float64 rounds); list equality compares the exact Python numbers
        return mine.values.tolist() == theirs.values.tolist()
