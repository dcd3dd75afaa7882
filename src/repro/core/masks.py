"""Masks, masked views and the ``+=`` accumulate marker.

This module implements the square-bracket write syntax of Table I:

* ``C[None] = expr`` — NoMask in-place update (container reuse, Sec. IV);
* ``C[M] = expr`` — value mask (mask data "coerced to boolean values");
* ``C[~M] = expr`` — complemented mask via Python's ``~`` operator;
* ``C[M, True] = expr`` — explicit replace flag ``z`` as in ``C⟨M, z⟩``;
* ``C[None] += expr`` — accumulate (``⊙``) through ``__iadd__``;
* ``levels[front][:] = depth`` — masked constant assignment via a
  :class:`MaskedView`;
* ``C[M][i, j] = A`` — masked sub-assign.
"""

from __future__ import annotations

import numpy as np

from ..backend.kernels import OpDesc
from ..exceptions import InvalidValue
from . import context, operators

__all__ = ["Complemented", "MaskedView", "AccumExpr", "SetKey", "parse_mask_key", "build_desc"]


class _AccumApplied:
    """Sentinel returned by eager ``__iadd__`` implementations so the
    trailing ``__setitem__`` of the ``C[M] += expr`` statement knows the
    accumulate already happened and must not run a second time."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<accumulate already applied>"


ACCUM_APPLIED = _AccumApplied()


class Complemented:
    """A complemented mask: ``~M``.  Only meaningful in mask position."""

    __slots__ = ("container",)

    def __init__(self, container):
        self.container = container

    def __invert__(self):
        return self.container

    def __repr__(self) -> str:
        return f"~{self.container!r}"


class AccumExpr:
    """Marker produced by ``__iadd__`` on containers and masked views so
    the subsequent ``__setitem__`` knows to bind an accumulate operator."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class SetKey:
    """Parsed form of a square-bracket key on the write side."""

    __slots__ = ("mask", "complement", "replace", "indices")

    def __init__(self, mask=None, complement=False, replace=None, indices=None):
        self.mask = mask  #: DSL container used as mask, or None
        self.complement = complement
        self.replace = replace  #: explicit bool, or None -> from context
        self.indices = indices  #: raw index tuple for assign, or None

    def resolved_replace(self) -> bool:
        if self.replace is not None:
            return self.replace
        return context.replace_active()


_Container = None


def _is_container(obj) -> bool:
    # bound on first use: base imports this module (container<->mask
    # cycle), and every subscript parse lands here
    global _Container
    if _Container is None:
        from .base import Container as _Container
    return isinstance(obj, _Container)


def _is_indexish(obj) -> bool:
    return isinstance(obj, (int, np.integer, slice, list, np.ndarray, range))


def parse_mask_key(key) -> SetKey | None:
    """Interpret *key* as a mask key (None / container / ~container /
    ``(mask, replace)``); return None when it is an index key instead."""
    if key is None:
        return SetKey(mask=None)
    if _is_container(key):
        return SetKey(mask=key)
    if isinstance(key, Complemented):
        return SetKey(mask=key.container, complement=True)
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], (bool, np.bool_)):
        first = key[0]
        replace = bool(key[1])
        if first is None:
            return SetKey(mask=None, replace=replace)
        if _is_container(first):
            return SetKey(mask=first, replace=replace)
        if isinstance(first, Complemented):
            return SetKey(mask=first.container, complement=True, replace=replace)
    if _is_indexish(key):
        return None
    if isinstance(key, tuple) and all(_is_indexish(k) for k in key):
        return None
    raise InvalidValue(f"cannot interpret subscript key {key!r}")


def build_desc(setkey: SetKey, accum: str | None = None) -> OpDesc:
    """Backend operation descriptor from a parsed key + accumulate op."""
    mask_store = setkey.mask._store if setkey.mask is not None else None
    return OpDesc(
        mask=mask_store,
        complement=setkey.complement,
        replace=setkey.resolved_replace(),
        accum=accum,
    )


class MaskedView:
    """The object returned by ``C[M]`` (and ``C[None]``): a deferred
    masked write target.

    Reading through a view is intentionally unsupported — GraphBLAS masks
    only govern writes; ``C[M]`` by itself has no value.
    """

    __slots__ = ("container", "setkey")

    def __init__(self, container, setkey: SetKey):
        self.container = container
        self.setkey = setkey

    def __iadd__(self, value):
        """``C[M, True] += expr``: accumulate under this view's mask.

        Applied eagerly with the view's own parsed :class:`SetKey`, so an
        explicit replace flag always survives the ``__iadd__`` →
        ``__setitem__`` round-trip (it is never re-derived from the raw
        key or the ambient context).  Eager application also makes
        ``mv = C[M]; mv += expr`` perform the write — previously that
        spelling silently rebound ``mv`` to an inert marker.  The
        trailing ``C.__setitem__`` of the statement form receives
        :data:`ACCUM_APPLIED` and is a no-op.
        """
        self.container._set_masked(self.setkey, value, operators.resolve_accum_op())
        return ACCUM_APPLIED

    def __getitem__(self, index_key):
        """``C[M][i, j]`` names a sub-region of the masked write target
        (reading through a mask stays unsupported); it exists so
        ``C[M][i, j] += v`` can desugar into a masked sub-assign with an
        accumulate operator."""
        return _MaskedRegion(self, index_key)

    def __setitem__(self, index_key, value):
        """``C[M][i, j] = A`` / ``levels[front][:] = depth`` — a masked
        assign into the addressed region."""
        if value is ACCUM_APPLIED:
            return  # the region's __iadd__ already did the write
        accum = None
        if isinstance(value, AccumExpr):
            value = value.value
            accum = operators.resolve_accum_op()
        self.container._assign(self.setkey, index_key, value, accum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaskedView({self.container!r}, mask={self.setkey.mask!r})"


class _MaskedRegion:
    """``C[M][i, j]`` — an addressed sub-region of a masked write target.

    Write-only, like the view that produced it: the only supported
    operation is ``+=``, which performs the masked sub-assign accumulate
    eagerly (with the view's SetKey, so replace/complement survive) and
    hands :data:`ACCUM_APPLIED` back to ``MaskedView.__setitem__``.
    """

    __slots__ = ("view", "index_key")

    def __init__(self, view: MaskedView, index_key):
        self.view = view
        self.index_key = index_key

    def __iadd__(self, value):
        self.view.container._assign(
            self.view.setkey, self.index_key, value, operators.resolve_accum_op()
        )
        return ACCUM_APPLIED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_MaskedRegion({self.view!r}, {self.index_key!r})"
