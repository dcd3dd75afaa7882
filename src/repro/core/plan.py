"""The write-site entry point of deferred evaluation (paper Sec. IV).

Every ``C[mask] = expr`` and every ``Expression.new`` funnels through
:func:`evaluate`, which runs the root node into its target with one
engine call.  A multi-node statement such as ``w[None] = gb.apply(a @ u)``
evaluates by the paper's recursion: the root's ``eval_into`` asks each
deferred operand for its store, ``Expression.new`` materialises it into a
temporary of its natural dtype and caches the container on the node, so a
subexpression shared by two consumers is dispatched once.

Nothing rewrites the tree between the statement and the engine.  The
one kernel fusion, ``gb.reduce(u ⊕ v)``, is decided where it is written
(:func:`repro.core.functions.reduce`); docs/architecture.md §3 has the
dispatch traffic that decision rests on.
"""

from __future__ import annotations

from ..exceptions import DimensionMismatch
from .expressions import _EWise, _shape_of

__all__ = ["evaluate"]


def _check_conforming(expr, out, desc) -> None:
    """A whole-container statement writes *out* entry for entry, so the
    expression, the second operand of an eWise node and the mask must all
    have the output's extent.  Checked here for every engine, before any
    is entered: a compiled kernel sizes its buffers from one of the three
    and indexes them with the others."""
    shape = out.shape
    if expr.result_shape() != shape:
        raise DimensionMismatch(
            f"{type(expr).__name__} of shape {expr.result_shape()} "
            f"assigned to a container of shape {shape}"
        )
    if isinstance(expr, _EWise):  # result_shape() is op(a)'s
        b = _shape_of(expr.b)
        if (b[::-1] if expr.tb else b) != shape:
            raise DimensionMismatch(
                f"{type(expr).__name__}: operand shapes disagree ({shape} vs {b})"
            )
    mask = desc.mask
    if mask is not None and mask.shape != shape:
        raise DimensionMismatch(f"mask of shape {mask.shape} on a container of shape {shape}")


def evaluate(expr, out, desc) -> None:
    """Dispatch *expr* into container *out* under descriptor *desc*."""
    _check_conforming(expr, out, desc)
    if out._pending is not None and desc.mask is None and desc.accum is None:
        # a full overwrite takes only extent and dtype from `out`: run it
        # against a stand-in over the unmerged store, so buffered element
        # writes die with the rebind instead of being merged just to be
        # overwritten (an operand read of `out` itself still merges them)
        scratch = type(out)(out._backing)
        expr.eval_into(scratch, desc)
        out._store = scratch._backing
        return
    expr.eval_into(out, desc)
