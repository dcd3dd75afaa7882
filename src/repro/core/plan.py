"""The plan IR: expression trees lowered into an explicit ``OpNode``
graph before dispatch.

The paper's deferred evaluation (Sec. IV) stops at single-operation
granularity — every ``C[mask] = expr`` recursion bottoms out in one
engine call per expression node, materialising a temporary between each
pair.  This module inserts a planning stage between the expression tree
and the engine:

1. :class:`Plan` lowers the (already deferred) expression DAG into
   ``OpNode``\\ s with explicit child/parent edges, deduplicating shared
   subexpressions by object identity (the operand cache on
   ``Expression.new`` then guarantees a shared node is evaluated once);
2. the planner pass (:mod:`repro.jit.fusion`) runs peephole rules over
   the node graph, collapsing producer/consumer pairs into single fused
   kernels;
3. :func:`evaluate` hands the (possibly rewritten) root back to the
   engine via ``eval_into``.

The ``PYGB_FUSION`` environment switch (default: on) disables step 2,
restoring the one-call-per-node behaviour for A/B benchmarking; the
``interpreted`` engine never fuses (``supports_fusion = False``) and is
the ablation baseline the differential tests compare against.  An
expression with no deferred operand — every statement of the four
paper listings — has no pair to fuse and is dispatched as it stands,
without steps 1 and 2.
"""

from __future__ import annotations

from ..config import current as _config
from .context import current_backend_engine

__all__ = ["OpNode", "Plan", "fusion_enabled", "evaluate"]


def fusion_enabled() -> bool:
    """The ``$PYGB_FUSION`` switch (default: on)."""
    return _config().fusion


class OpNode:
    """One operation of the plan graph.

    ``kind`` is the expression's ``plan_kind`` (``mxv``, ``apply_vec``,
    ...); ``children`` holds ``(slot, OpNode)`` pairs for the deferred
    operands; ``parents`` holds ``(parent_expr, slot)`` pairs — one per
    consumer edge, so ``len(parents)`` is the node's consumer count.
    ``schedule`` carries the traversal-shaped expressions'
    :class:`repro.schedule.Schedule` annotation (``None`` for every
    other kind) so planner passes can see — and refuse to fuse across —
    a direction-optimized dispatch.
    """

    __slots__ = ("expr", "kind", "children", "parents", "schedule")

    def __init__(self, expr):
        self.expr = expr
        self.kind = expr.plan_kind
        self.schedule = getattr(expr, "schedule", None)
        self.children: list = []
        self.parents: list = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpNode {self.kind} x{len(self.parents)}>"


class Plan:
    """Post-order lowering of an expression DAG into :class:`OpNode`\\ s.

    ``order`` lists nodes children-first (a topological order), which is
    the traversal the peephole pass wants: a producer/consumer pair is
    considered only after every deeper pair had its chance, so chains
    fuse bottom-up.
    """

    def __init__(self, root):
        self.root = root
        self.nodes: dict[int, OpNode] = {}
        self.order: list[OpNode] = []
        self._lower(root)

    def _lower(self, expr) -> OpNode:
        node = self.nodes.get(id(expr))
        if node is not None:
            return node  # shared subexpression: one node, many parents
        node = OpNode(expr)
        self.nodes[id(expr)] = node
        for slot, child in expr.plan_children():
            cnode = self._lower(child)
            cnode.parents.append((expr, slot))
            node.children.append((slot, cnode))
        self.order.append(node)
        return node


_fuse_expression = None


def evaluate(expr, out, desc) -> None:
    """Dispatch *expr* into container *out* under descriptor *desc*.

    This is the single entry point all write sites funnel through
    (``__setitem__`` and ``Expression.new``): lower to a plan, let the
    planner fuse what the current engine supports, then execute.  A
    one-node expression has nothing to lower or fuse."""
    global _fuse_expression
    if expr.plan_children() and _config().fusion:
        eng = current_backend_engine()
        if getattr(eng, "supports_fusion", False):
            if _fuse_expression is None:
                # bound on first use: jit.fusion imports this module's Plan
                from ..jit.fusion import fuse_expression as _fuse_expression
            expr = _fuse_expression(expr, eng)
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
