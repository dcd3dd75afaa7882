"""The planner pass: peephole rewriting of the plan IR.

``fuse_expression`` lowers the expression DAG to a :class:`~repro.core.plan.Plan`,
walks its nodes children-first and, for each producer/consumer edge that
matches a rule in :data:`~repro.jit.fused_ops.FUSED_OPS`, replaces the pair
with a single :class:`Fused` pseudo-expression whose ``eval_into`` calls
the engine's fused kernel — one dispatch, no intermediate container.

A producer is only absorbed when it is safe:

* the consumer is its *only* consumer (a shared subexpression must stay a
  separate node so its cached materialisation is reused), and
* it has not already been materialised (its cached container would then
  be free anyway), and
* the current engine actually implements the fused kernel (rules degrade
  to unfused dispatch per-engine, which is how ``interpreted`` opts out).
"""

from __future__ import annotations

from ..backend.tiled import TiledMatrix
from ..core.context import current_backend_engine
from ..core.expressions import Expression, _store_of
from ..core.plan import Plan
from .fused_ops import FUSED_OPS

__all__ = ["Fused", "fuse_expression"]


def _crosses_tile_boundary(rule, node, cnode) -> bool:
    """True when a non-tile-safe rule would absorb a node holding a tiled
    matrix operand — the fused kernel would have to run monolithically,
    silently crossing the partition's merge boundary, so the planner
    keeps the pair as separate (individually partitionable) dispatches."""
    if rule.tile_safe:
        return False
    for pn in (node, cnode):
        expr = pn.expr
        for slot in getattr(expr, "operand_slots", ()):
            operand = getattr(expr, slot, None)
            target = getattr(operand, "parent", operand)  # TransposeView
            store = getattr(target, "_backing", None)
            if isinstance(store, TiledMatrix) and store.ntiles > 1:
                return True
    return False

#: (consumer plan_kind, producer plan_kind) -> rule, for planner rules
PAIRS = {(op.consumer, op.producer): op for op in FUSED_OPS if op.where == "plan"}


def _call_mxv_apply(m, out, p, c, desc):
    return m(out._store, _store_of(p.a), _store_of(p.u), p.add_op, p.mult_op,
             c.op_spec, desc, p.ta)


def _call_vxm_apply(m, out, p, c, desc):
    return m(out._store, _store_of(p.u), _store_of(p.a), p.add_op, p.mult_op,
             c.op_spec, desc, p.ta)


def _call_ewise_vec_apply(m, out, p, c, desc):
    return m(out._store, _store_of(p.a), _store_of(p.b), p.op, c.op_spec, desc)


def _call_ewise_mat_apply(m, out, p, c, desc):
    return m(out._store, _store_of(p.a), _store_of(p.b), p.op, c.op_spec, desc,
             p.ta, p.tb)


def _call_mxm_reduce_rows(m, out, p, c, desc):
    return m(out._store, _store_of(p.a), _store_of(p.b), p.add_op, p.mult_op,
             c.op, desc, p.ta, p.tb)


#: rule name -> adapter unpacking (producer, consumer) expression state
#: into the engine method's argument list
_CALLERS = {
    "mxv_apply": _call_mxv_apply,
    "vxm_apply": _call_vxm_apply,
    "ewise_add_vec_apply": _call_ewise_vec_apply,
    "ewise_mult_vec_apply": _call_ewise_vec_apply,
    "ewise_add_mat_apply": _call_ewise_mat_apply,
    "ewise_mult_mat_apply": _call_ewise_mat_apply,
    "mxm_reduce_rows": _call_mxm_reduce_rows,
}


class Fused(Expression):
    """A producer/consumer pair collapsed into one kernel dispatch."""

    kind = "fused"
    operand_slots = ()

    def __init__(self, op, producer, consumer):
        super().__init__()
        self.op = op
        self.producer = producer
        self.consumer = consumer
        self.produces_matrix = op.output == "mat"

    @property
    def plan_kind(self) -> str:
        return f"fused_{self.op.name}"

    def result_shape(self):
        return self.consumer.result_shape()

    def result_dtype(self):
        return self.consumer.result_dtype()

    def eval_into(self, out, desc):
        eng = current_backend_engine()
        method = getattr(eng, self.op.name, None)
        if method is None or not getattr(eng, "supports_fusion", False):
            # engine changed between planning and execution: fall back to
            # the unfused pair (consumer still sees the live producer)
            self.consumer.eval_into(out, desc)
            return
        out._store = _CALLERS[self.op.name](method, out, self.producer,
                                            self.consumer, desc)


def fuse_expression(root, engine):
    """Rewrite *root* (an expression DAG) for *engine*, returning the new
    root.  Interior edges are rewritten in place (the consumer's operand
    slot is pointed at the :class:`Fused` node); deeper chains fuse
    bottom-up because the plan order is children-first."""
    plan = Plan(root)
    consumed: set = set()
    for node in plan.order:
        for slot, cnode in node.children:
            cand = PAIRS.get((node.kind, cnode.kind))
            sched = cnode.schedule
            if (
                cand is None
                or slot != cand.slot
                or len(cnode.parents) != 1
                or cnode.expr._materialized is not None
                or id(cnode.expr) in consumed
                or id(node.expr) in consumed
                or not hasattr(engine, cand.name)
                # fused kernels run the dense traversal only — a node
                # pinned to push/pull must stay a standalone dispatch
                or (sched is not None and sched.pins_direction)
                or _crosses_tile_boundary(cand, node, cnode)
            ):
                continue
            fused = Fused(cand, cnode.expr, node.expr)
            consumed.add(id(cnode.expr))
            consumed.add(id(node.expr))
            if node.expr is root:
                root = fused
            else:
                for parent_expr, pslot in node.parents:
                    setattr(parent_expr, pslot, fused)
            break
    return root
