"""The ``pyjit`` execution engine: Fig. 9's dispatch stage with Python
code generation.

Each method inspects its runtime arguments exactly the way the paper's
``operate()`` does — "the data types of each operand is checked to
determine the output type through standard typecasting rules" — asks
the kernel table (:mod:`~repro.jit.kernels`) for the
:class:`~repro.jit.spec.KernelSpec`, fetches the specialised module
through the memory→disk→compile cache, and invokes its ``run``.
"""

from __future__ import annotations

import time

from .. import obs, schedule as _schedule
from ..backend.ops_table import DEFAULT_IDENTITY_NAME, binary_result_dtype, identity_value
from ..exceptions import CompilationError
from ..testing.faults import FAULTS
from .cache import JitCache, default_cache
from .kernels import apply_ops, spec
from .pycodegen import generate_source
from .spec import KernelSpec

__all__ = ["PyJitEngine"]


class _TracedModule:
    """Stand-in for a generated module while tracing is active: its
    ``run`` gets a span carrying the kernel spec, nested inside the
    dispatch-level op span."""

    __slots__ = ("_mod", "_key", "_tracer")

    def __init__(self, mod, key: str, tracer):
        self._mod = mod
        self._key = key
        self._tracer = tracer

    def run(self, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return self._mod.run(*args, **kwargs)
        finally:
            self._tracer.record(
                "kernel",
                "pyjit",
                t0,
                time.perf_counter_ns() - t0,
                {"engine": "pyjit", "spec": self._key},
            )

    def __getattr__(self, attr):  # anything beyond run (tests, repr)
        return getattr(self._mod, attr)


class PyJitEngine:
    """Engine-interface implementation backed by generated Python modules."""

    name = "pyjit"
    #: ``gb.reduce`` may fold an elementwise operand into the reduction
    supports_fusion = True

    def __init__(self, cache: JitCache | None = None):
        self.cache = cache if cache is not None else default_cache()

    def _module(self, spec: KernelSpec):
        """Generated module for *spec*, with the same health tracking as
        the C++ engine: failures quarantine the spec on this engine so
        the dispatch chain degrades straight to the interpreter."""
        health = self.cache.health
        health.check(self.name, spec.key)
        t0 = time.perf_counter_ns() if obs.ACTIVE else 0
        try:
            if FAULTS.fire("pyjit_fail"):
                raise CompilationError(f"injected pyjit failure for {spec.key}")
            mod = self.cache.get_module(spec, generate_source, suffix=".py")
        except CompilationError as exc:
            self.cache.note_jit_failure()
            health.record_failure(self.name, spec.key, exc)
            raise
        health.record_success(self.name, spec.key)
        if obs.ACTIVE:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.record(
                    "module_lookup",
                    "jit",
                    t0,
                    time.perf_counter_ns() - t0,
                    {"engine": self.name, "spec": spec.key},
                )
                return _TracedModule(mod, spec.key, tracer)
        return mod

    def _kernel(self, func, dtypes, ops=(), desc=None, direction=None, transposes=()):
        """The module of kernel-table row *func* for one dispatch."""
        return self._module(spec(func, dtypes, ops, desc, direction, transposes))

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        mod = self._kernel("mxm", (a.dtype, b.dtype, out.dtype), (add, mult), desc, None, (ta, tb))
        return mod.run(out, a, b, desc.mask)

    def _spmv(self, func, out, x, y, a, u, add, mult, desc, ta, sched):
        """mxv / vxm: *x*, *y* are the operands in call order, *a*, *u*
        the same two as matrix and vector."""
        direction = sched.direction if sched is not None else "dense"
        # dense keeps the legacy spec keys so scheduled and unscheduled
        # dispatches share one cache entry per variant
        mod = self._kernel(func, (a.dtype, u.dtype, out.dtype), (add, mult), desc,
                           None if direction == "dense" else direction, (ta,))
        if direction == "pull":
            return mod.run(out, x, y, desc.mask, sched.candidates)
        result = mod.run(out, x, y, desc.mask)
        if sched is not None and direction == "dense":
            _schedule.note_edges("dense", int(a.indices.size))
        return result

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        return self._spmv("mxv", out, a, u, a, u, add, mult, desc, ta, sched)

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        return self._spmv("vxm", out, u, a, a, u, add, mult, desc, ta, sched)

    # ------------------------------------------------------------------
    # elementwise
    # ------------------------------------------------------------------
    def _ewise(self, func, out, x, y, op, desc, transposes=()):
        mod = self._kernel(func, (x.dtype, y.dtype, out.dtype), (op,), desc, None, transposes)
        return mod.run(out, x, y, desc.mask)

    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise("ewise_add_mat", out, a, b, op, desc, (ta, tb))

    def ewise_add_vec(self, out, u, v, op, desc):
        return self._ewise("ewise_add_vec", out, u, v, op, desc)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise("ewise_mult_mat", out, a, b, op, desc, (ta, tb))

    def ewise_mult_vec(self, out, u, v, op, desc):
        return self._ewise("ewise_mult_vec", out, u, v, op, desc)

    # ------------------------------------------------------------------
    # apply / reduce / transpose / select / kronecker
    # ------------------------------------------------------------------
    def _apply(self, func, out, x, op_spec, desc, transposes=()):
        mod = self._kernel(func, (x.dtype, out.dtype), apply_ops(op_spec), desc, None, transposes)
        return mod.run(out, x, desc.mask, op_spec[2] if op_spec[0] == "bind" else None)

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        return self._apply("apply_mat", out, a, op_spec, desc, (ta,))

    def apply_vec(self, out, u, op_spec, desc):
        return self._apply("apply_vec", out, u, op_spec, desc)

    def _reduce_scalar(self, func, x, op, identity):
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[op]
        return self._kernel(func, (x.dtype,), (op,)).run(x, identity_value(identity, x.dtype))

    def reduce_mat_scalar(self, a, op, identity):
        return self._reduce_scalar("reduce_mat_scalar", a, op, identity)

    def reduce_vec_scalar(self, u, op, identity):
        return self._reduce_scalar("reduce_vec_scalar", u, op, identity)

    def reduce_rows(self, out, a, op, desc, ta=False):
        mod = self._kernel("reduce_rows", (a.dtype, out.dtype), (op,), desc, None, (ta,))
        return mod.run(out, a, desc.mask)

    def transpose(self, out, a, desc):
        return self._kernel("transpose", (a.dtype, out.dtype), (), desc).run(out, a, desc.mask)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        mod = self._kernel("select_mat", (a.dtype, out.dtype), (op,), desc, None, (ta,))
        return mod.run(out, a, thunk, desc.mask)

    def select_vec(self, out, u, op, thunk, desc):
        mod = self._kernel("select_vec", (u.dtype, out.dtype), (op,), desc)
        return mod.run(out, u, thunk, desc.mask)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        mod = self._kernel("kronecker", (a.dtype, b.dtype, out.dtype), (op,), desc, None, (ta, tb))
        return mod.run(out, a, b, desc.mask)

    # ------------------------------------------------------------------
    # extract / assign (partially specialised delegates)
    # ------------------------------------------------------------------
    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        mod = self._kernel("extract_mat", (a.dtype, out.dtype), (), desc, None, (ta,))
        return mod.run(out, a, rows, cols, desc.mask)

    def extract_vec(self, out, u, idx, desc):
        mod = self._kernel("extract_vec", (u.dtype, out.dtype), (), desc)
        return mod.run(out, u, idx, desc.mask)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        mod = self._kernel("assign_mat", (a.dtype, out.dtype), (), desc, None, (ta,))
        return mod.run(out, a, rows, cols, desc.mask)

    def assign_vec(self, out, u, idx, desc):
        mod = self._kernel("assign_vec", (u.dtype, out.dtype), (), desc)
        return mod.run(out, u, idx, desc.mask)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        mod = self._kernel("assign_mat_scalar", (out.dtype,), (), desc)
        return mod.run(out, value, rows, cols, desc.mask)

    def assign_vec_scalar(self, out, value, idx, desc):
        mod = self._kernel("assign_vec_scalar", (out.dtype,), (), desc)
        return mod.run(out, value, idx, desc.mask)

    # ------------------------------------------------------------------
    # the reduce-site fused pair: gb.reduce(u ⊕ v) in one pass
    # ------------------------------------------------------------------
    def _ewise_reduce_scalar(self, func, u, v, op, rop, identity):
        pdt = binary_result_dtype(op, u.dtype, v.dtype)
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[rop]
        mod = self._kernel(func, (u.dtype, v.dtype), (op, rop))
        return mod.run(u, v, identity_value(identity, pdt))

    def ewise_add_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar("ewise_add_vec_reduce_scalar", u, v, op, rop, identity)

    def ewise_mult_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar("ewise_mult_vec_reduce_scalar", u, v, op, rop, identity)
