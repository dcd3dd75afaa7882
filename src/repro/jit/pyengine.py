"""The ``pyjit`` execution engine: Fig. 9's dispatch stage with Python
code generation.

Each method inspects its runtime arguments exactly the way the paper's
``operate()`` does — "the data types of each operand is checked to
determine the output type through standard typecasting rules" — builds
the :class:`~repro.jit.spec.KernelSpec`, fetches the specialised module
through the memory→disk→compile cache, and invokes its ``run``.
"""

from __future__ import annotations

import time

from .. import obs, schedule as _schedule
from ..backend.kernels import OpDesc
from ..backend.ops_table import binary_result_dtype
from ..exceptions import CompilationError
from ..testing.faults import FAULTS
from .cache import JitCache, default_cache
from .pycodegen import generate_source
from .spec import KernelSpec

__all__ = ["PyJitEngine"]


def _desc_params(desc: OpDesc) -> dict:
    return {
        "mask": "none" if desc.mask is None else "value",
        "comp": desc.complement,
        "repl": desc.replace,
        "accum": desc.accum or "none",
    }


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

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        spec = KernelSpec.make(
            "mxm",
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, a.dtype, b.dtype)),
            add=add,
            mult=mult,
            ta=ta,
            tb=tb,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, b, desc.mask)

    def _spmv_params(self, direction: str) -> dict:
        # dense keeps the legacy spec keys so scheduled and unscheduled
        # dispatches share one cache entry per variant
        return {} if direction == "dense" else {"dir": direction}

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        spec = KernelSpec.make(
            "mxv",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, a.dtype, u.dtype)),
            add=add,
            mult=mult,
            ta=ta,
            **self._spmv_params(direction),
            **_desc_params(desc),
        )
        if direction == "pull":
            return self._module(spec).run(out, a, u, desc.mask, sched.candidates)
        result = self._module(spec).run(out, a, u, desc.mask)
        if sched is not None and direction == "dense":
            _schedule.note_edges("dense", int(a.indices.size))
        return result

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        direction = sched.direction if sched is not None else "dense"
        spec = KernelSpec.make(
            "vxm",
            a=KernelSpec.dt(a.dtype),
            u=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(mult, u.dtype, a.dtype)),
            add=add,
            mult=mult,
            ta=ta,
            **self._spmv_params(direction),
            **_desc_params(desc),
        )
        if direction == "pull":
            return self._module(spec).run(out, u, a, desc.mask, sched.candidates)
        result = self._module(spec).run(out, u, a, desc.mask)
        if sched is not None and direction == "dense":
            _schedule.note_edges("dense", int(a.indices.size))
        return result

    # ------------------------------------------------------------------
    # elementwise
    # ------------------------------------------------------------------
    def _ewise(self, func, out, x, y, op, desc, ta=False, tb=False, matrix=False):
        params = dict(
            a=KernelSpec.dt(x.dtype),
            b=KernelSpec.dt(y.dtype),
            c=KernelSpec.dt(out.dtype),
            t_dtype=KernelSpec.dt(binary_result_dtype(op, x.dtype, y.dtype)),
            op=op,
            **_desc_params(desc),
        )
        if matrix:
            params.update(ta=ta, tb=tb)
        spec = KernelSpec.make(func, **params)
        return self._module(spec).run(out, x, y, desc.mask)

    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise("ewise_add_mat", out, a, b, op, desc, ta, tb, matrix=True)

    def ewise_add_vec(self, out, u, v, op, desc):
        return self._ewise("ewise_add_vec", out, u, v, op, desc)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        return self._ewise("ewise_mult_mat", out, a, b, op, desc, ta, tb, matrix=True)

    def ewise_mult_vec(self, out, u, v, op, desc):
        return self._ewise("ewise_mult_vec", out, u, v, op, desc)

    # ------------------------------------------------------------------
    # apply / reduce / transpose
    # ------------------------------------------------------------------
    def _apply(self, func, out, x, op_spec, desc, ta=False, matrix=False):
        if op_spec[0] == "unary":
            form, op, side, const = "unary", op_spec[1], "none", None
        else:
            _, op, const, side = op_spec
        params = dict(
            a=KernelSpec.dt(x.dtype),
            c=KernelSpec.dt(out.dtype),
            form="unary" if op_spec[0] == "unary" else "bind",
            op=op,
            side=side,
            **_desc_params(desc),
        )
        if matrix:
            params.update(ta=ta)
        spec = KernelSpec.make(func, **params)
        return self._module(spec).run(out, x, desc.mask, const)

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        return self._apply("apply_mat", out, a, op_spec, desc, ta, matrix=True)

    def apply_vec(self, out, u, op_spec, desc):
        return self._apply("apply_vec", out, u, op_spec, desc)

    def _reduce_scalar(self, func, x, op, identity):
        from ..backend.ops_table import DEFAULT_IDENTITY_NAME, identity_value

        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[op]
        ident_val = identity_value(identity, x.dtype)
        spec = KernelSpec.make(func, a=KernelSpec.dt(x.dtype), op=op)
        return self._module(spec).run(x, ident_val)

    def reduce_mat_scalar(self, a, op, identity):
        return self._reduce_scalar("reduce_mat_scalar", a, op, identity)

    def reduce_vec_scalar(self, u, op, identity):
        return self._reduce_scalar("reduce_vec_scalar", u, op, identity)

    def reduce_rows(self, out, a, op, desc, ta=False):
        spec = KernelSpec.make(
            "reduce_rows",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            op=op,
            ta=ta,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, desc.mask)

    def transpose(self, out, a, desc):
        spec = KernelSpec.make(
            "transpose",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, desc.mask)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        spec = KernelSpec.make(
            "select_mat",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            op=op,
            ta=ta,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, thunk, desc.mask)

    def select_vec(self, out, u, op, thunk, desc):
        spec = KernelSpec.make(
            "select_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            op=op,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, u, thunk, desc.mask)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        spec = KernelSpec.make(
            "kronecker",
            a=KernelSpec.dt(a.dtype),
            b=KernelSpec.dt(b.dtype),
            c=KernelSpec.dt(out.dtype),
            op=op,
            ta=ta,
            tb=tb,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, b, desc.mask)

    # ------------------------------------------------------------------
    # extract / assign (partially specialised delegates)
    # ------------------------------------------------------------------
    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        spec = KernelSpec.make(
            "extract_mat",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            ta=ta,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, rows, cols, desc.mask)

    def extract_vec(self, out, u, idx, desc):
        spec = KernelSpec.make(
            "extract_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        return self._module(spec).run(out, u, idx, desc.mask)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        spec = KernelSpec.make(
            "assign_mat",
            a=KernelSpec.dt(a.dtype),
            c=KernelSpec.dt(out.dtype),
            ta=ta,
            **_desc_params(desc),
        )
        return self._module(spec).run(out, a, rows, cols, desc.mask)

    def assign_vec(self, out, u, idx, desc):
        spec = KernelSpec.make(
            "assign_vec",
            a=KernelSpec.dt(u.dtype),
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        return self._module(spec).run(out, u, idx, desc.mask)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        spec = KernelSpec.make(
            "assign_mat_scalar",
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        return self._module(spec).run(out, value, rows, cols, desc.mask)

    def assign_vec_scalar(self, out, value, idx, desc):
        spec = KernelSpec.make(
            "assign_vec_scalar",
            c=KernelSpec.dt(out.dtype),
            **_desc_params(desc),
        )
        return self._module(spec).run(out, value, idx, desc.mask)

    # ------------------------------------------------------------------
    # the reduce-site fused pair: gb.reduce(u ⊕ v) in one pass
    # ------------------------------------------------------------------
    def _ewise_reduce_scalar(self, func, u, v, op, rop, identity):
        from ..backend.ops_table import DEFAULT_IDENTITY_NAME, identity_value

        pdt = binary_result_dtype(op, u.dtype, v.dtype)
        if identity is None:
            identity = DEFAULT_IDENTITY_NAME[rop]
        ident_val = identity_value(identity, pdt)
        spec = KernelSpec.make(
            func,
            a=KernelSpec.dt(u.dtype),
            b=KernelSpec.dt(v.dtype),
            p=KernelSpec.dt(pdt),
            op=op,
            rop=rop,
            fused=True,
        )
        return self._module(spec).run(u, v, ident_val)

    def ewise_add_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar(
            "ewise_add_vec_reduce_scalar", u, v, op, rop, identity
        )

    def ewise_mult_vec_reduce_scalar(self, u, v, op, rop, identity=None):
        return self._ewise_reduce_scalar(
            "ewise_mult_vec_reduce_scalar", u, v, op, rop, identity
        )
