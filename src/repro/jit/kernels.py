"""The kernel table: one row per kernel family.

DAPHNE generates its kernel instantiations and its kernel catalog from
one input per kernel template (``genKernelInst.py``); :data:`KERNELS` is
that input for PyGB.  A row holds everything that differs between
kernel families:

* what names a kernel — the spec: the dtype params in the order engines
  pass them, the operator params, the rule for the derived dtype, the
  transpose params the pyjit engine specialises on (the cpp engine
  pre-transposes the operand instead), whether the family has an OpenMP
  build (``par=1``) and whether it is a fused kernel;
* how it is built: its C++ generator with the argument layout of its
  ``pygb_run`` (``None`` where only pyjit has the kernel) and its Python
  generator (``None`` where only cpp has it);
* what it must agree with: its reference kernel;
* which instances exist ahead of time: the ones the bundled algorithms
  and the graph service dispatch (``traced``, warmed by ``repro
  precompile``) and the catalog grid (``repro bake``).

Five rows are whole loops rather than single operations.  ``bfs_multi``
and ``sssp_multi`` run a k-source traversal — the graph service's batch,
and Fig. 10's native BFS/SSSP at k=1 — in one dispatch.  Their reference
is the backend-level loop of :mod:`repro.backend.kernels.traversal`,
which the interpreted and pyjit engines run (no Python generator); their
C++ generator emits the same loop as one serial translation unit.
``pagerank`` and ``triangle_count`` are Fig. 10's other two compiled
algorithms (:mod:`repro.algorithms.compiled`) and ``mmread`` is the
MatrixMarket parser behind :func:`repro.io.fastload.mmread_fast`: cpp
only and outside the Engine interface, like ``normalize_rows``, with the
NumPy listing or reader they must agree with as their reference.

:func:`spec` turns one engine call into its spec; both engines,
``precompile`` and ``catalog`` build every spec with it.

A layout names the argument groups of ``pygb_run`` (``cppengine._GROUPS``).
Layouts ending in ``O`` return a vector, in ``P`` a scalar, in ``W``
values into one caller buffer of known size (a matrix on its operand's
pattern; the triangle count), in ``R`` three caller buffers of known
capacity (the traversals' k·n rows; the loader's coordinates), anything
else a matrix collected with ``pygb_fetch``.  Groups ``D`` and ``N``
pass one double or integer parameter.  ``apply_mat`` is bound as
``MSW`` when its spec has neither mask nor accumulator
(``_gen_apply_mat``'s other form).
"""

from __future__ import annotations

from functools import partial
from importlib import import_module
from typing import Callable, NamedTuple

from ..backend import kernels as K
from ..backend.kernels import OpDesc, normalize
from ..backend.ops_table import binary_result_dtype
from . import cppcodegen as cpp, pycodegen as py
from .spec import KernelSpec

__all__ = ["KERNELS", "Kernel", "Use", "apply_ops", "spec"]


class Use(NamedTuple):
    """One instance of a row: what an engine call passes to :func:`spec`."""

    dtypes: tuple
    ops: tuple = ()
    desc: OpDesc | None = None
    direction: str | None = None


class Kernel(NamedTuple):
    """One kernel family; the module docstring describes the columns."""

    dtypes: tuple[str, ...]
    ops: tuple[str, ...]
    reference: Callable
    derive: Callable | None = None
    layout: str | None = None
    cpp: Callable | None = None
    py: Callable | None = None
    transposes: tuple[str, ...] = ()
    parallel: bool = False
    fused: bool = False
    #: an Engine-interface method (``normalize_rows`` is a cpp helper)
    interface: bool = True
    traced: tuple[Use, ...] = ()
    grid: tuple[Use, ...] = ()
    #: transposed variants the pyjit catalog bakes besides the plain one
    baked_transposes: tuple[tuple[bool, ...], ...] = ()


def _product(x: str, y: str, name: str = "t_dtype", op: str = "mult"):
    """Derived dtype *name*: what operator *op* yields on operands *x*, *y*."""
    return lambda d, o: {name: binary_result_dtype(o[op], d[x], d[y])}


def _fixed(op: str, x: str):
    """Derived ``t_dtype`` of a row with a fixed operator *op* combining
    *x* (a dtype param, or a dtype) with the graph dtype ``a``."""
    return lambda d, o: {"t_dtype": binary_result_dtype(op, d.get(x, x), d["a"])}


def apply_ops(op_spec) -> tuple:
    """``(form, operator, side)`` operator params of an apply operator."""
    if op_spec[0] == "unary":
        return "unary", op_spec[1], "none"
    return "bind", op_spec[1], op_spec[3]


# ----------------------------------------------------------------------
# the instances built ahead of time
# ----------------------------------------------------------------------
PLAIN = OpDesc()
#: a placeholder mask: a spec records only whether there is one
MASKED = OpDesc(mask="value")
#: structural-complement mask with replace — direction-optimized BFS/SSSP
#: frontier expansion
TRAVERSAL = OpDesc(mask="value", complement=True, replace=True)

F64, I64 = ("float64",), ("int64",)
#: the dtypes the bundled algorithms and examples traffic in
_DTYPES = I64 + F64
#: ``(add, mult)`` of every predefined semiring (core/predefined.py)
_SEMIRINGS = (
    ("Plus", "Times"), ("LogicalOr", "LogicalAnd"), ("Min", "Plus"), ("Max", "Plus"),
    ("Min", "Times"), ("Max", "Times"), ("Min", "First"), ("Min", "Second"),
    ("Max", "First"), ("Max", "Second"),
)


def _dt(op: str, d: str) -> str:
    return KernelSpec.dt(binary_result_dtype(op, d, d))


def _semiring_grid(shapes) -> tuple[Use, ...]:
    """Every predefined semiring × grid dtype (and bool, the BFS frontier
    dtype, for the logical one) in each ``(desc, direction)`` of
    ``shapes(add)``."""
    uses = []
    for add, mult in _SEMIRINGS:
        for d in _DTYPES + (("bool",) if add == "LogicalOr" else ()):
            dtypes = (d, d, _dt(add, _dt(mult, d)))
            uses += [Use(dtypes, (add, mult), desc, direction) for desc, direction in shapes(add)]
    return tuple(uses)


_SPMV = dict(transposes=("ta",), parallel=True, baked_transposes=((True,),))
_EWISE_MAT = dict(dtypes=("a", "b", "c"), ops=("op",), derive=_product("a", "b", op="op"),
                  layout="Mmmm", transposes=("ta", "tb"), parallel=True)
_EWISE_VEC = dict(dtypes=("a", "b", "c"), ops=("op",), derive=_product("a", "b", op="op"),
                  layout="VvVvO")
_APPLY = dict(dtypes=("a", "c", "t_dtype"), ops=("form", "op", "side"), parallel=True)
_REDUCE = dict(dtypes=("a",), ops=("op",), parallel=True)
# the fused pair composes the parallel primitives, so it carries their par flag
_FUSED = dict(dtypes=("a", "b"), ops=("op", "rop"), derive=_product("a", "b", "p", "op"),
              layout="VvSP", parallel=True, fused=True)
_AC = ("a", "c")


def _above(module: str, name: str) -> Callable:
    """A reference that lives above the JIT layer (an algorithm listing,
    the Python reader), imported at its first call: importing it here
    would import the DSL while the JIT is being imported."""
    return lambda *args, **kwargs: getattr(import_module(module), name)(*args, **kwargs)


def _delegate(func: str, args: str):
    module = func.split("_")[0] + "_"  # extract_ / assign_
    return partial(py._gen_delegate, kernel_mod=module, kernel_fn=func, args=args)


KERNELS: dict[str, Kernel] = {
    "mxv": Kernel(
        ("a", "u", "c"), ("add", "mult"), K.mxv, _product("a", "u"), "MVVvO",
        partial(cpp._gen_spmv, vxm=False), partial(py._gen_spmv, vxm=False), **_SPMV,
        traced=(
            # SSSP and connected components relax dense and push
            *(Use(d, ("Min", mult), OpDesc(accum="Min"), direction)
              for d, mult in ((F64 * 3, "Plus"), (I64 * 3, "Second"),
                              (F64 + I64 * 2, "Second"))  # components of a served graph
              for direction in (None, "push")),
            # BFS steps dense, push on sparse frontiers and pull on dense ones
            *(Use(("int64", "bool", "bool"), ("LogicalOr", "LogicalAnd"), TRAVERSAL, direction)
              for direction in (None, "push", "pull")),
        ),
        # schedule.resolve offers pull only under a mask; `d[:] accum= A @ d`
        # (Bellman-Ford) accumulates with the add monoid
        grid=_semiring_grid(lambda add: (
            (PLAIN, None), (PLAIN, "push"), (TRAVERSAL, "push"), (TRAVERSAL, "pull"),
            (OpDesc(accum=add), None), (OpDesc(accum=add), "push"))),
    ),
    "vxm": Kernel(
        ("a", "u", "c"), ("add", "mult"), K.vxm, _product("u", "a"), "MVVvO",
        partial(cpp._gen_spmv, vxm=True), partial(py._gen_spmv, vxm=True), **_SPMV,
        traced=(Use(F64 * 3, ("Plus", "Times"), OpDesc(accum="Second")),),  # PageRank
        # `w[...] << v.vxm(A)` with Second accumulation: PageRank-style loops
        grid=_semiring_grid(lambda add: (
            (PLAIN, None), (PLAIN, "push"), (OpDesc(accum="Second"), "push"))),
    ),
    "mxm": Kernel(
        ("a", "b", "c"), ("add", "mult"), K.mxm, _product("a", "b"), "MMMm",
        cpp._gen_mxm, py._gen_mxm, transposes=("ta", "tb"), parallel=True,
        traced=(Use(I64 * 3, ("Plus", "Times"), MASKED),),  # triangle count
        baked_transposes=((False, True),),  # L @ U.T
    ),
    "ewise_add_vec": Kernel(
        **_EWISE_VEC, reference=K.ewise_add_vec,
        cpp=partial(cpp._gen_ewise_vec, kernel="ewise_add"),
        py=partial(py._gen_ewise_vec, merge="union_merge"),
        traced=(Use(F64 * 3, ("Minus",), PLAIN),),
        grid=tuple(Use((d, d, _dt(op, d)), (op,), PLAIN)
                   for d in _DTYPES for op in ("Plus", "Min")),
    ),
    "ewise_mult_vec": Kernel(
        **_EWISE_VEC, reference=K.ewise_mult_vec,
        cpp=partial(cpp._gen_ewise_vec, kernel="ewise_mult"),
        py=partial(py._gen_ewise_vec, merge="intersect_merge"),
        traced=(Use(F64 * 3, ("Times",), PLAIN),),
        grid=tuple(Use((d, d, _dt("Times", d)), ("Times",), PLAIN) for d in _DTYPES),
    ),
    "ewise_add_mat": Kernel(
        **_EWISE_MAT, reference=K.ewise_add_mat,
        cpp=partial(cpp._gen_ewise_mat, kernel="ewise_add_mat"),
        py=partial(py._gen_ewise_mat, merge="union_merge"),
    ),
    "ewise_mult_mat": Kernel(
        **_EWISE_MAT, reference=K.ewise_mult_mat,
        cpp=partial(cpp._gen_ewise_mat, kernel="ewise_mult_mat"),
        py=partial(py._gen_ewise_mat, merge="intersect_merge"),
    ),
    "apply_vec": Kernel(
        **_APPLY, reference=K.apply_vec, layout="VVvSO",
        cpp=cpp._gen_apply_vec, py=py._gen_apply_vec,
        traced=(Use(F64 * 2, ("bind", "Plus", "second"), PLAIN),),
        # PageRank's damping multiply and teleport add
        grid=tuple(Use((d, d), ("bind", op, "second"), PLAIN)
                   for d in _DTYPES for op in ("Times", "Plus")),
    ),
    "apply_mat": Kernel(
        **_APPLY, reference=K.apply_mat, layout="MmmS",
        cpp=cpp._gen_apply_mat, py=py._gen_apply_mat, transposes=("ta",),
        traced=(Use(F64 * 2, ("bind", "Times", "second"), PLAIN),
                *(Use((d, "float64"), ("unary", "Identity", "none"), PLAIN) for d in _DTYPES)),
    ),
    "reduce_mat_scalar": Kernel(
        **_REDUCE, reference=K.reduce_mat_scalar, layout="MSP",
        cpp=partial(cpp._gen_reduce_scalar, matrix=True),
        py=partial(py._gen_reduce_scalar, matrix=True),
        traced=(Use(I64, ("Plus",)),),
        grid=tuple(Use((d,), (op,)) for d in _DTYPES for op in ("Plus", "Min", "Max")),
    ),
    "reduce_vec_scalar": Kernel(
        **_REDUCE, reference=K.reduce_vec_scalar, layout="VSP",
        cpp=partial(cpp._gen_reduce_scalar, matrix=False),
        py=partial(py._gen_reduce_scalar, matrix=False),
        traced=(Use(F64, ("Plus",)),),
        grid=tuple(Use((d,), (op,)) for d in _DTYPES for op in ("Plus", "Min", "Max")),
    ),
    "reduce_rows": Kernel(
        _AC, ("op",), K.reduce_rows, layout="MVvO",
        cpp=cpp._gen_reduce_rows, py=py._gen_reduce_rows, transposes=("ta",), parallel=True,
        # `v << A.reduce_rows()` over every monoid a predefined semiring adds with
        grid=tuple(Use((d, _dt(op, d)), (op,), PLAIN)
                   for op in sorted({add for add, _ in _SEMIRINGS}) for d in _DTYPES),
    ),
    # GBTL's normalize_rows helper: cpp only and outside the Engine
    # interface (CppJitEngine.normalize_rows); every other engine runs
    # the reference fold
    "normalize_rows": Kernel(
        _AC, (), normalize.normalize_rows, layout="MW", cpp=cpp._gen_normalize_rows,
        interface=False,
        traced=(Use(F64 * 2),),  # PageRank's set-up
        grid=tuple(Use((d, "float64")) for d in _DTYPES),
    ),
    "transpose": Kernel(_AC, (), K.transpose, py=py._gen_transpose),
    "select_mat": Kernel(
        _AC, ("op",), K.select_mat, py=partial(py._gen_select, matrix=True), transposes=("ta",),
    ),
    "select_vec": Kernel(_AC, ("op",), K.select_vec, py=partial(py._gen_select, matrix=False)),
    "kronecker": Kernel(
        ("a", "b", "c"), ("op",), K.kronecker, py=py._gen_kronecker, transposes=("ta", "tb"),
    ),
    "extract_mat": Kernel(
        _AC, (), K.extract_mat, py=_delegate("extract_mat", "c, a, rows, cols"), transposes=("ta",),
    ),
    "extract_vec": Kernel(
        _AC, (), K.extract_vec, layout="VVIvO", cpp=cpp._gen_extract_vec,
        py=_delegate("extract_vec", "c, u, idx"),
    ),
    "assign_mat": Kernel(
        _AC, (), K.assign_mat, py=_delegate("assign_mat", "c, a, rows, cols"), transposes=("ta",),
    ),
    "assign_vec": Kernel(
        _AC, (), K.assign_vec, layout="VVIvO", cpp=cpp._gen_assign_vec,
        py=_delegate("assign_vec", "c, u, idx"), traced=(Use(F64 * 2, (), PLAIN),),
    ),
    "assign_mat_scalar": Kernel(
        ("c",), (), K.assign_mat_scalar, layout="MSIIm", cpp=cpp._gen_assign_mat_scalar,
        py=_delegate("assign_mat_scalar", "c, value, rows, cols"),
    ),
    "assign_vec_scalar": Kernel(
        ("c",), (), K.assign_vec_scalar, layout="VSIvO", cpp=cpp._gen_assign_vec_scalar,
        py=_delegate("assign_vec_scalar", "c, value, idx"),
        traced=(Use(F64, (), PLAIN), Use(I64, (), MASKED)),
    ),
    # whole k-source traversals, one dispatch per served batch: the
    # interpreted and pyjit engines run the reference loop, cpp the loop
    # generated into one serial TU (layout R: caller buffers of k·n)
    "bfs_multi": Kernel(
        ("a",), (), K.bfs_multi, _fixed("LogicalAnd", "bool"), "MIR", cpp._gen_bfs_multi,
        traced=(Use(F64), Use(I64)),  # served graphs; Fig. 10's unweighted graph
        grid=tuple(Use((d,)) for d in _DTYPES),
    ),
    "sssp_multi": Kernel(
        ("a",), (), K.sssp_multi, _fixed("Plus", "a"), "MIR", cpp._gen_sssp_multi,
        traced=(Use(F64),),
        grid=tuple(Use((d,)) for d in _DTYPES),
    ),
    # the reduce-site fused pair: gb.reduce(u ⊕ v); PageRank's squared error
    "ewise_add_vec_reduce_scalar": Kernel(
        **_FUSED, reference=K.ewise_add_vec_reduce_scalar,
        cpp=partial(cpp._gen_ewise_reduce_scalar, kernel="ewise_add"),
        py=partial(py._gen_ewise_reduce_scalar, merge="union_merge"),
        grid=(Use(F64 * 2, ("Plus", "Plus")),),
    ),
    "ewise_mult_vec_reduce_scalar": Kernel(
        **_FUSED, reference=K.ewise_mult_vec_reduce_scalar,
        cpp=partial(cpp._gen_ewise_reduce_scalar, kernel="ewise_mult"),
        py=partial(py._gen_ewise_reduce_scalar, merge="intersect_merge"),
        traced=(Use(F64 * 2, ("Times", "Plus")),),
    ),
    # whole algorithms, one call each (Fig. 10 versions 2 and 3), and the
    # fast loader's parser; PageRank and TC inline the OpenMP kernels
    "pagerank": Kernel(
        ("a",), (), _above("repro.algorithms.pagerank", "pagerank_native"), layout="MDDNO",
        cpp=cpp._gen_pagerank, interface=False, parallel=True, traced=(Use(F64),),
    ),
    "triangle_count": Kernel(
        ("a",), (), _above("repro.algorithms.triangle_count", "triangle_count_native"),
        layout="MmW", cpp=cpp._gen_triangle_count, interface=False, parallel=True,
        traced=(Use(I64),),
    ),
    "mmread": Kernel(
        ("c",), (), _above("repro.io.matrixmarket", "mmread"), layout="INNNR",
        cpp=cpp._gen_mmread, interface=False, traced=(Use(F64),),
    ),
}


# ----------------------------------------------------------------------
# the one spec builder
# ----------------------------------------------------------------------
#: raw :func:`spec` arguments -> the spec they built: a dispatch asks for
#: its spec on every call, and a hit is one tuple and one dict probe
_SPECS: dict[tuple, KernelSpec] = {}


def spec(func: str, dtypes: tuple, ops: tuple = (), desc=None, direction=None,
         transposes: tuple = (), parallel: bool = False) -> KernelSpec:
    """The spec of row *func* for these operand dtypes (NumPy dtypes or
    tokens; ``None`` leaves a param out), operators, descriptor (an
    :class:`OpDesc`; ``None`` for kernels without one), schedule
    direction (``None`` is the dense kernel, whose keys predate the
    schedule layer) and pyjit transpose flags.  *parallel* marks an
    OpenMP-capable family ``par=1``, so serial and OpenMP artifacts hash
    (and cache) separately."""
    flags = None if desc is None else (desc.mask is None, desc.complement, desc.replace, desc.accum)
    raw = (func, dtypes, ops, flags, direction, transposes, parallel)
    made = _SPECS.get(raw)
    if made is not None:
        return made
    row = KERNELS[func]
    d = dict(zip(row.dtypes, dtypes))
    o = dict(zip(row.ops, ops))
    if row.derive is not None:
        d.update(row.derive(d, o))
    params = {name: KernelSpec.dt(dt) for name, dt in d.items() if dt is not None}
    params.update(o)
    if flags is not None:
        no_mask, comp, repl, accum = flags
        params.update(mask="none" if no_mask else "value", comp=comp, repl=repl,
                      accum=accum or "none")
    params.update(zip(row.transposes, transposes))
    if row.fused:
        params["fused"] = True
    if direction is not None:
        params["dir"] = direction
    if parallel and row.parallel:
        params["par"] = True
    return _SPECS.setdefault(raw, KernelSpec.make(func, **params))
