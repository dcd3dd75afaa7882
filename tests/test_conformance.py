"""One conformance runner: every engine against one reference, over the
configuration lattice.

PyGB realises the paper's Fig. 9 pipeline three times — the interpreted
kernels, generated NumPy (``pyjit``) and generated C++ (``cpp``) — under
one semantics, the GraphBLAS C API's mask / accumulate / replace rules.
This module checks that semantics with one oracle:

* **one generator** — :func:`programs` draws a short DSL program over a
  fixed state (two ``N×N`` matrices ``A``/``B`` and three ``N``-vectors
  ``u``/``v``/``w``, each ``bool``, ``int64`` or ``float64`` holding
  small integers, and a float now and then a ±NaN).  Its statements reach
  every Engine-interface method: products with ``.T``, eWise add/mult and
  ``gb.reduce(u ⊕ v)``, unary and bound-operator ``apply`` into every
  output dtype, reduce to a scalar and to rows, ``select``, ``kron``,
  extract/assign with index lists and scalars, the k-source traversals
  and the Fig. 2 BFS listing, aliasing ``C[M] = C @ C``, buffered
  element writes, ``copy`` / ``deepcopy`` / ``pickle`` mid-program, and
  non-conforming shapes that must raise — each write under a drawn
  mask × complement × replace × accumulate descriptor.  Operators and constants come from a fixed
  pool, so every fold is exact and the set of compiled kernels is bounded.
* **one reference** — :class:`ReferenceEngine` implements the Engine
  interface with ``backend/reference.py``'s ``ref_*`` functions, so the
  reference runs the same DSL front end as the engines it judges.  The
  interpreted kernels anchor ``select``, ``kronecker`` and the traversal
  loops, which have no ``ref_*`` transliteration.
* **one runner** — :func:`check` runs a program on the reference and on
  one drawn lattice point: engine × schedule (``fixed`` / ``push`` /
  ``pull`` / ``auto``) × cpp build (serial, OpenMP, OpenMP with
  ``PYGB_THREADS=4``) × ``kernel_fail`` at rate 0.5 armed or not.

**The comparison rule.**  Every container must match the reference in
shape, dtype, stored pattern and value *bits*, every observation (scalar
reductions, ``nvals``, traversal results) likewise, and a statement that
raises must raise the same exception type on both sides.  One thing is
not compared: the sign of a NaN.  NumPy's ``minimum.reduce`` /
``maximum.reduce`` return ``+NaN`` for ``[-NaN, 0.0]`` where the
elementwise ufunc and the C++ left fold keep ``-NaN``, and IEEE 754
leaves a NaN's sign unspecified for arithmetic, so the runner
canonicalises every NaN before comparing.  A program that would cast a
NaN to an integer, or grow a value past 2**40 (where float folds stop
being exact), is undefined and discarded.
"""

from __future__ import annotations

import contextlib
import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import repro as gb
from repro.algorithms import bfs_levels
from repro.algorithms.multisource import bfs_levels_multi, sssp_distances_multi
from repro.backend import kernels as K
from repro.backend import reference as R
from repro.backend.ops_table import binary_result_dtype
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.core.dispatch import _DISPATCH_METHODS, CountingEngine, make_engine
from repro.exceptions import DimensionMismatch
from repro.jit.cppengine import toolchain_works
from repro.schedule import Scheduled
from repro.testing.faults import fault_injection

N = 8
MATRICES, VECTORS = ("A", "B"), ("u", "v", "w")
DTYPES = ("bool", "int64", "float64")
ENGINES = ("interpreted", "pyjit") + (("cpp",) if toolchain_works() else ())
SCHEDULES = ("fixed", "push", "pull", "auto")
BUILDS = ("serial", "openmp", "openmp4")

BINOPS = ("Plus", "Minus", "Times", "Min", "Max", "First", "Second", "LogicalOr")
SEMIRINGS = (("Plus", "Times"), ("Min", "Plus"), ("Max", "First"),
             ("LogicalOr", "LogicalAnd"), ("Plus", "Minus"))
MONOIDS = ("Plus", "Times", "Min", "Max", "LogicalOr")
ACCUMS = (None, None, "Plus", "Min", "Minus", "Second")
UNARY = (("Identity",), ("AdditiveInverse",), ("LogicalNot",), ("MultiplicativeInverse",),
         ("Plus", 3, "second"), ("Times", 2.5, "second"), ("Minus", 1, "first"),
         ("GreaterThan", 0, "second"), ("Plus", True, "second"))
SELECTS = ("Tril", "Triu", "Diag", "Offdiag", "NonZero", "ValueGT", "ValueLE")
LIMIT = 2.0**40


# ----------------------------------------------------------------------
# the reference: the Engine interface over backend/reference.py
# ----------------------------------------------------------------------


class Undefined(Exception):
    """The program left the defined domain: a NaN or an out-of-range
    value cast to an integer, or a value past the exact float range."""


def _vec(store):
    return store.to_dict()


def _mat(store, transposed=False):
    d = store.to_dict()
    return R.ref_transpose_dict(d) if transposed else d


def _mask(desc):
    return None if desc.mask is None else desc.mask.to_dict()


def _shape(store):
    return (store.size,) if isinstance(store, SparseVector) else store.shape


def _conform(what, *shapes):
    if len(set(shapes)) > 1:
        raise DimensionMismatch(f"{what}: shapes {shapes} do not conform")


def _domain(op, a, b):
    """The domain of ``T`` for an operator over two stores (the C API's
    ``D_out``): the product type of a semiring, the result of an eWise op."""
    return binary_result_dtype(op, a.dtype, b.dtype)


def _finish(out, t, desc):
    """``out<mask, replace> = out (accum) t`` and the cast to out's dtype."""
    mask, accum = _mask(desc), desc.accum
    if isinstance(out, SparseVector):
        d = R.ref_finalize_vec(_vec(out), t, out.size, out.dtype, mask,
                               desc.complement, desc.replace, accum)
        keys = sorted(d)
        return SparseVector.from_sorted(
            out.size, np.array(keys, np.int64), np.array([d[k] for k in keys], out.dtype))
    d = R.ref_finalize_mat(_mat(out), t, out.shape, out.dtype, mask,
                           desc.complement, desc.replace, accum)
    keys = sorted(d)
    return SparseMatrix.from_coo_sorted(
        out.nrows, out.ncols, np.array([k[0] for k in keys], np.int64),
        np.array([k[1] for k in keys], np.int64), np.array([d[k] for k in keys], out.dtype))


def _mask_stage(out, z, desc):
    """GrB_assign's whole-container mask stage over the region-merged *z*."""
    return _finish(out, z, replace(desc, accum=None))


def _cast_scalar(value, dtype):
    return np.full(1, value, dtype=dtype)[0].item()


class ReferenceEngine:
    """The ``ref_*`` transliteration of the C API behind the Engine
    interface (no fused kernels: ``gb.reduce(u ⊕ v)`` takes two steps)."""

    name = "reference"
    supports_fusion = False

    def mxm(self, out, a, b, add, mult, desc, ta=False, tb=False):
        t = R.ref_mxm(_mat(a, ta), _mat(b, tb), add, mult, _domain(mult, a, b))
        return _finish(out, t, desc)

    def mxv(self, out, a, u, add, mult, desc, ta=False, sched=None):
        return _finish(out, R.ref_mxv(_mat(a, ta), _vec(u), add, mult, _domain(mult, a, u)), desc)

    def vxm(self, out, u, a, add, mult, desc, ta=False, sched=None):
        return _finish(out, R.ref_vxm(_vec(u), _mat(a, ta), add, mult, _domain(mult, u, a)), desc)

    def ewise_add_mat(self, out, a, b, op, desc, ta=False, tb=False):
        _conform("ewise_add", a.shape[::-1] if ta else a.shape, b.shape[::-1] if tb else b.shape)
        t = R.ref_ewise_add(_mat(a, ta), _mat(b, tb), op, _domain(op, a, b))
        return _finish(out, t, desc)

    def ewise_mult_mat(self, out, a, b, op, desc, ta=False, tb=False):
        _conform("ewise_mult", a.shape[::-1] if ta else a.shape, b.shape[::-1] if tb else b.shape)
        t = R.ref_ewise_mult(_mat(a, ta), _mat(b, tb), op, _domain(op, a, b))
        return _finish(out, t, desc)

    def ewise_add_vec(self, out, u, v, op, desc):
        _conform("ewise_add", _shape(u), _shape(v))
        return _finish(out, R.ref_ewise_add(_vec(u), _vec(v), op, _domain(op, u, v)), desc)

    def ewise_mult_vec(self, out, u, v, op, desc):
        _conform("ewise_mult", _shape(u), _shape(v))
        return _finish(out, R.ref_ewise_mult(_vec(u), _vec(v), op, _domain(op, u, v)), desc)

    def apply_mat(self, out, a, op_spec, desc, ta=False):
        return _finish(out, R.ref_apply(_mat(a, ta), op_spec), desc)

    def apply_vec(self, out, u, op_spec, desc):
        return _finish(out, R.ref_apply(_vec(u), op_spec), desc)

    def reduce_mat_scalar(self, a, op, identity):
        return a.dtype.type(R.ref_reduce_scalar(_mat(a), op, identity, a.dtype))

    def reduce_vec_scalar(self, u, op, identity):
        return u.dtype.type(R.ref_reduce_scalar(_vec(u), op, identity, u.dtype))

    def reduce_rows(self, out, a, op, desc, ta=False):
        return _finish(out, R.ref_reduce_rows(_mat(a, ta), op, _domain(op, a, a)), desc)

    def transpose(self, out, a, desc):
        return _finish(out, R.ref_transpose_dict(_mat(a)), desc)

    def select_mat(self, out, a, op, thunk, desc, ta=False):
        return K.select_mat(out, a, op, thunk, desc, ta)

    def select_vec(self, out, u, op, thunk, desc):
        return K.select_vec(out, u, op, thunk, desc)

    def kronecker(self, out, a, b, op, desc, ta=False, tb=False):
        return K.kronecker(out, a, b, op, desc, ta, tb)

    def extract_mat(self, out, a, rows, cols, desc, ta=False):
        _conform("extract", out.shape, (len(rows), len(cols)))
        return _finish(out, R.ref_extract_mat(_mat(a, ta), rows.tolist(), cols.tolist()), desc)

    def extract_vec(self, out, u, idx, desc):
        _conform("extract", _shape(out), (len(idx),))
        return _finish(out, R.ref_extract_vec(_vec(u), idx.tolist()), desc)

    def assign_mat(self, out, a, rows, cols, desc, ta=False):
        _conform("assign", a.shape[::-1] if ta else a.shape, (len(rows), len(cols)))
        z = R.ref_assign_mat(_mat(out), _mat(a, ta), rows.tolist(), cols.tolist(),
                             desc.accum, out.dtype)
        return _mask_stage(out, z, desc)

    def assign_vec(self, out, u, idx, desc):
        _conform("assign", _shape(u), (len(idx),))
        z = R.ref_assign_vec(_vec(out), _vec(u), idx.tolist(), desc.accum, out.dtype)
        return _mask_stage(out, z, desc)

    def assign_mat_scalar(self, out, value, rows, cols, desc):
        value = _cast_scalar(value, out.dtype)
        block = {(i, j): value for i in range(len(rows)) for j in range(len(cols))}
        z = R.ref_assign_mat(_mat(out), block, rows.tolist(), cols.tolist(), desc.accum, out.dtype)
        return _mask_stage(out, z, desc)

    def assign_vec_scalar(self, out, value, idx, desc):
        value = _cast_scalar(value, out.dtype)
        block = dict.fromkeys(range(len(idx)), value)
        z = R.ref_assign_vec(_vec(out), block, idx.tolist(), desc.accum, out.dtype)
        return _mask_stage(out, z, desc)

    def bfs_multi(self, graph, sources):
        return K.bfs_multi(graph, sources)

    def sssp_multi(self, graph, sources):
        return K.sssp_multi(graph, sources)


REFERENCE = ReferenceEngine()
_ENGINES: dict = {}


def engine(name):
    """One engine object per name for the module: its kernel cache and
    argument packs carry over from program to program, as in a process
    that runs many statements."""
    if name not in _ENGINES:
        _ENGINES[name] = make_engine(name)
    return _ENGINES[name]


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------

_small = st.integers(-3, 3)


@st.composite
def _container(draw, shape, dtype):
    cells = int(np.prod(shape))
    keys = draw(st.lists(st.integers(0, cells - 1), unique=True, max_size=cells // 2 + 2))
    if dtype == "float64":
        values = draw(st.lists(st.one_of(_small, _small, _small, _small, _small,
                                         st.sampled_from([np.nan, -np.nan])),
                               min_size=len(keys), max_size=len(keys)))
    else:
        values = draw(st.lists(_small, min_size=len(keys), max_size=len(keys)))
    return dtype, dict(zip(sorted(keys), values))


@st.composite
def _index(draw, conforming=True):
    """``N`` indices into ``range(N)``, repeats allowed, or now and then
    a shorter, non-conforming list when *conforming* is False."""
    if not conforming and draw(st.integers(0, 9)) == 0:
        return draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N - 1))
    return draw(st.lists(st.integers(0, N - 1), min_size=N, max_size=N))


@st.composite
def _write(draw, kind):
    """The write half of a statement: target, mask, replace, accumulate."""
    names = MATRICES if kind == "mat" else VECTORS
    masked = draw(st.sampled_from((None, "mask", "comp")))
    return dict(
        out=draw(st.sampled_from(names)),
        mask=None if masked is None else draw(st.sampled_from(names)),
        comp=masked == "comp",
        replace=draw(st.booleans()),
        replace_by=draw(st.sampled_from(("key", "context"))),
        accum=draw(st.sampled_from(ACCUMS)),
    )


KINDS = (
    "mxv", "vxm", "mxm", "ewise_vec", "ewise_mat", "apply_vec", "apply_mat",
    "reduce_rows", "transpose", "select_vec", "select_mat", "kron",
    "extract_vec", "extract_mat", "assign_vec", "assign_mat", "fill",
    "element", "reduce", "reduce_ewise", "traverse", "dup", "observe",
)


@st.composite
def _statement(draw, kind):
    mat, vec = st.sampled_from(MATRICES), st.sampled_from(VECTORS)
    s = dict(kind=kind)
    if kind in ("mxv", "vxm"):
        s.update(a=draw(mat), ta=draw(st.booleans()), u=draw(vec),
                 semiring=draw(st.sampled_from(SEMIRINGS)),
                 u_index=None if draw(st.integers(0, 9)) else draw(_index(False)),
                 **draw(_write("vec")))
    elif kind == "mxm":
        s.update(a=draw(mat), ta=draw(st.booleans()), b=draw(mat), tb=draw(st.booleans()),
                 semiring=draw(st.sampled_from(SEMIRINGS)), **draw(_write("mat")))
    elif kind in ("ewise_vec", "ewise_mat"):
        src = mat if kind == "ewise_mat" else vec
        s.update(a=draw(src), b=draw(src), add=draw(st.booleans()),
                 op=draw(st.sampled_from(BINOPS)),
                 ta=kind == "ewise_mat" and draw(st.booleans()),
                 tb=kind == "ewise_mat" and draw(st.booleans()),
                 **draw(_write(kind[-3:])))
    elif kind in ("apply_vec", "apply_mat"):
        s.update(a=draw(mat if kind == "apply_mat" else vec), op=draw(st.sampled_from(UNARY)),
                 ta=kind == "apply_mat" and draw(st.booleans()), **draw(_write(kind[-3:])))
    elif kind == "reduce_rows":
        s.update(a=draw(mat), ta=draw(st.booleans()), monoid=draw(st.sampled_from(MONOIDS)),
                 **draw(_write("vec")))
    elif kind == "transpose":
        s.update(a=draw(mat), **draw(_write("mat")))
    elif kind in ("select_vec", "select_mat"):
        s.update(a=draw(mat if kind == "select_mat" else vec), op=draw(st.sampled_from(SELECTS)),
                 thunk=draw(st.integers(-1, 1)), **draw(_write(kind[-3:])))
    elif kind == "kron":
        # a 2x2 block of one operand times a 4x4 block of the other: 8x8
        s.update(a=draw(mat), b=draw(mat), op=draw(st.sampled_from(BINOPS)),
                 rows_a=draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2)),
                 rows_b=draw(st.lists(st.integers(0, N - 1), min_size=4, max_size=4)),
                 **draw(_write("mat")))
    elif kind == "extract_vec":
        s.update(a=draw(vec), index=draw(_index(False)), **draw(_write("vec")))
    elif kind == "extract_mat":
        s.update(a=draw(mat), rows=draw(_index(False)), cols=draw(_index()),
                 **draw(_write("mat")))
    elif kind in ("assign_vec", "assign_mat"):
        # GrB_assign leaves duplicate indices undefined: the region is a
        # set of distinct positions
        region = st.lists(st.integers(0, N - 1), unique=True, min_size=1, max_size=4)
        s.update(rows=draw(region), cols=draw(region),
                 source=draw(st.sampled_from(("scalar", "container", "transposed"))),
                 a=draw(mat if kind == "assign_mat" else vec), value=draw(_small),
                 **draw(_write(kind[-3:])))
    elif kind == "fill":
        s.update(value=draw(_small), **draw(_write(draw(st.sampled_from(("vec", "mat"))))))
    elif kind == "element":
        s.update(out=draw(st.sampled_from(MATRICES + VECTORS)),
                 at=draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2)),
                 value=draw(st.one_of(_small, st.just(True), st.just(2.5))))
    elif kind == "reduce":
        s.update(a=draw(st.sampled_from(MATRICES + VECTORS)),
                 monoid=draw(st.sampled_from(MONOIDS)))
    elif kind == "reduce_ewise":
        s.update(a=draw(vec), b=draw(vec), add=draw(st.booleans()),
                 op=draw(st.sampled_from(BINOPS)), monoid=draw(st.sampled_from(MONOIDS)))
    elif kind == "traverse":
        s.update(a=draw(mat), algorithm=draw(st.sampled_from(("bfs", "sssp", "listing"))),
                 sources=draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=3)))
    elif kind == "dup":
        names = draw(st.sampled_from((MATRICES, VECTORS)))
        s.update(out=draw(st.sampled_from(names)), a=draw(st.sampled_from(names)),
                 how=draw(st.sampled_from(("copy", "deepcopy", "pickle"))))
    else:  # observe: nvals and one element (EmptyObject where none is stored)
        s.update(a=draw(st.sampled_from(MATRICES + VECTORS)),
                 at=draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2)))
    return s


@st.composite
def programs(draw):
    # every program holds every dtype among its vectors, and two among
    # its matrices, in an order drawn evenly
    state = {name: draw(_container((N, N), dtype))
             for name, dtype in zip(MATRICES, draw(st.permutations(DTYPES)))}
    state.update({name: draw(_container((N,), dtype))
                  for name, dtype in zip(VECTORS, draw(st.permutations(DTYPES)))})
    # a permutation spreads the kinds evenly over a batch; repeating the
    # first reuses what it built (memos, argument packs, aliases)
    kinds = draw(st.permutations(KINDS))[: draw(st.integers(2, 8))]
    if draw(st.booleans()):
        kinds.append(kinds[0])
    return state, [draw(_statement(kind)) for kind in kinds]


lattice_points = st.fixed_dictionaries(dict(
    schedule=st.sampled_from(SCHEDULES),
    build=st.sampled_from(BUILDS),
    faults=st.booleans(),
))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def _build(state):
    out = {}
    for name, (dtype, cells) in state.items():
        keys = sorted(cells)
        vals = [cells[k] for k in keys]
        if name in MATRICES:
            out[name] = gb.Matrix((vals, ([k // N for k in keys], [k % N for k in keys])),
                                  shape=(N, N), dtype=dtype)
        else:
            out[name] = gb.Vector((vals, keys), shape=(N,), dtype=dtype)
    return out


def _write_into(env, s, expr, region=None):
    """``out[key] = expr`` (``out[key][region] = expr`` for an assign), or
    ``+=`` under the statement's accumulator; replace is the key's flag or
    a ``with gb.Replace`` block."""
    out, key = env[s["out"]], None
    if s["mask"] is not None:
        key = ~env[s["mask"]] if s["comp"] else env[s["mask"]]
    if s["replace"] and s["replace_by"] == "key":
        key = (key, True)
    site, index = (out, key) if region is None else (out[key], region)
    with contextlib.ExitStack() as stack:
        if s["replace"] and s["replace_by"] == "context":
            stack.enter_context(gb.Replace)
        if s["accum"] is None:
            site[index] = expr
        else:
            stack.enter_context(gb.Accumulator(s["accum"]))
            site[index] += expr


def _unary(op):
    return gb.UnaryOp(op[0]) if len(op) == 1 else gb.UnaryOp(op[0], op[1], bind=op[2])


def _operand(env, name, transposed):
    return env[name].T if transposed else env[name]


def _statement_run(env, s, seen):
    kind = s["kind"]
    if kind in ("mxv", "vxm"):
        a, u = _operand(env, s["a"], s["ta"]), env[s["u"]]
        if s["u_index"] is not None:
            u = u[s["u_index"]]
        with gb.Semiring(gb.Monoid(s["semiring"][0]), s["semiring"][1]):
            _write_into(env, s, a @ u if kind == "mxv" else u @ a)
    elif kind == "mxm":
        with gb.Semiring(gb.Monoid(s["semiring"][0]), s["semiring"][1]):
            _write_into(env, s, _operand(env, s["a"], s["ta"]) @ _operand(env, s["b"], s["tb"]))
    elif kind in ("ewise_vec", "ewise_mat"):
        a, b = _operand(env, s["a"], s["ta"]), _operand(env, s["b"], s["tb"])
        with gb.BinaryOp(s["op"]):
            _write_into(env, s, a + b if s["add"] else a * b)
    elif kind in ("apply_vec", "apply_mat"):
        _write_into(env, s, gb.apply(_unary(s["op"]), _operand(env, s["a"], s["ta"])))
    elif kind == "reduce_rows":
        _write_into(env, s, gb.reduce(gb.Monoid(s["monoid"]), _operand(env, s["a"], s["ta"])))
    elif kind == "transpose":
        _write_into(env, s, env[s["a"]].T)
    elif kind in ("select_vec", "select_mat"):
        _write_into(env, s, gb.select(s["op"], env[s["a"]], s["thunk"]))
    elif kind == "kron":
        a = env[s["a"]][s["rows_a"], s["rows_a"][::-1]]
        b = env[s["b"]][s["rows_b"], s["rows_b"][::-1]]
        _write_into(env, s, gb.kron(a, b, gb.BinaryOp(s["op"])))
    elif kind == "extract_vec":
        _write_into(env, s, env[s["a"]][s["index"]])
    elif kind == "extract_mat":
        _write_into(env, s, env[s["a"]][s["rows"], s["cols"]])
    elif kind in ("assign_vec", "assign_mat"):
        _assign(env, s)
    elif kind == "fill":
        _write_into(env, s, s["value"])
    elif kind == "element":
        target = env[s["out"]]
        i, j = s["at"]
        if s["out"] in MATRICES:
            target[i, j] = s["value"]
        else:
            target[i] = s["value"]
    elif kind == "reduce":
        with gb.Monoid(s["monoid"]):
            seen.append(gb.reduce(env[s["a"]]))
    elif kind == "reduce_ewise":
        a, b = env[s["a"]], env[s["b"]]
        with gb.BinaryOp(s["op"]):
            seen.append(gb.reduce(gb.Monoid(s["monoid"]), a + b if s["add"] else a * b))
    elif kind == "traverse":
        if s["algorithm"] == "listing":  # the Fig. 2 DSL loop, one source
            seen.append(_snapshot(bfs_levels(env[s["a"]], s["sources"][0])))
        else:
            run = bfs_levels_multi if s["algorithm"] == "bfs" else sssp_distances_multi
            seen.append(_snapshot(run(env[s["a"]], s["sources"])))
    elif kind == "dup":
        how = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda c: pickle.loads(pickle.dumps(c))}[s["how"]]
        env[s["out"]] = how(env[s["a"]])
    else:  # observations merge buffered element writes
        seen.append(env[s["a"]].nvals)
        i, j = s["at"]
        seen.append(env[s["a"]][i, j] if s["a"] in MATRICES else env[s["a"]][i])


def _assign(env, s):
    """``out[key][region] = value`` with a scalar, a same-shaped block of
    a state container, or a transposed one."""
    is_mat, src = s["kind"] == "assign_mat", env[s["a"]]
    if s["source"] == "scalar":
        value = s["value"]
    elif is_mat:
        block = (list(range(len(s["cols"]))), list(range(len(s["rows"]))))
        value = src[block].T if s["source"] == "transposed" else src[block[::-1]]
    else:
        value = src[list(range(len(s["rows"])))]
    _write_into(env, s, value, (s["rows"], s["cols"]) if is_mat else s["rows"])


def _canonical(values: np.ndarray) -> bytes:
    if values.dtype.kind == "f":
        values = np.where(np.isnan(values), np.nan, values)
    return values.tobytes()


def _snapshot(c):
    store = c._store
    if isinstance(store, SparseVector):
        return ("vec", store.size, str(store.dtype), store.indices.tobytes(),
                _canonical(store.values))
    rows, cols, vals = store.coo()
    return ("mat", store.shape, str(store.dtype), rows.tobytes(), cols.tobytes(),
            _canonical(vals))


def _scalar(x):
    if isinstance(x, float) and np.isnan(x):
        return ("float", "nan")
    return (type(x).__name__, x)


def run(program, eng, schedule="auto"):
    """Execute *program* on *eng*: the final state, the observations,
    ``(statement, exception type)`` for every statement that raised, and
    ``(kind, target dtype)`` for every write that completed."""
    state, statements = program
    raised, seen, wrote = [], [], set()
    with gb.use_engine(eng), Scheduled(schedule):
        env = _build(state)
        for i, s in enumerate(statements):
            try:
                _statement_run(env, s, seen)
            except Exception as exc:  # the type is the observable
                if eng is REFERENCE and type(exc) in (ValueError, OverflowError):
                    raise Undefined(exc) from None  # a NaN or a huge value cast to int
                raised.append((i, type(exc).__name__))
            else:
                if "out" in s:
                    wrote.add((s["kind"], str(env[s["out"]].dtype)))
        final = {name: _snapshot(c) for name, c in env.items()}
    seen = [x if isinstance(x, tuple) else _scalar(x) for x in seen]
    return final, seen, raised, wrote


def _too_large(final, seen):
    """Whether a finite container value or reduced scalar left the range
    where every fold order gives the same float (an infinity folds the
    same in any order)."""
    for snap in final.values():
        values = np.frombuffer(snap[-1], dtype=snap[2])
        finite = values[np.isfinite(values)] if values.dtype.kind == "f" else values
        if values.dtype.kind in "if" and np.any(np.abs(finite) > LIMIT):
            return True
    return any(kind in ("int", "float") and x != "nan" and LIMIT < abs(x) < np.inf
               for kind, x in seen)


@contextlib.contextmanager
def lattice(point, name):
    """Enter one lattice point's build and fault settings for engine
    *name* (each ``PYGB_*`` write reloads the configuration, see conftest)."""
    with pytest.MonkeyPatch.context() as mp, contextlib.ExitStack() as stack:
        if name == "cpp" and point["build"] == "serial":
            mp.setenv("PYGB_PARALLEL", "0")
        elif name == "cpp" and point["build"] == "openmp4":
            mp.setenv("PYGB_THREADS", "4")
        if point["faults"]:
            stack.enter_context(fault_injection("kernel_fail", rate=0.5))
        yield


def check(program, point, engines=None):
    """Run *program* on the reference, then on every engine under
    *point*, and assert each agrees (raises :class:`Undefined` for a
    program outside the defined domain).  *engines* maps an engine name
    to the object to run, by default the module's engines."""
    want = run(program, REFERENCE)
    if _too_large(want[0], [x for x in want[1] if len(x) == 2]):
        raise Undefined("a value grew past the exact range")
    engines = engines or {name: engine(name) for name in ENGINES}
    for name, eng in engines.items():
        with lattice(point, name):
            got = run(program, eng, point["schedule"])
        where = f"{name} under {point}"
        assert got[2] == want[2], f"exceptions differ on {where}: {got[2]} vs {want[2]}"
        assert got[1] == want[1], f"observations differ on {where}"
        for key in want[0]:
            assert got[0][key] == want[0][key], f"{key} differs on {where}"
    return want


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def _program(statements, **containers):
    """A hand-written program: every container an empty int64 one unless
    given as ``name=(dtype, {flat index: value})``."""
    state = {name: ("int64", {}) for name in MATRICES + VECTORS}
    state.update(containers)
    return state, statements


def _w(out, mask=None, comp=False, replace=False, accum=None):
    return dict(out=out, mask=mask, comp=comp, replace=replace, replace_by="key", accum=accum)


def _mxv(u="u", ta=False, semiring=("Plus", "Times"), u_index=None, **write):
    return dict(kind="mxv", a="A", ta=ta, u=u, semiring=semiring, u_index=u_index, **write)


def _ewise(op, out="w"):
    return dict(kind="ewise_vec", a="u", b="v", add=True, op=op, ta=False, tb=False,
                **_w(out))


_PLAIN = dict(schedule="auto", build="openmp", faults=False)

#: the lattice misses found by hand before this runner existed
HISTORICAL = [
    # a deep-copied container's argument pack outlived its store (PR 13)
    _program([dict(kind="dup", out="v", a="u", how="deepcopy"),
              _mxv(u="v", **_w("w")),
              dict(kind="fill", value=3, **_w("u")),
              _mxv(u="v", ta=True, **_w("w", accum="Plus"))],
             A=("float64", {1: 2, 9: 3, 17: -1}), u=("float64", {0: 1, 1: 2})),
    # the cpp write-back of a bool output under a mask and an accumulator (PR 18)
    _program([dict(kind="mxm", a="A", ta=False, b="A", tb=True, semiring=("Plus", "Times"),
                   **_w("B", mask="A", accum="Plus"))],
             A=("int64", {0: 2, 1: -1, 9: 3}), B=("bool", {0: True, 10: True})),
    # True + True is one, whatever the output widens it to (PR 23)
    _program([_ewise("Plus")], u=("bool", {0: True, 1: True}), v=("bool", {1: True, 2: True})),
    # Minus on two bool operands is XOR on every engine (PR 24)
    _program([_ewise("Minus"), _mxv(semiring=("Plus", "Minus"), **_w("v"))],
             A=("bool", {0: True, 9: False}), u=("bool", {0: True, 1: False}),
             v=("bool", {1: True, 2: True})),
    # a non-conforming statement raises instead of writing out of bounds (PR 24)
    _program([_mxv(u_index=[0, 1, 2], **_w("w")),
              dict(kind="extract_vec", a="u", index=[3, 1], **_w("w", mask="v"))],
             A=("int64", {0: 1}), u=("int64", {0: 1})),
    # a bound operator computes at the promoted type, then narrows (PR 25)
    _program([dict(kind="apply_vec", a="u", op=("Times", 2.5, "second"), ta=False, **_w("w")),
              dict(kind="apply_mat", a="A", op=("Times", 2.5, "second"), ta=True,
                   **_w("B", accum="Plus"))],
             u=("int64", {0: 1, 1: -3, 2: 3}), A=("int64", {1: 3, 8: -1}),
             B=("int64", {8: 1})),
    # a sparse traversal on a transposed matrix under every mask form (PR 23)
    _program([_mxv(ta=True, **_w("w", mask="v", comp=True, replace=True)),
              dict(kind="vxm", a="A", ta=True, u="u", semiring=("Min", "Plus"), u_index=None,
                   **_w("w", mask="v", accum="Min"))],
             A=("int64", {1: 2, 10: 3, 17: -1, 56: 1}), u=("int64", {0: 1, 1: 2, 2: 1}),
             v=("bool", {0: True, 2: True}), w=("int64", {0: 5, 5: 1})),
]

#: disagreements this runner found, each fixed in the engines or in the
#: reference
FOUND = [
    # AdditiveInverse of a bool operand: the NumPy engines refused it while
    # C++ negated the promoted integer
    _program([dict(kind="apply_vec", a="u", op=("AdditiveInverse",), ta=False, **_w("w")),
              dict(kind="apply_vec", a="u", op=("AdditiveInverse",), ta=False, **_w("v"))],
             u=("bool", {0: True, 1: False}), v=("bool", {})),
    # an accumulator runs in the output's domain: -1 accumulated into a
    # true bool stays true (the NumPy engines summed to 0 first)
    _program([_mxv(**_w("w", accum="Plus")),
              dict(kind="apply_vec", a="v", op=("Identity",), ta=False, **_w("u", accum="Plus")),
              dict(kind="assign_vec", rows=[0, 1], cols=[0], source="container", a="v", value=0,
                   **_w("u", accum="Plus"))],
             A=("int64", {0: -1}), u=("bool", {0: True, 1: True}), v=("int64", {0: -1, 1: 2}),
             w=("bool", {0: True})),
    # a row reduction folds in the monoid's domain: LogicalOr over int64
    # is bool even for a one-entry row, Plus over bool counts
    _program([dict(kind="reduce_rows", a="A", ta=False, monoid="LogicalOr", **_w("u")),
              dict(kind="reduce_rows", a="B", ta=False, monoid="Plus", **_w("v"))],
             A=("int64", {0: -1, 8: 0, 9: 0, 18: 2}), B=("bool", {0: True, 1: True, 9: True})),
    # a BFS whose frontier reaches a cycle of stored-zero edges holds
    # only false entries there: neither the k-source kernels nor the
    # Fig. 2 listing ended on any engine
    _program([dict(kind="traverse", a="A", algorithm="bfs", sources=[0, 2]),
              dict(kind="traverse", a="A", algorithm="listing", sources=[0])],
             A=("int64", {1: 0, 9: 0, 10: 3})),
    # a plain unary operator runs at its domain over the operand, then
    # casts: 1/0.5 into int64 is 2 and !0.5 is false (cpp cast 0.5 to 0
    # first); a float 1/0 is inf (cpp gave 0)
    _program([dict(kind="apply_vec", a="u", op=("MultiplicativeInverse",), ta=False, **_w("w")),
              dict(kind="apply_vec", a="u", op=("LogicalNot",), ta=False, **_w("v")),
              dict(kind="apply_mat", a="A", op=("MultiplicativeInverse",), ta=False, **_w("B"))],
             u=("float64", {0: 0.5, 1: 4.0}), A=("float64", {0: 0.0, 1: -2.0}),
             B=("float64", {})),
    # the reference's T has the operator's domain: a bool product counted
    # in int64, and First over (bool, int64) casts a one-sided int to bool
    _program([_mxv(**_w("w")), _ewise("First", out="v")],
             A=("bool", {0: True, 1: True}), u=("bool", {0: True, 1: True}),
             v=("int64", {0: -1, 3: 2})),
]

EXAMPLES = 150


def _runner(reached):
    """The runner over the derandomized batch plus every hand-written
    program, recording into *reached* what each program that passed reached."""

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(program=programs(), point=lattice_points)
    def agree(program, point):
        counters = {name: CountingEngine(engine(name)) for name in ENGINES}
        try:
            want = check(program, point, counters)
        except Undefined:
            reject()
        reached["programs"] += 1
        for name, counting in counters.items():
            reached["methods"][name] |= set(counting.counts)
        reached["points"].add((point["schedule"], point["build"], point["faults"]))
        reached["writes"] |= want[3]
        reached["descriptors"] |= {
            (s["mask"] is not None, s["comp"], s["replace"], s["accum"] is not None)
            for s in program[1] if "mask" in s}

    for program in HISTORICAL + FOUND:
        agree = example(program=program, point=_PLAIN)(agree)
    return agree


@pytest.fixture(scope="module")
def reached():
    """Run the runner once for the module: what its batch reached."""
    reached = dict(programs=0, methods={name: set() for name in ENGINES}, points=set(),
                   writes=set(), descriptors=set())
    _runner(reached)()
    return reached


def test_every_engine_agrees_with_the_reference(reached):
    """The runner (it runs in the fixture the coverage guard shares): every
    drawn program passed, and few were discarded as undefined."""
    assert reached["programs"] == EXAMPLES + len(HISTORICAL + FOUND)


# ----------------------------------------------------------------------
# tests of the runner itself
# ----------------------------------------------------------------------


def test_the_batch_reaches_every_method_and_lattice_point(reached):
    """Every Engine-interface method on every engine (the fused reduce
    pair only where the engine fuses), every mask × complement × replace ×
    accumulate combination, every output dtype (for ``apply`` too), every
    schedule and cpp build, with and without injected failures."""
    fused = {"ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"}
    for name in ENGINES:
        expected = _DISPATCH_METHODS - (set() if engine(name).supports_fusion else fused)
        assert reached["methods"][name] == expected, name
    assert reached["descriptors"] == {
        (m, c, r, a) for m in (False, True) for c in (False, m) for r in (False, True)
        for a in (False, True)}
    assert {d for _, d in reached["writes"]} == set(DTYPES)
    assert {d for k, d in reached["writes"] if k.startswith("apply")} == set(DTYPES)
    assert {p[0] for p in reached["points"]} == set(SCHEDULES)
    assert {p[1] for p in reached["points"]} == set(BUILDS)
    assert {p[2] for p in reached["points"]} == {False, True}


def test_the_runner_reports_a_planted_fault(monkeypatch):
    """One wrong value out of one engine's ``mxv`` must not pass."""
    from repro.jit.pyengine import PyJitEngine

    real = PyJitEngine.mxv

    def planted(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        values = out.values.copy()
        values[0] += 1
        return SparseVector.from_sorted(out.size, out.indices, values)

    monkeypatch.setattr(PyJitEngine, "mxv", planted)
    program = _program([_mxv(**_w("w"))], A=("int64", {0: 2, 9: 3}), u=("int64", {0: 1, 1: 1}))
    check(program, _PLAIN, {"interpreted": make_engine("interpreted")})
    with pytest.raises(AssertionError, match="w differs on pyjit"):
        check(program, _PLAIN, {"pyjit": make_engine("pyjit")})


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("monoid", ["MinMonoid", "MaxMonoid"])
def test_a_reduced_nan_is_nan_on_every_engine(name, monoid):
    """Its sign is not pinned: NumPy's ``minimum.reduce`` over
    ``[-NaN, 0.0]`` gives ``+NaN`` where the C++ left fold keeps ``-NaN``."""
    v = gb.Vector(([-np.nan, 0.0], [0, 1]), shape=(2,), dtype=np.float64)
    with gb.use_engine(engine(name)):
        assert np.isnan(gb.reduce(getattr(gb, monoid), v))
