"""Multi-node statements and the one fused kernel that has traffic.

Three properties under test:

* **equivalence** — a statement whose operands are themselves deferred
  expressions (``w[None] = (A @ u) * 2``, ``C[M] = (A + B) * 2``, …)
  evaluates by the paper's recursion, one engine call per node, and
  produces the result of the unfused ``interpreted`` engine
  (bit-identical for pyjit, which shares NumPy primitives with the
  reference; allclose for cpp, whose reductions may re-associate floats)
  across dtypes, masks (including ``~mask``), accumulators, the replace
  flag, both execution modes and buffered element writes on the target;
* **the survivor** — ``gb.reduce(u ⊕ v)`` runs as one
  ``ewise_{add,mult}_vec_reduce_scalar`` kernel on the JIT engines,
  equal to the two-kernel sequence and to ``backend/reference.py`` over
  every dtype pair, empty and disjoint operands and a user-defined
  monoid;
* **the traffic** — a :class:`~repro.core.dispatch.CountingEngine` over
  the four paper listings pins the exact dispatch table, so a commit
  that silently loses the reduce-site rule fails here, not in a
  benchmark.

The parameter ids of the differential tests (``mxv_apply``, …) name the
*statement shape*: producer kind, then consumer kind.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as gb
from repro.backend import kernels as K
from repro.backend import ops_table
from repro.backend import reference as R
from repro.backend.ops_table import binary_result_dtype
from repro.backend.svector import SparseVector
from repro.core.dispatch import _DISPATCH_METHODS, CountingEngine, InterpretedEngine, make_engine
from repro.core.masks import AccumExpr
from repro.jit.cppengine import CppJitEngine, toolchain_works
from repro.jit.kernels import KERNELS
from repro.jit.pyengine import PyJitEngine
from repro.types import POD_TYPES

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

N = 32

needs_cxx = pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")


@pytest.fixture
def pinned(no_faults):
    """The counting tests assert exact dispatch tables: keep ambient
    chaos faults out of them."""


def _data(dtype):
    rng = np.random.default_rng(11)
    return dict(
        A=random_mat_dict(rng, N, N, 0.25, dtype),
        B=random_mat_dict(rng, N, N, 0.25, dtype),
        u=random_vec_dict(rng, N, 0.5, dtype),
        v=random_vec_dict(rng, N, 0.5, dtype),
        w=random_vec_dict(rng, N, 0.4, dtype),
        W=random_mat_dict(rng, N, N, 0.2, dtype),
        mv=random_vec_dict(rng, N, 0.5, np.bool_),
        mm=random_mat_dict(rng, N, N, 0.4, np.bool_),
    )


# two-node statements, one per vector-producing (producer, consumer) shape
_VEC_EXPRS = {
    "mxv_apply": lambda A, B, u, v: (A @ u) * 2,
    "vxm_apply": lambda A, B, u, v: (u @ A) + 3,
    "ewise_add_vec_apply": lambda A, B, u, v: (u + v) * 2,
    "ewise_mult_vec_apply": lambda A, B, u, v: (u * v) + 1,
    "mxm_reduce_rows": lambda A, B, u, v: gb.reduce("Plus", A @ B),
}

_MAT_EXPRS = {
    "ewise_add_mat_apply": lambda A, B: (A + B) * 2,
    "ewise_mult_mat_apply": lambda A, B: (A * B) + 1,
}

_VEC_MODES = ("plain", "mask", "comp", "replace", "accum")


def _write(out, mask, expr, mode):
    if mode == "plain":
        out[None] = expr
    elif mode == "mask":
        out[mask] = expr
    elif mode == "comp":
        out[~mask] = expr
    elif mode == "replace":
        out[mask, True] = expr
    elif mode == "accum":
        with gb.Accumulator("Plus"):
            out[None] += expr
    return out.to_numpy()


def _run_vec(rule, mode, dtype):
    d = _data(dtype)
    A = mat_from_dict(d["A"], N, N, dtype)
    B = mat_from_dict(d["B"], N, N, dtype)
    u = vec_from_dict(d["u"], N, dtype)
    v = vec_from_dict(d["v"], N, dtype)
    out = vec_from_dict(d["w"], N, dtype)
    mask = vec_from_dict(d["mv"], N, np.bool_)
    return _write(out, mask, _VEC_EXPRS[rule](A, B, u, v), mode)


def _run_mat(rule, mode, dtype):
    d = _data(dtype)
    A = mat_from_dict(d["A"], N, N, dtype)
    B = mat_from_dict(d["B"], N, N, dtype)
    out = mat_from_dict(d["W"], N, N, dtype)
    mask = mat_from_dict(d["mm"], N, N, np.bool_)
    return _write(out, mask, _MAT_EXPRS[rule](A, B), mode)


def _run_reduce(rule, dtype):
    d = _data(dtype)
    u = vec_from_dict(d["u"], N, dtype)
    v = vec_from_dict(d["v"], N, dtype)
    if rule == "ewise_add_vec_reduce_scalar":
        return gb.reduce(u + v)
    return gb.reduce(u * v)


def _run_apply_assign(mode, dtype):
    d = _data(dtype)
    u = vec_from_dict(d["u"], N, dtype)
    out = vec_from_dict(d["w"], N, dtype)
    mask = vec_from_dict(d["mv"], N, np.bool_)
    if mode == "full":
        out[:] = u * 2
    elif mode == "indexed":
        idx = list(range(0, N, 3))
        small = vec_from_dict(
            {i: val for i, val in enumerate(sorted(d["v"].values())[: len(idx)])},
            len(idx),
            dtype,
        )
        out[idx] = small * 2
    elif mode == "masked":
        out[mask][:] = u * 2
    elif mode == "accum":
        # C[:] += expr in GrB terms; the DSL spells it through AccumExpr
        with gb.Accumulator("Plus"):
            out[slice(None)] = AccumExpr(u * 2)
    return out.to_numpy()


def _differential(build, engine_name, exact):
    with gb.use_engine(engine_name):
        got = np.asarray(build())
    with gb.use_engine("interpreted"):
        want = np.asarray(build())
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9)


# ----------------------------------------------------------------------
# equivalence: pyjit vs interpreted (bit-identical)
# ----------------------------------------------------------------------
class TestPyJitDifferential:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", _VEC_MODES)
    @pytest.mark.parametrize("rule", sorted(_VEC_EXPRS))
    def test_vector_rules(self, rule, mode, dtype):
        _differential(lambda: _run_vec(rule, mode, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", _VEC_MODES)
    @pytest.mark.parametrize("rule", sorted(_MAT_EXPRS))
    def test_matrix_rules(self, rule, mode, dtype):
        _differential(lambda: _run_mat(rule, mode, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rules(self, rule, dtype):
        _differential(lambda: _run_reduce(rule, dtype), "pyjit", exact=True)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("mode", ["full", "indexed", "masked", "accum"])
    def test_apply_assign(self, mode, dtype):
        _differential(lambda: _run_apply_assign(mode, dtype), "pyjit", exact=True)

    def test_unary_op_form(self):
        """A named UnaryOp (not a scalar bind) on top of a producer."""
        inv = gb.UnaryOp("AdditiveInverse")

        def build():
            d = _data(np.float64)
            A = mat_from_dict(d["A"], N, N, np.float64)
            u = vec_from_dict(d["u"], N, np.float64)
            return gb.Vector(gb.apply(inv, A @ u)).to_numpy()

        _differential(build, "pyjit", exact=True)


# ----------------------------------------------------------------------
# equivalence: cpp vs interpreted
# ----------------------------------------------------------------------
@pytest.mark.cpp
@needs_cxx
class TestCppDifferential:
    @pytest.mark.parametrize("mode", ["plain", "mask"])
    @pytest.mark.parametrize("rule", sorted(_VEC_EXPRS))
    def test_vector_rules(self, rule, mode):
        _differential(lambda: _run_vec(rule, mode, np.float64), "cpp", exact=False)

    @pytest.mark.parametrize("rule", sorted(_MAT_EXPRS))
    def test_matrix_rules(self, rule):
        _differential(lambda: _run_mat(rule, "mask", np.float64), "cpp", exact=False)

    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rules(self, rule):
        _differential(lambda: _run_reduce(rule, np.int64), "cpp", exact=True)

    @pytest.mark.parametrize("mode", ["full", "masked"])
    def test_apply_assign(self, mode):
        _differential(lambda: _run_apply_assign(mode, np.int64), "cpp", exact=True)


# ----------------------------------------------------------------------
# multi-node statements: outside and inside a nonblocking scope, buffered
# element writes pending on the target, every node dispatched once
# ----------------------------------------------------------------------
def _diamond(a, u, v, w):
    s = u + v
    return s * s  # one shared node, two consumer edges


#: statement -> (expression builder, its dispatch table)
_STATEMENTS = {
    "apply(a @ u)": (lambda a, u, v, w: gb.apply(gb.UnaryOp("AdditiveInverse"), a @ u),
                     {"mxv": 1, "apply_vec": 1}),
    "(u + v) * w": (lambda a, u, v, w: (u + v) * w,
                    {"ewise_add_vec": 1, "ewise_mult_vec": 1}),
    "reduce(Plus, a @ a)": (lambda a, u, v, w: gb.reduce("Plus", a @ a),
                            {"mxm": 1, "reduce_rows": 1}),
    "diamond": (_diamond, {"ewise_add_vec": 1, "ewise_mult_vec": 1}),
}


def _run_statement(name, form, nonblocking, dtype=np.float64):
    """The statement into a target that holds two buffered element
    writes; returns the target's exact final state."""
    d = _data(dtype)
    a = mat_from_dict(d["A"], N, N, dtype)
    u = vec_from_dict(d["u"], N, dtype)
    v = vec_from_dict(d["v"], N, dtype)
    w = vec_from_dict(d["w"], N, dtype)
    mask = vec_from_dict(d["mv"], N, np.bool_)
    out = vec_from_dict(d["w"], N, dtype)

    def program():
        out[3] = 7
        out[N - 1] = -2
        _write(out, mask, _STATEMENTS[name][0](a, u, v, w), form)

    if nonblocking:
        with gb.nonblocking():
            program()
    else:
        program()
    idx, vals = out.to_coo()
    return idx.tolist(), vals.tolist(), out.dtype


class TestMultiNodeStatements:
    @pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
    @pytest.mark.parametrize("form", ["plain", "mask", "accum"])
    @pytest.mark.parametrize("name", sorted(_STATEMENTS))
    @pytest.mark.parametrize("engine_name", ["pyjit", pytest.param("cpp", marks=needs_cxx)])
    def test_bit_identical_to_the_reference(self, pinned, engine_name, name, form, nonblocking):
        with gb.use_engine("interpreted"):
            want = _run_statement(name, form, nonblocking=False, dtype=np.int64)
        with gb.use_engine(engine_name):
            got = _run_statement(name, form, nonblocking, dtype=np.int64)
        assert got == want

    @pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
    @pytest.mark.parametrize("name", sorted(_STATEMENTS))
    def test_every_node_is_dispatched_once(self, pinned, name, nonblocking):
        """One engine call per expression node — the diamond's shared
        ``u + v`` included: ``Expression.new`` caches its container."""
        eng = CountingEngine(make_engine("pyjit"))
        with gb.use_engine(eng):
            _run_statement(name, "plain", nonblocking)
        assert eng.counts == _STATEMENTS[name][1]


class TestPlanIR:
    """The operand cache on ``Expression.new`` is the whole plan: a node
    is evaluated once, and a forced node is never evaluated again."""

    def test_shared_subexpression_evaluates_once(self):
        """Forcing the same expression twice reuses the cached container
        instead of re-running the kernel."""
        d = _data(np.float64)
        A = mat_from_dict(d["A"], N, N, np.float64)
        u = vec_from_dict(d["u"], N, np.float64)
        eng = CountingEngine(make_engine("pyjit"))
        with gb.use_engine(eng):
            e = A @ u
            w1 = gb.Vector(e)
            w2 = gb.Vector(e)
        assert eng.counts.get("mxv") == 1
        assert np.array_equal(w1.to_numpy(), w2.to_numpy())

    def test_materialised_producer_is_not_fused(self):
        """A producer that was already forced is reduced from its cached
        container, not re-executed inside the fused kernel."""
        d = _data(np.float64)
        u = vec_from_dict(d["u"], N, np.float64)
        v = vec_from_dict(d["v"], N, np.float64)
        eng = CountingEngine(make_engine("pyjit"))
        with gb.use_engine(eng):
            e = u * v
            e.nvals  # forces the producer
            gb.reduce(e)
        assert eng.counts == {"ewise_mult_vec": 1, "reduce_vec_scalar": 1}


# ----------------------------------------------------------------------
# the survivor: ewise_{add,mult}_vec_reduce_scalar
# ----------------------------------------------------------------------
_RULES = {
    "ewise_add_vec_reduce_scalar": ("Plus", R.ref_ewise_add, lambda u, v: u + v),
    "ewise_mult_vec_reduce_scalar": ("Times", R.ref_ewise_mult, lambda u, v: u * v),
}

#: a representative slice of the 121 pairs for the engine that pays a
#: g++ run per spec: same-type, bool with each kind, signed × unsigned,
#: int × float, float32 × float64
_CPP_PAIRS = [
    (np.bool_, np.bool_), (np.bool_, np.int8), (np.float32, np.bool_),
    (np.int8, np.uint8), (np.int64, np.int64), (np.uint16, np.int32),
    (np.int32, np.float32), (np.float32, np.float64), (np.float64, np.float64),
]
_ALL_PAIRS = [(a.type, b.type) for a in POD_TYPES for b in POD_TYPES]


def _small_vec(rng, dtype, picks, size=24):
    """``{index: value}`` with values small enough that every fold below
    is exact in every dtype (|sum| <= 72 < 127)."""
    dt = np.dtype(dtype)
    idx = rng.choice(size, size=picks, replace=False)
    if dt == np.bool_:
        vals = rng.integers(0, 2, picks).astype(bool)
    elif dt.kind == "u":
        vals = rng.integers(0, 4, picks)
    else:
        vals = rng.integers(-3, 4, picks)
    return {int(i): dt.type(x).item() for i, x in zip(idx, vals)}


def _bare_engine(name):
    return {"interpreted": InterpretedEngine, "pyjit": PyJitEngine, "cpp": CppJitEngine}[name]()


def _check_reduce(engine_name, rule, du, dv, da, db, rop="Plus", identity=None, size=24):
    """The engine's fused method against the two-kernel sequence on the
    same engine and against the dict reference."""
    op, ref_ewise, _ = _RULES[rule]
    u, v = vec_from_dict(du, size, da), vec_from_dict(dv, size, db)
    pdt = binary_result_dtype(op, da, db)
    eng = _bare_engine(engine_name)
    got = getattr(eng, rule)(u._store, v._store, op, rop, identity)
    ewise = eng.ewise_add_vec if op == "Plus" else eng.ewise_mult_vec
    t = ewise(SparseVector.empty(size, pdt), u._store, v._store, op, K.OpDesc())
    two_step = eng.reduce_vec_scalar(t, rop, identity)
    assert np.asarray(got).dtype == pdt, (da, db)
    assert got == two_step, (da, db, got, two_step)
    want = R.ref_reduce_scalar(ref_ewise(du, dv, op), rop, identity, dtype=pdt)
    assert got == want, (da, db, got, want)


class TestReduceSiteKernels:
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize(
        "engine_name", ["interpreted", "pyjit", pytest.param("cpp", marks=needs_cxx)]
    )
    def test_every_dtype_pair(self, engine_name, rule):
        rng = np.random.default_rng(5)
        for da, db in _CPP_PAIRS if engine_name == "cpp" else _ALL_PAIRS:
            _check_reduce(engine_name, rule, _small_vec(rng, da, 12), _small_vec(rng, db, 12),
                          da, db)

    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize(
        "engine_name", ["interpreted", "pyjit", pytest.param("cpp", marks=needs_cxx)]
    )
    def test_empty_and_disjoint_operands(self, engine_name, rule):
        rng = np.random.default_rng(6)
        some = _small_vec(rng, np.int64, 6)
        evens = {i: 2 for i in range(0, 24, 2)}
        odds = {i: 3 for i in range(1, 24, 2)}
        for du, dv in (({}, {}), (some, {}), ({}, some), (evens, odds)):
            _check_reduce(engine_name, rule, du, dv, np.int64, np.int64)
            _check_reduce(engine_name, rule, du, dv, np.int64, np.int64, rop="Min")

    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize(
        "engine_name", ["interpreted", "pyjit", pytest.param("cpp", marks=needs_cxx)]
    )
    def test_user_defined_monoid(self, engine_name, rule):
        ops_table.register_binary_op(
            "TSatPlus", lambda a, b: min(a + b, 20), associative=True,
            cxx="((({a}) + ({b})) < T(20) ? T(({a}) + ({b})) : T(20))",
        )
        try:
            du = {i: 2 + i % 4 for i in range(0, 24, 2)}
            dv = {i: 3 + i % 3 for i in range(0, 24, 3)}
            merged = _RULES[rule][1](du, dv, _RULES[rule][0])
            assert sum(merged.values()) > 20  # the fold saturates
            _check_reduce(engine_name, rule, du, dv, np.int64, np.int64,
                          rop="TSatPlus", identity=0)
            # and through the DSL: the monoid reaches the fused kernel
            u, v = vec_from_dict(du, 24, np.int64), vec_from_dict(dv, 24, np.int64)
            with gb.use_engine(engine_name):
                got = gb.reduce(gb.Monoid("TSatPlus", 0), _RULES[rule][2](u, v))
            assert got == 20
        finally:
            ops_table.unregister_op("TSatPlus")

    def test_interpreted_never_takes_the_fused_path(self):
        assert make_engine("pyjit").supports_fusion
        assert not make_engine("interpreted").supports_fusion
        eng = CountingEngine(make_engine("interpreted"))
        with gb.use_engine(eng):
            _run_reduce("ewise_mult_vec_reduce_scalar", np.float64)
        assert eng.counts == {"ewise_mult_vec": 1, "reduce_vec_scalar": 1}


# ----------------------------------------------------------------------
# call counts: the one fused kernel, and the four listings' exact table
# ----------------------------------------------------------------------
def _counted(engine_name, fn):
    eng = CountingEngine(make_engine(engine_name))
    with gb.use_engine(eng):
        result = fn()
    return eng, result


class TestCallSavings:
    @pytest.mark.parametrize(
        "rule", ["ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"]
    )
    def test_reduce_rule_fires(self, rule):
        eng, _ = _counted("pyjit", lambda: _run_reduce(rule, np.float64))
        assert eng.counts == {rule: 1}
        off, _ = _counted("interpreted", lambda: _run_reduce(rule, np.float64))
        assert rule not in off.counts
        assert off.total == eng.total + 1  # two calls became one

    def test_algorithms_issue_strictly_fewer_calls(self):
        """Tracing BFS + SSSP + PageRank, an engine with the fused kernel
        issues strictly fewer calls than the unfused reference."""
        from repro.algorithms import bfs_levels, pagerank, sssp_distances
        from repro.io.generators import erdos_renyi

        def trace():
            g = erdos_renyi(40, seed=3)
            gf = erdos_renyi(40, seed=3, weighted=True, dtype=float)
            bfs_levels(g, 0)
            sssp_distances(gf, 0)
            pr = gb.Vector(shape=(40,), dtype=float)
            pagerank(gf, pr)

        on, _ = _counted("pyjit", trace)
        off, _ = _counted("interpreted", trace)
        assert on.total < off.total
        assert on.counts.get("ewise_mult_vec_reduce_scalar", 0) > 0

    def test_pagerank_saves_one_call_per_iteration(self):
        from repro.algorithms import pagerank
        from repro.io.generators import erdos_renyi

        def trace():
            g = erdos_renyi(40, seed=3, weighted=True, dtype=float)
            pr = gb.Vector(shape=(40,), dtype=float)
            pagerank(g, pr)

        on, _ = _counted("pyjit", trace)
        off, _ = _counted("interpreted", trace)
        iters = on.counts["vxm"]
        assert off.total - on.total == iters


#: what one round of the four listings dispatches on the ``dsl_small``
#: shapes of ``bench_e2e`` (|V| = 256, |E| = |V|^1.5; PageRank on the
#: scale-free graph) — 60, inside a nonblocking scope as outside it
_LISTING_TABLE = {
    "mxv": 11, "vxm": 8, "apply_vec": 8, "ewise_add_vec": 8,
    "ewise_mult_vec_reduce_scalar": 8, "assign_vec": 8, "assign_vec_scalar": 5,
    "apply_mat": 2, "mxm": 1, "reduce_mat_scalar": 1,
}


def _four_listings():
    from repro.algorithms import (
        bfs_levels, lower_triangle, pagerank, sssp_converging, triangle_count,
    )
    from repro.io.generators import erdos_renyi_coo, scale_free

    n = 256
    rows, cols, weights = erdos_renyi_coo(n, None, 42, True)
    g = gb.Matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    gw = gb.Matrix((weights, (rows, cols)), shape=(n, n), dtype=float)
    pr = scale_free(n, seed=42)
    r, c, _ = erdos_renyi_coo(n, None, 42)
    sym = gb.Matrix(
        (np.ones(2 * len(r), dtype=np.int64), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n, n),
    )
    lower = lower_triangle(sym)

    def round_():
        return (
            bfs_levels(g, 0).to_coo(),
            sssp_converging(gw, gb.Vector(([0.0], [0]), shape=(n,), dtype=float)).to_coo(),
            pagerank(pr, gb.Vector(shape=(n,), dtype=float), threshold=1.0e-8).to_coo(),
            triangle_count(lower),
        )

    return round_


class TestListingTraffic:
    @pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
    @pytest.mark.parametrize("engine_name", ["pyjit", pytest.param("cpp", marks=needs_cxx)])
    def test_the_four_listings_dispatch_exactly_this(self, pinned, engine_name, nonblocking):
        round_ = _four_listings()
        eng = CountingEngine(make_engine(engine_name))
        with gb.use_engine(eng):
            if nonblocking:
                with gb.nonblocking():
                    round_()
            else:
                round_()
        assert eng.counts == _LISTING_TABLE
        assert eng.total == 60


# ----------------------------------------------------------------------
# registry coverage
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_fused_op_has_all_backends(self):
        """Each fused kernel is a fused, parallel-capable row of the kernel
        table with a pyjit generator, a C++ generator and its reference
        kernel, and a method on every engine."""
        names = K.FUSED_KERNELS
        assert names == {"ewise_add_vec_reduce_scalar", "ewise_mult_vec_reduce_scalar"}
        assert names <= _DISPATCH_METHODS
        for name in names:
            row = KERNELS[name]
            assert row.fused and row.py and row.cpp and row.layout and row.parallel
            assert row.reference is getattr(K, name)
            for engine in (InterpretedEngine, PyJitEngine, CppJitEngine):
                assert callable(getattr(engine, name))

    def test_every_engine_implements_the_same_interface(self):
        """26 methods, on every engine and every wrapper's forwarding."""
        assert len(_DISPATCH_METHODS) == 26
        for engine in (PyJitEngine, CppJitEngine):
            public = {n for n, v in vars(engine).items()
                      if callable(v) and not n.startswith("_")}
            assert _DISPATCH_METHODS <= public
        for name in ("interpreted", "pyjit"):
            stack = make_engine(name)
            assert all(callable(getattr(stack, m)) for m in _DISPATCH_METHODS)
