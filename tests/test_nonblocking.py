"""Nonblocking execution mode: ``gb.nonblocking()`` and ``gb.wait()``.

The C API lets a nonblocking-mode implementation complete each method
before it returns, and this one does: the scope changes nothing.  Four
checks pin that down — a statement's target holds its result when the
statement returns, a kernel error raises at its statement, ``gb.wait()``
changes nothing, and (``test_fusion.TestListingTraffic``) the four
listings dispatch the same 60 kernels inside the scope as outside it.

A seeded fuzzer and a handful of read/write-order programs then check
that a program run inside the scope leaves bit-identical container state
to the same program run outside it, on every engine.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

import repro as gb
from repro.exceptions import KernelExecutionError
from repro.jit.cppengine import toolchain_works
from repro.testing.faults import fault_injection

N = 8


_BINOPS = ["Plus", "Minus", "Times", "Min", "Max", "First", "Second"]
_SEMIRINGS = [("Plus", "Times"), ("Min", "Plus"), ("Max", "First")]


# ----------------------------------------------------------------------
# fuzz program generation / execution
# ----------------------------------------------------------------------

def _gen_program(seed: int) -> list[dict]:
    """A randomized statement sequence over matrices A, B and vectors
    x, y, w (all int64), exercising every kind of write."""
    rnd = random.Random(seed)
    kinds = [
        "vec_ewise",        # w[None] = x + y / x * y (varying op)
        "vec_ewise_masked",  # w[key] = x + y (mask/comp/replace/accum grid)
        "mxv", "vxm",        # w[None] = A @ x / x @ A (semiring grid)
        "mat_aliased",       # A[None] = A @ A
        "mat_ewise",         # B[None] = A + B
        "self_ewise",        # w[None] = w + w
        "vec_copy",          # w[:] = x
        "mat_copy",          # B[None] = A
        "scalar_fill",       # w[key] = c (masked and unmasked)
        "apply",             # w[None] = gb.apply(UnaryOp, x)
        "select",            # w[None] = gb.select("ValueGT", x, c)
        "observe",           # read w.nvals mid-program
        "reduce",            # scalar = gb.reduce(monoid, w) — observation
    ]
    steps = []
    for _ in range(rnd.randint(4, 12)):
        steps.append(
            dict(
                kind=rnd.choice(kinds),
                op=rnd.choice(_BINOPS),
                semiring=rnd.choice(_SEMIRINGS),
                masked=rnd.random() < 0.5,
                comp=rnd.random() < 0.5,
                replace=rnd.random() < 0.5,
                accum=rnd.choice([None, None, "Plus", "Min"]),
                const=rnd.randint(-3, 3),
            )
        )
    return steps


def _fresh_state(seed: int):
    rnd = np.random.default_rng(seed)

    def vec():
        idx = np.flatnonzero(rnd.random(N) < 0.6)
        return gb.Vector(
            (rnd.integers(-8, 8, idx.size), idx), shape=(N,), dtype=np.int64
        )

    def mat():
        flat = np.flatnonzero(rnd.random(N * N) < 0.35)
        return gb.Matrix(
            (rnd.integers(-8, 8, flat.size), (flat // N, flat % N)),
            shape=(N, N),
            dtype=np.int64,
        )

    return mat(), mat(), vec(), vec(), vec()


def _run_program(steps, seed: int, nonblocking: bool) -> tuple:
    a, b, x, y, w = _fresh_state(seed)
    mask = gb.Vector(([True] * 3, [0, 3, 6]), shape=(N,), dtype=bool)
    observations = []

    def key_for(s):
        if not s["masked"]:
            return None
        return (~mask if s["comp"] else mask, s["replace"])

    def write(target, s, expr):
        key = key_for(s)
        if s["accum"]:
            with gb.Accumulator(s["accum"]):
                if key is None:
                    target[None] = _accum(expr)
                else:
                    target.__setitem__(key, _accum(expr))
        elif key is None:
            target[None] = expr
        else:
            target[key] = expr

    ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
    with ctx:
        for s in steps:
            sr = gb.Semiring(gb.Monoid(s["semiring"][0]), s["semiring"][1])
            if s["kind"] == "vec_ewise":
                with gb.BinaryOp(s["op"]):
                    w[None] = x + y if s["const"] % 2 else x * y
            elif s["kind"] == "vec_ewise_masked":
                with gb.BinaryOp(s["op"]):
                    write(w, s, x + y)
            elif s["kind"] == "mxv":
                with sr:
                    write(w, s, a @ x)
            elif s["kind"] == "vxm":
                with sr:
                    write(w, s, x @ a)
            elif s["kind"] == "mat_aliased":
                with sr:
                    a[None] = a @ a
            elif s["kind"] == "mat_ewise":
                with gb.BinaryOp(s["op"]):
                    b[None] = a + b
            elif s["kind"] == "self_ewise":
                with gb.BinaryOp(s["op"]):
                    w[None] = w + w
            elif s["kind"] == "vec_copy":
                w[:] = x
            elif s["kind"] == "mat_copy":
                b[None] = a
            elif s["kind"] == "scalar_fill":
                write(w, s, s["const"])
            elif s["kind"] == "apply":
                w[None] = gb.apply(gb.UnaryOp("Plus", s["const"]), x)
            elif s["kind"] == "select":
                w[None] = gb.select("ValueGT", x, s["const"])
            elif s["kind"] == "observe":
                observations.append(w.nvals)
            else:  # reduce
                observations.append(gb.reduce(gb.Monoid("Plus"), w))
            # rotate so later statements consume earlier results
            x, y = y, x
    return (
        {n: (c._store.to_dict(), str(c.dtype)) for n, c in
         [("a", a), ("b", b), ("x", x), ("y", y), ("w", w)]},
        observations,
    )


def _accum(expr):
    from repro.core.masks import AccumExpr

    return AccumExpr(expr)


@pytest.mark.parametrize("seed", range(30))
def test_fuzz_nonblocking_matches_blocking(engine, seed):
    steps = _gen_program(seed)
    blocking = _run_program(steps, seed, nonblocking=False)
    scoped = _run_program(steps, seed, nonblocking=True)
    assert blocking == scoped


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_nonblocking_matches_blocking_cpp(seed):
    steps = _gen_program(seed)
    with gb.use_engine("cpp"):
        blocking = _run_program(steps, seed, nonblocking=False)
        scoped = _run_program(steps, seed, nonblocking=True)
    assert blocking == scoped


# ----------------------------------------------------------------------
# what the scope means: every statement completes before it returns
# ----------------------------------------------------------------------

def _vecs():
    u = gb.Vector(([1.0, 2.0, 3.0], [0, 2, 5]), shape=(N,), dtype=float)
    v = gb.Vector(([4.0, 5.0], [2, 6]), shape=(N,), dtype=float)
    w = gb.Vector(shape=(N,), dtype=float)
    return u, v, w


def test_statement_completes_before_it_returns(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        with gb.BinaryOp("Plus"):
            w[None] = u + v
        # the raw store, read before anything observes w
        assert w._backing.to_dict() == {0: 1.0, 2: 6.0, 5: 3.0, 6: 5.0}


def test_kernel_error_raises_at_the_statement(no_faults):
    u, v, w = _vecs()
    with gb.use_engine("pyjit"), gb.nonblocking():
        # exhaust the fallback chain (pyjit, then interpreted)
        with fault_injection("kernel_fail", rate=1.0, times=2):
            with pytest.raises(KernelExecutionError), gb.BinaryOp("Plus"):
                w[None] = u + v
        assert w._backing.nvals == 0  # the failed statement wrote nothing
    assert w.nvals == 0  # and leaving the scope runs nothing either


def test_wait_changes_nothing(engine):
    u, v, w = _vecs()
    with gb.nonblocking():
        with gb.BinaryOp("Plus"):
            w[None] = u + v
        before = w._backing
        gb.wait()
        assert w._backing is before
    gb.wait()
    assert w._backing is before


def test_war_hazard_forces_producer_eval(engine):
    """Producer → input overwrite → consumer → producer overwritten: the
    producer sees the pre-overwrite input."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t[None] = u + v            # producer reads u
                u[:] = 0.0                 # WAR: overwrite of u
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t)  # consumer
                t[None] = v * v            # WAW: kills the producer
        return w._store.to_dict(), t._store.to_dict(), u._store.to_dict()

    assert run(False) == run(True)


def test_war_after_consumer_resolved_in_order(engine):
    """Producer → consumer → input overwrite → overwrite of the
    producer's target: the consumer sees the producer's value."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t[None] = u + v
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t)
                u[:] = 0.0
                t[None] = v * v
        return w._store.to_dict(), t._store.to_dict(), u._store.to_dict()

    assert run(False) == run(True)


def test_war_hazard_through_stitched_chain(engine):
    """A two-deep chain of temporaries whose leaf input is overwritten
    mid-program."""

    def run(nonblocking):
        u, v, _ = _vecs()
        t1 = gb.Vector(shape=(N,), dtype=float)
        t2 = gb.Vector(shape=(N,), dtype=float)
        w = gb.Vector(shape=(N,), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                t1[None] = u + v                                  # leaf reads u
                t2[None] = gb.apply(gb.UnaryOp("Plus", 1.0), t1)  # reads t1
                u[:] = 0.0                                        # overwrite leaf input
                w[None] = gb.apply(gb.UnaryOp("Times", 2.0), t2)  # reads t2
                t2[None] = v * v                                  # kill middle
                t1[None] = v * v                                  # kill leaf
        return (w._store.to_dict(), t1._store.to_dict(),
                t2._store.to_dict(), u._store.to_dict())

    assert run(False) == run(True)


def test_raw_through_copy_of_pending_expr(engine):
    """A copy survives its source being overwritten."""
    u, v, w = _vecs()
    t = gb.Vector(shape=(N,), dtype=float)
    with gb.nonblocking():
        with gb.BinaryOp("Plus"):
            t[None] = u + v
            w[:] = t          # copy of an expression's result
            t[None] = u * v   # overwrite the source before any observation
    assert w._store.to_dict() == {0: 1.0, 2: 6.0, 5: 3.0, 6: 5.0}
    assert t._store.to_dict() == {2: 6.0}


def test_masked_accum_replace_differential(engine):
    """Masked + accumulated + replace writes."""

    def run(nonblocking):
        u, v, w = _vecs()
        w[None] = gb.apply(gb.UnaryOp("Plus", 10.0), u)
        mask = gb.Vector(([True, True], [2, 5]), shape=(N,), dtype=bool)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                with gb.Accumulator("Plus"):
                    w.__setitem__((mask, True), _accum(u + v))
        return w._store.to_dict()

    assert run(False) == run(True)


def test_replace_flag_frozen_at_statement(engine):
    """The replace flag is the one in force at the statement."""

    def run(nonblocking):
        u, v, w = _vecs()
        w[None] = gb.apply(gb.UnaryOp("Plus", 10.0), u)
        mask = gb.Vector(([True, True], [2, 5]), shape=(N,), dtype=bool)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            with gb.BinaryOp("Plus"):
                with gb.Replace:
                    w[mask] = u + v
        return w._store.to_dict()

    assert run(False) == run(True)


def test_aliased_matrix_squaring(engine):
    def run(nonblocking):
        m = gb.Matrix(([1.0, 2.0, 3.0], ([0, 1, 2], [1, 2, 0])),
                      shape=(3, 3), dtype=float)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            m[None] = m @ m
            m[None] = m @ m
        return m._store.to_dict()

    assert run(False) == run(True)


def test_bfs_identical_under_nonblocking(engine, small_graph):
    from repro.algorithms import bfs

    def run(nonblocking):
        frontier = gb.Vector(([True], [0]), shape=(7,), dtype=bool)
        levels = gb.Vector(shape=(7,), dtype=np.int64)
        ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
        with ctx:
            bfs(small_graph, frontier, levels)
        return levels._store.to_dict()

    assert run(False) == run(True)
