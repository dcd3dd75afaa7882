"""Nonblocking execution mode: ``gb.nonblocking()`` and ``gb.wait()``.

The C API lets a nonblocking-mode implementation complete each method
before it returns, and this one does: the scope changes nothing.  Four
checks pin that down — a statement's target holds its result when the
statement returns, a kernel error raises at its statement, ``gb.wait()``
changes nothing, and (``test_fusion.TestListingTraffic``) the four
listings dispatch the same 60 kernels inside the scope as outside it.

A handful of read/write-order programs then check that a program run
inside the scope leaves bit-identical container state to the same
program run outside it.  Drawn programs are the conformance runner's
(``tests/test_conformance.py``): with the scope eager, a program inside
it is the same program outside it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro as gb
from repro.exceptions import KernelExecutionError
from repro.testing.faults import fault_injection

N = 8


def _accum(expr):
    from repro.core.masks import AccumExpr

    return AccumExpr(expr)


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
