#!/usr/bin/env python3
"""Nonblocking execution: batching a statement pipeline into one flush.

GraphBLAS defines two execution modes.  In *blocking* mode (PyGB's
default) every ``C[...] = expr`` statement dispatches kernels before
returning.  Under ``with gb.nonblocking():`` statements enqueue instead,
and the whole pipeline executes at the first observation (or at context
exit) — which lets the runtime

* drop dead stores (values overwritten before being read),
* elide full-container copies into store aliasing,
* and (on the cpp engine) start background kernel compilation while the
  queue is still being built.

This example runs the same 4-statement pipeline in both modes, counting
engine dispatches to show the work the queue removed, then verifies the
results are bit-identical.

Run:  python examples/nonblocking_pipeline.py
"""

import numpy as np

import repro as gb
from repro.core.dispatch import CountingEngine, make_engine
from repro.core.nonblocking import reset_stats, set_mode, stats

N = 512


def pipeline(a, u, v, t, w):
    """combine → scale → propagate, through a temporary ``t`` that is read
    and then reused; the closing copy costs no kernel under the queue."""
    with gb.BinaryOp("Plus"):
        t[None] = u + v                                # producer
        w[None] = gb.apply(gb.UnaryOp("Times", 0.85), t)  # reads the pending t
        t[None] = a @ w                                # reuses t (its value was read)
        w[:] = t                                       # full copy: elidable
    return w


def run(mode: str) -> tuple[np.ndarray, int]:
    rng = np.random.default_rng(42)
    a = gb.Matrix(
        (rng.uniform(0, 1, 4 * N), (rng.integers(0, N, 4 * N), rng.integers(0, N, 4 * N))),
        shape=(N, N), dtype=float,
    )
    u = gb.Vector((rng.uniform(1, 2, N), np.arange(N)), shape=(N,))
    v = gb.Vector((rng.uniform(1, 2, N), np.arange(N)), shape=(N,))
    t = gb.Vector(shape=(N,), dtype=float)
    w = gb.Vector(shape=(N,), dtype=float)

    engine = CountingEngine(make_engine("pyjit"))
    with gb.use_engine(engine):
        if mode == "nonblocking":
            with gb.nonblocking():
                pipeline(a, u, v, t, w)
        else:
            pipeline(a, u, v, t, w)
        result = w.to_numpy()  # observation: flushes in nonblocking mode
    return result, engine.total


def main() -> None:
    # this example compares the modes explicitly, so neutralize any
    # PYGB_MODE=nonblocking default the environment may carry
    set_mode("blocking")

    blocking_result, blocking_calls = run("blocking")

    reset_stats()
    deferred_result, deferred_calls = run("nonblocking")
    queue = stats()

    print(f"blocking mode   : {blocking_calls} engine dispatches")
    print(f"nonblocking mode: {deferred_calls} engine dispatches")
    print(
        f"queue did: {queue['dead_stores']} dead store(s) eliminated, "
        f"{queue['copy_elisions']} copy(ies) elided, "
        f"{queue['flushes']} flush(es)"
    )

    assert np.array_equal(blocking_result, deferred_result), "modes diverged!"
    assert deferred_calls < blocking_calls
    print("results are bit-identical across modes")


if __name__ == "__main__":
    main()
