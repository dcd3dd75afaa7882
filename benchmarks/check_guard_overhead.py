#!/usr/bin/env python3
"""No-regression guard for the guardrail layer's zero-cost contract.

With no deadline scope active and ``PYGB_OP_TIMEOUT`` unset, the only
cost ``GuardedEngine`` may add to a dispatch is one predicated branch
(the "is any guard armed?" test) before forwarding to the inner engine.
This script measures that cost directly on ``check_overhead``'s
two-dispatch statement over a 256-vertex graph (the regime where per-op
overhead matters most) and fails when the guarded dispatch is more than ``THRESHOLD`` (default 2%) slower than
dispatching straight into the unwrapped inner stack.

The A/B pair shares one engine object: ``make_engine("pyjit")`` returns
``Guarded(Partitioned(Resilient(...)))`` and the baseline leg installs
its ``_inner`` directly, so JIT caches, allocator state, and the whole
downstream stack are identical — the measurement isolates exactly the
guard wrapper.  A/B batches are interleaved and the minimum per-batch
time is compared, which suppresses scheduler noise.

Exit status 0 = within budget, 1 = regression.  Threshold override:
``PYGB_GUARD_OVERHEAD_THRESHOLD`` (fraction, e.g. ``0.02``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro as gb
from check_overhead import small_statement
from repro.core.dispatch import make_engine

BATCH = 200
ROUNDS = 15
THRESHOLD = float(os.environ.get("PYGB_GUARD_OVERHEAD_THRESHOLD", "0.02"))


def _batch_time(fn) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(BATCH):
        fn()
    return time.perf_counter_ns() - t0


def main() -> int:
    if os.environ.get("PYGB_OP_TIMEOUT"):
        print(
            "error: run with the guard disarmed (unset PYGB_OP_TIMEOUT)",
            file=sys.stderr,
        )
        return 2

    fn = small_statement()
    guarded = make_engine("pyjit")
    plain = guarded._inner  # identical downstream stack, guard removed

    with gb.use_engine(guarded):
        for _ in range(3):  # warm-up: JIT caches + lazy method wrappers
            _batch_time(fn)
    with gb.use_engine(plain):
        _batch_time(fn)

    # Within a round, whichever variant runs first measures a few percent
    # slower (cache/branch-predictor state) — alternate the order so the
    # bias cancels in the min.
    hooked, bare = [], []
    for i in range(ROUNDS):
        legs = [(hooked, guarded), (bare, plain)]
        if i % 2:
            legs.reverse()
        for sink, eng in legs:
            with gb.use_engine(eng):
                sink.append(_batch_time(fn))

    best_hooked = min(hooked) / BATCH
    best_bare = min(bare) / BATCH
    overhead = best_hooked / best_bare - 1.0
    print(
        f"mxv+apply n=256 (pyjit, {ROUNDS} rounds x {BATCH} calls): "
        f"guarded {best_hooked / 1e3:.2f} us/op, "
        f"guard-free {best_bare / 1e3:.2f} us/op, "
        f"overhead {overhead * 100:+.2f}% (budget {THRESHOLD * 100:.0f}%)"
    )
    if overhead > THRESHOLD:
        print("FAIL: guard-off overhead exceeds budget", file=sys.stderr)
        return 1
    print("OK: guardrail layer is within its zero-cost budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
