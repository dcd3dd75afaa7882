"""Runtime guardrails: deadlines, cancellation, and the degradation ladder.

The chaos contract under test: a hung kernel or a crashed or hung tile
worker must degrade a *single operation* — with a catchable, attributed exception or a transparent
monolithic re-execution — and never wedge or corrupt the process.  Every
rung is driven deterministically through ``repro.testing.faults`` and
asserted three ways: the result (bit-identity with the clean run), the
deterministic ``guard.stats()`` counters, and the ``obs`` event stream.

The ``slow_kernel`` / ``kernel_fail`` hooks live in the resilience chain
(which the bare interpreted stack bypasses by design — chaos CI must not
be able to break the engine of last resort), so the fault-driven
deadline tests pin the ``pyjit`` engine explicitly.
"""

import contextlib
import threading
import time
import warnings

import numpy as np
import pytest

import repro as gb
from repro import guard, tiling
from repro.core.context import use_engine
from repro.exceptions import (
    JitFallbackWarning,
    KernelExecutionError,
    OperationCancelled,
    OperationTimeout,
)
from repro.testing.faults import FAULTS, FaultPlan, fault_injection

N = 48


@pytest.fixture(autouse=True)
def _clean_guard_state(monkeypatch):
    """Every test starts with no faults, no quarantine, zero counters,
    and no guard-related environment configuration."""
    for var in ("PYGB_FAULT", "PYGB_OP_TIMEOUT", "PYGB_WORKER_TIMEOUT", "PYGB_FAULT_SLEEP"):
        monkeypatch.delenv(var, raising=False)
    FAULTS.clear()
    guard.reset_stats()
    guard.tiling_health().reset()
    yield
    FAULTS.clear()
    guard.reset_stats()
    guard.tiling_health().reset()


def _graph(seed=7, n=N, density=0.15):
    rng = np.random.default_rng(seed)
    keep = rng.random((n, n)) < density
    r, c = np.nonzero(keep)
    return gb.Matrix((np.ones(r.size), (r, c)), shape=(n, n), dtype=np.float64)


def _operands(seed=7):
    a = _graph(seed)
    u = gb.Vector((np.ones(N), range(N)), shape=(N,), dtype=np.float64)
    return a, u


def _mxv(a, u):
    w = gb.Vector(shape=(N,), dtype=np.float64)
    with gb.ArithmeticSemiring:
        w[None] = a @ u
    return w._store.to_dict()


def _pagerank_prog():
    from repro.algorithms import pagerank

    pr = gb.Vector(shape=(N,), dtype=np.float64)
    pagerank(_graph(11, density=0.12), pr, threshold=1e-10)
    return pr._store.to_dict()


@contextlib.contextmanager
def _quiet_degrades():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", JitFallbackWarning)
        yield


# ----------------------------------------------------------------------
# deadlines and timeouts
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_slow_kernel_times_out_within_twice_budget(self, monkeypatch):
        """A kernel stalled far past the budget raises OperationTimeout
        roughly *at* the budget (cooperative checks run every 10ms), and
        the process stays fully functional afterwards."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        budget = 0.2
        with use_engine("pyjit"):
            a, u = _operands()
            t0 = time.monotonic()
            with pytest.raises(OperationTimeout) as exc_info:
                with fault_injection("slow_kernel", rate=1.0), gb.deadline(seconds=budget):
                    _mxv(a, u)
            elapsed = time.monotonic() - t0
            assert elapsed < 2 * budget, f"timeout took {elapsed:.2f}s for {budget}s budget"
            err = exc_info.value
            assert err.op == "mxv"
            assert err.engine == "pyjit"
            assert err.elapsed is not None and err.elapsed <= elapsed
            assert err.budget == budget
            monkeypatch.delenv("PYGB_FAULT_SLEEP")
            # the stall was one op's problem, not the process's
            assert _mxv(a, u) == _mxv(a, u)
        assert guard.stats()["timeouts_total"] == 1

    def test_env_op_timeout(self, monkeypatch):
        """$PYGB_OP_TIMEOUT guards every op with no scope in sight."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            monkeypatch.setenv("PYGB_OP_TIMEOUT", "0.15")
            with pytest.raises(OperationTimeout) as exc_info:
                with fault_injection("slow_kernel", rate=1.0):
                    _mxv(a, u)
        assert exc_info.value.budget == 0.15

    def test_expired_scope_fails_fast(self, engine):
        """Ops after a blown budget never start: they raise immediately
        with elapsed == 0 instead of running on borrowed time."""
        a, u = _operands()
        with pytest.raises(OperationTimeout) as exc_info:
            with gb.deadline(seconds=0.01):
                time.sleep(0.03)  # burn the budget outside any op
                _mxv(a, u)
        assert exc_info.value.elapsed == 0.0
        assert "not started" in str(exc_info.value)

    def test_nested_scopes_take_minimum(self):
        with gb.deadline(seconds=10) as outer:
            with gb.deadline(seconds=60) as inner:
                # the enclosing 10s budget binds, not the inner 60s
                assert inner.deadline_at == outer.deadline_at
            with gb.deadline(seconds=0.001) as tight:
                assert tight.deadline_at < outer.deadline_at

    def test_scope_survives_timeout_and_blocks_followups(self, monkeypatch):
        """One expiry poisons the rest of the scope (fail-fast), but the
        next scope starts fresh."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            with gb.deadline(seconds=0.1) as dl:
                with pytest.raises(OperationTimeout):
                    with fault_injection("slow_kernel", rate=1.0):
                        _mxv(a, u)
                assert dl.expired
                with pytest.raises(OperationTimeout):
                    _mxv(a, u)  # healthy op, but the budget is gone
            monkeypatch.delenv("PYGB_FAULT_SLEEP")
            with gb.deadline(seconds=30):
                assert _mxv(a, u)

    def test_bad_timeout_value_warns_and_ignores(self, monkeypatch):
        with pytest.warns(UserWarning, match="PYGB_OP_TIMEOUT"):
            monkeypatch.setenv("PYGB_OP_TIMEOUT", "banana")
        assert guard.op_timeout() is None


class TestCancellation:
    def test_cancel_from_another_thread(self, monkeypatch):
        """A pure-cancel scope (no timer) cancelled mid-op from another
        thread raises OperationCancelled, never OperationTimeout."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            with pytest.raises(OperationCancelled) as exc_info:
                with gb.deadline() as dl:
                    timer = threading.Timer(0.1, dl.cancel)
                    timer.start()
                    try:
                        with fault_injection("slow_kernel", rate=1.0):
                            _mxv(a, u)
                    finally:
                        timer.cancel()
        assert exc_info.value.op == "mxv"
        assert guard.stats()["cancels_total"] >= 1
        assert guard.stats()["timeouts_total"] == 0

    def test_cancelled_scope_fails_fast(self, engine):
        a, u = _operands()
        with pytest.raises(OperationCancelled):
            with gb.deadline() as dl:
                dl.cancel()
                _mxv(a, u)

    def test_no_guard_is_free_of_side_effects(self, engine):
        """Without a scope or env timeout the guard layer must not
        change results or record anything."""
        a, u = _operands()
        assert _mxv(a, u)
        s = guard.stats()
        assert s["timeouts_total"] == 0 and s["cancels_total"] == 0


# ----------------------------------------------------------------------
# the degradation ladder: tiled fan-out -> monolithic -> quarantine
# ----------------------------------------------------------------------


class TestDegradationLadder:
    def test_worker_crash_degrades_bit_identical(self, engine):
        """A tile worker crashing mid-PageRank must yield byte-identical
        ranks via monolithic re-execution, recorded as a guard.degrade
        obs event and a deterministic counter.  The fan-out under test
        is the dense ``vxm``'s: ``auto`` runs PageRank's as a push,
        which forwards past the tiler."""
        with gb.Scheduled("dense"), gb.tiled(tiles=1):
            clean = _pagerank_prog()
        with _quiet_degrades(), gb.tracing() as tr:
            with gb.Scheduled("dense"), gb.tiled(tiles=4, workers=2):
                with fault_injection("worker_crash", rate=1.0, times=1):
                    chaotic = _pagerank_prog()
        assert chaotic == clean
        assert guard.stats()["degrades_total"] >= 1
        assert tr.stats.snapshot()["guard"].get("guard.degrade", 0) >= 1

    def test_worker_hang_detected_and_degraded(self, engine, monkeypatch):
        """A hung worker trips the bounded future wait instead of
        stalling the dispatch forever; the op still completes correctly."""
        monkeypatch.setenv("PYGB_WORKER_TIMEOUT", "0.5")
        a, u = _operands()
        with gb.tiled(tiles=1):
            clean = _mxv(a, u)
        t0 = time.monotonic()
        with _quiet_degrades(), gb.tiled(tiles=4, workers=2):
            with fault_injection("worker_hang", rate=1.0, times=1):
                chaotic = _mxv(a, u)
        assert time.monotonic() - t0 < 10.0  # nowhere near the 30s hang
        assert chaotic == clean
        assert guard.stats()["degrades_total"] >= 1

    def test_repeated_failures_quarantine_tiling(self, engine, capsys):
        """Fan-out failures circuit-break tiling for that op signature:
        dispatches inside the backoff window forward monolithically up
        front, and ``repro doctor`` reports the quarantined signature."""
        a, u = _operands()
        with gb.tiled(tiles=1):
            clean = _mxv(a, u)
        with _quiet_degrades(), gb.tiled(tiles=4, workers=2):
            with fault_injection("worker_crash", rate=1.0):
                assert _mxv(a, u) == clean
            assert guard.tiling_quarantined("mxv")
            assert guard.stats()["quarantines_total"] == 1
            forwarded_before = tiling.stats()["forwarded_total"]
            assert _mxv(a, u) == clean  # no faults, but quarantined
            assert tiling.stats()["forwarded_total"] > forwarded_before
        from repro.__main__ import main

        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "quarantined tiling ops" in out
        assert "mxv" in out and "injected tile-worker crash" in out

    def test_deadline_expiry_is_not_degraded(self, monkeypatch):
        """A deadline blown inside the fan-out must NOT trigger a
        monolithic re-run (which would blow the budget a second time):
        it surfaces as OperationTimeout and leaves tiling healthy."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            with gb.tiled(tiles=4, workers=2):
                with pytest.raises(OperationTimeout):
                    with fault_injection("slow_kernel", rate=1.0), gb.deadline(seconds=0.15):
                        _mxv(a, u)
        assert guard.stats()["degrades_total"] == 0
        assert not guard.tiling_quarantined("mxv")

    def test_interrupt_mid_fanout_leaves_pool_reusable(self, engine):
        """S1 regression: an interrupt (or any error) during fan-out
        cancels the remaining futures and leaves the shared pool — or a
        fresh replacement — fully usable; no orphaned tasks keep bumping
        the tiling counters afterwards."""
        a, u = _operands()
        with gb.tiled(tiles=4, workers=2):
            boom = threading.Event()

            def interrupting_task():
                if not boom.is_set():
                    boom.set()
                    raise KeyboardInterrupt()
                time.sleep(0.01)
                return 1

            with pytest.raises(KeyboardInterrupt):
                tiling.run_tile_tasks([interrupting_task] * 8)
            time.sleep(0.1)  # let any stragglers drain
            tasks_after_cleanup = tiling.stats()["tile_tasks"]
            assert tiling.run_tile_tasks([lambda: 2] * 4) == [2, 2, 2, 2]
            assert tiling.stats()["tile_tasks"] == tasks_after_cleanup + 4
            with gb.tiled(tiles=1):
                clean = _mxv(a, u)
            assert _mxv(a, u) == clean


# ----------------------------------------------------------------------
# runtime kernel faults through the resilience chain
# ----------------------------------------------------------------------


class TestKernelFaults:
    def test_kernel_fail_falls_back_down_the_chain(self):
        """A runtime kernel crash on the primary engine retries on the
        next engine in the fallback chain, transparently."""
        with use_engine("pyjit"):
            a, u = _operands()
            clean = _mxv(a, u)
            with fault_injection("kernel_fail", rate=1.0, times=1):
                assert _mxv(a, u) == clean

    def test_kernel_fail_exhausting_chain_raises(self):
        with use_engine("pyjit"):
            a, u = _operands()
            with fault_injection("kernel_fail", rate=1.0):
                with pytest.raises(KernelExecutionError, match="injected kernel failure"):
                    _mxv(a, u)
            # rules cleared: next dispatch is healthy
            _mxv(a, u)


# ----------------------------------------------------------------------
# fault configuration (S2) and observability rollup
# ----------------------------------------------------------------------


class TestFaultConfig:
    def test_unknown_kind_message_identical_both_paths(self):
        """Programmatic install and $PYGB_FAULT parsing reject unknown
        kinds with the *same* exception and message."""
        from repro.testing.faults import _parse_env

        plan = FaultPlan()
        with pytest.raises(ValueError) as via_install:
            plan.install("kernel_fial")
        with pytest.raises(ValueError) as via_env:
            _parse_env("kernel_fial:0.5")
        assert str(via_install.value) == str(via_env.value)
        assert "kernel_fial" in str(via_env.value)
        assert "kernel_fail" in str(via_env.value)  # lists the valid kinds

    def test_env_var_drives_runtime_faults(self, engine, monkeypatch):
        a, u = _operands()
        with gb.tiled(tiles=1):
            clean = _mxv(a, u)
        monkeypatch.setenv("PYGB_FAULT", "worker_crash:1.0")
        with _quiet_degrades(), gb.tiled(tiles=4, workers=2):
            assert _mxv(a, u) == clean
        assert guard.stats()["degrades_total"] >= 1


class TestObservability:
    def test_guard_events_roll_up_into_stats(self, monkeypatch):
        from repro.obs.stats import merge_stats, render_stats

        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            with gb.tracing() as tr:
                with pytest.raises(OperationTimeout):
                    with fault_injection("slow_kernel", rate=1.0), gb.deadline(seconds=0.1):
                        _mxv(a, u)
        snap = tr.stats.snapshot()
        assert snap["guard"].get("guard.timeout") == 1
        merged = merge_stats(snap, snap)
        assert merged["guard"]["guard.timeout"] == 2
        assert "runtime guardrails" in render_stats(snap)

    def test_doctor_reports_guardrails_when_clean(self, capsys):
        from repro.__main__ import main

        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "guardrails:" in out
        assert "guard activity:" in out
        assert "quarantined tiling ops: none" in out


# ----------------------------------------------------------------------
# the C++ engine's cooperative cancellation flag
# ----------------------------------------------------------------------


@pytest.mark.cpp
class TestCppCancellation:
    @pytest.fixture(autouse=True)
    def _require_toolchain(self):
        from repro.jit.cppengine import toolchain_works

        if not toolchain_works():
            pytest.skip("no working C++ toolchain")

    def test_flag_round_trip_over_ffi(self):
        """Asserting the per-library atomic makes the kernel bail with
        the -2 sentinel (surfaced as OperationCancelled, not a corrupt
        result); clearing it restores normal execution."""
        a, u = _operands(3)
        with use_engine("cpp"):
            clean = _mxv(a, u)  # compiles + registers the library
            assert guard._CANCEL_LIBS, "cpp engine did not register its cancel flag"
            lib = guard._CANCEL_LIBS[-1]
            lib.pygb_request_cancel(1)
            try:
                assert lib.pygb_cancel_requested() == 1
                with pytest.raises(OperationCancelled):
                    _mxv(a, u)
            finally:
                lib.pygb_request_cancel(0)
            assert _mxv(a, u) == clean

    def test_deadline_cancels_running_cpp_kernel(self, monkeypatch):
        """End to end: the watchdog thread asserts the flag while the
        C++ kernel runs; the op raises OperationTimeout in bounded time
        (the serial loops poll every 1024 rows and the writeback checks
        once more, so even a coarse poll interval converts the result to
        a timeout instead of surfacing a stale container)."""
        rng = np.random.default_rng(5)
        n = 1500
        keep = rng.random((n, n)) < 0.03
        r, c = np.nonzero(keep)
        a = gb.Matrix((np.ones(r.size), (r, c)), shape=(n, n), dtype=np.float64)
        b = gb.Matrix((np.ones(r.size), (c, r)), shape=(n, n), dtype=np.float64)
        monkeypatch.setenv("PYGB_PARALLEL", "0")  # serial loops poll the flag
        with use_engine("cpp"):
            cmat = gb.Matrix(shape=(n, n), dtype=np.float64)
            with gb.ArithmeticSemiring:  # warm the kernel cache unguarded
                cmat[None] = a @ b
            # the warm product runs 36-47 ms on a 2-vCPU host: a budget
            # well inside that expires while the kernel is running
            with pytest.raises(OperationTimeout):
                with gb.deadline(seconds=0.01):
                    d = gb.Matrix(shape=(n, n), dtype=np.float64)
                    with gb.ArithmeticSemiring:
                        d[None] = a @ b
            # the flag must be clear again: the next dispatch succeeds
            e = gb.Matrix(shape=(n, n), dtype=np.float64)
            with gb.ArithmeticSemiring:
                e[None] = a @ b
