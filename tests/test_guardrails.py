"""Runtime guardrails: deadlines, cancellation, and runtime kernel faults.

The chaos contract under test: a hung or crashed kernel must fail a
*single operation* — with a catchable, attributed exception or a
transparent re-execution down the fallback chain — and never wedge or
corrupt the process.  Every case is driven deterministically through
``repro.testing.faults`` and
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
from repro import guard
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
    for var in ("PYGB_FAULT", "PYGB_FAULT_SLEEP"):
        monkeypatch.delenv(var, raising=False)
    FAULTS.clear()
    guard.reset_stats()
    yield
    FAULTS.clear()
    guard.reset_stats()


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


@contextlib.contextmanager
def _quiet_fallbacks():
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
        """A per-operation budget is a ``gb.deadline`` scope around the
        op: the stalled op raises with the scope's budget attached."""
        monkeypatch.setenv("PYGB_FAULT_SLEEP", "10")
        with use_engine("pyjit"):
            a, u = _operands()
            with pytest.raises(OperationTimeout) as exc_info:
                with fault_injection("slow_kernel", rate=1.0), gb.deadline(seconds=0.15):
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
        clean = _mxv(a, u)
        # rate 0.5 fires on the first attempt and spares its retry
        monkeypatch.setenv("PYGB_FAULT", "kernel_fail:0.5")
        with _quiet_fallbacks():
            assert _mxv(a, u) == clean
        fired = FAULTS.active()["kernel_fail"]["fired"]
        if engine == "interpreted":  # the bare stack has no fallback chain to inject into
            assert fired == 0
        else:
            assert fired >= 1


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
        assert "guard activity:  0 timeouts, 0 cancellations" in out


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

    @staticmethod
    def _foreign_op(scope):
        """An op guard in flight under *scope*, standing in for another
        thread's guarded op (what ``_run_guarded`` arms around a call)."""
        og = guard._OpGuard("mxm", "cpp", scope, time.monotonic())
        guard._WATCHDOG.arm(og)
        guard._op_started(og)
        return og

    @staticmethod
    def _end(og):
        guard._WATCHDOG.disarm(og)
        guard._op_ended(og)

    def test_another_threads_cancel_does_not_fail_this_threads_kernel(self):
        """The flag is one per loaded library, so a cancel asserted for
        one thread's op makes every thread's C++ kernels return -2.  An
        unguarded kernel must not raise for it: it waits until that op
        ends (0.3 s here) and reruns (nothing was written)."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)  # compiles + registers the library
        lib = guard._CANCEL_LIBS[-1]
        og = self._foreign_op(gb.deadline(seconds=30))
        try:
            guard._fire(og)  # its deadline passed while it runs
            assert lib.pygb_cancel_requested() == 1
            threading.Timer(0.3, self._end, (og,)).start()
            start = time.monotonic()
            with use_engine("cpp"):
                assert _mxv(a, u) == clean
            assert time.monotonic() - start >= 0.25  # it waited the cancel out
        finally:
            self._end(og)
        assert lib.pygb_cancel_requested() == 0
        assert guard.stats()["cancels_total"] == 0

    def test_a_fire_after_the_op_ended_raises_no_flag(self):
        """The watchdog reads ``done`` without the lock, so it can fire a
        guard whose op has just ended and cleared.  That late fire must
        not leave the flag raised, or every later kernel on a thread with
        no deadline would wait on it forever."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
        lib = guard._CANCEL_LIBS[-1]
        og = self._foreign_op(gb.deadline(seconds=30))
        self._end(og)
        guard._fire(og)  # the op ended between the watchdog's check and here
        assert not guard._ASSERTED
        assert lib.pygb_cancel_requested() == 0
        with use_engine("cpp"):
            assert _mxv(a, u) == clean

    def test_a_scope_cancelled_between_ops_raises_no_flag(self):
        """A scope cancelled while none of its ops runs stalls no other
        thread: its later ops fail fast at entry, nested scopes too."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
            lib = guard._CANCEL_LIBS[-1]
            with gb.deadline() as outer:
                with gb.deadline(seconds=30):
                    outer.cancel()
                    assert lib.pygb_cancel_requested() == 0
                    with pytest.raises(OperationCancelled):
                        _mxv(a, u)
            assert _mxv(a, u) == clean

    def test_cancelling_an_outer_scope_raises_the_flag_for_its_nested_op(self):
        """The flag is raised for an op in flight under the cancelled
        scope or a scope nested in it, and falls when that op ends."""
        a, u = _operands(11)
        with use_engine("cpp"):
            _mxv(a, u)
        lib = guard._CANCEL_LIBS[-1]
        with gb.deadline() as outer, gb.deadline(seconds=30) as inner:
            og = self._foreign_op(inner)
            try:
                outer.cancel()
                assert guard._ASSERTED == {og}
                assert lib.pygb_cancel_requested() == 1
            finally:
                self._end(og)
        assert lib.pygb_cancel_requested() == 0

    def test_a_flag_raised_and_cleared_during_a_call_reruns_it(self, monkeypatch):
        """A kernel that saw the flag raised may stop a loop short and
        still return a count if the flag fell before its last check.  A
        change of ``FLAG_EPOCH`` across the call marks that result
        untrusted: the engine reruns the kernel."""
        from repro.jit.cppengine import CppJitEngine

        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
        calls = []
        real = CppJitEngine._call

        def racing_call(self, bound, args):
            nnz = real(self, bound, args)
            calls.append(nnz)
            if len(calls) == 1:  # another thread's cancel came and went
                self_og = TestCppCancellation._foreign_op(gb.deadline(seconds=30))
                guard._fire(self_og)
                TestCppCancellation._end(self_og)
            return nnz

        monkeypatch.setattr(CppJitEngine, "_call", racing_call)
        with use_engine("cpp"):
            assert _mxv(a, u) == clean
        assert len(calls) == 2
        assert guard.stats()["cancels_total"] == 0
