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
import sys
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
# the C++ engine's per-thread cancel cell
# ----------------------------------------------------------------------


def _big_product_operands(n=1500):
    """Operands of a serial product that runs 36-47 ms warm on a 2-vCPU
    host, long enough for a budget well inside it to expire mid-kernel."""
    rng = np.random.default_rng(5)
    keep = rng.random((n, n)) < 0.03
    r, c = np.nonzero(keep)
    a = gb.Matrix((np.ones(r.size), (r, c)), shape=(n, n), dtype=np.float64)
    b = gb.Matrix((np.ones(r.size), (c, r)), shape=(n, n), dtype=np.float64)
    return a, b


def _product(a, b):
    n = a.shape[0]
    c = gb.Matrix(shape=(n, n), dtype=np.float64)
    with gb.ArithmeticSemiring:
        c[None] = a @ b
    return c


def _masked_product(a):
    c = gb.Matrix(shape=a.shape, dtype=np.float64)
    with gb.ArithmeticSemiring:
        c[a] = a @ a
    return c._store.to_dict()


@pytest.mark.cpp
class TestCppCancellation:
    @pytest.fixture(autouse=True)
    def _require_toolchain(self):
        from repro.jit.cppengine import toolchain_works

        if not toolchain_works():
            pytest.skip("no working C++ toolchain")

    def test_flag_round_trip_over_ffi(self):
        """Raising this thread's cancel cell makes the kernel bail with
        the -2 sentinel (surfaced as OperationCancelled, not a corrupt
        result); lowering it restores normal execution.  The masked
        product reads the cell inside its OpenMP region."""
        a, u = _operands(3)
        g = _graph(3, n=128)
        cell = guard._TLS.cancel
        with use_engine("cpp"):
            clean = _mxv(a, u), _masked_product(g)
            cell.value = 1
            try:
                with pytest.raises(OperationCancelled):
                    _mxv(a, u)
                with pytest.raises(OperationCancelled):
                    _masked_product(g)
            finally:
                cell.value = 0
            assert (_mxv(a, u), _masked_product(g)) == clean

    def test_deadline_cancels_running_cpp_kernel(self, monkeypatch):
        """End to end: the watchdog thread raises the cell while the C++
        kernel runs; the op raises OperationTimeout in bounded time (the
        serial loops poll every 1024 rows and the writeback checks once
        more, so even a coarse poll interval converts the result to a
        timeout instead of surfacing a stale container)."""
        a, b = _big_product_operands()
        monkeypatch.setenv("PYGB_PARALLEL", "0")  # serial loops poll the cell
        with use_engine("cpp"):
            _product(a, b)  # warm the kernel cache unguarded
            with pytest.raises(OperationTimeout):
                with gb.deadline(seconds=0.01):
                    _product(a, b)
            # the cell is down again: the next dispatch succeeds
            assert guard._TLS.cancel.value == 0
            _product(a, b)

    def test_deadline_stops_a_long_compiled_pagerank(self):
        """The whole-algorithm PageRank row polls the cell once an
        iteration: a deadline stops a run that would never converge
        (threshold 0) with the guard's OperationTimeout, and the cell is
        down again for the next call."""
        from repro.algorithms.compiled import pagerank_compiled
        from repro.io.generators import scale_free

        g = scale_free(200, seed=3)._store
        pagerank_compiled(g, max_iters=2)  # build the kernel unguarded
        t0 = time.monotonic()
        with pytest.raises(OperationTimeout) as info:
            with gb.deadline(seconds=0.05):
                pagerank_compiled(g, threshold=0.0, max_iters=10**9)
        assert time.monotonic() - t0 < 10
        assert info.value.op == "pagerank"
        assert guard._TLS.cancel.value == 0
        ranks, _ = pagerank_compiled(g, threshold=1e-8)
        assert ranks.nvals == 200

    @staticmethod
    def _op_on(scope, thread=False):
        """An op guard in flight under *scope*, as ``_run_guarded`` arms
        one around a call — on this thread, or on another one."""
        box = []

        def make():
            box.append(guard._OpGuard("mxm", "cpp", scope, time.monotonic()))

        if thread:
            t = threading.Thread(target=make)
            t.start()
            t.join(timeout=30)
        else:
            make()
        og = box[0]
        guard._WATCHDOG.arm(og)
        guard._op_started(og)
        return og

    @staticmethod
    def _end(og):
        guard._WATCHDOG.disarm(og)
        guard._op_ended(og)

    def test_another_threads_cancel_does_not_fail_this_threads_kernel(self):
        """A cell belongs to one thread: a cancel raised for another
        thread's op (which ends only after 0.3 s here) never reaches this
        thread's kernel, which returns the exact result without waiting."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
        og = self._op_on(gb.deadline(seconds=30), thread=True)
        ender = threading.Timer(0.3, self._end, (og,))
        try:
            guard._fire(og)  # its deadline passed while it runs
            assert og.cell.value == 1 and guard._TLS.cancel.value == 0
            ender.start()
            start = time.monotonic()
            with use_engine("cpp"):
                assert _mxv(a, u) == clean
            assert time.monotonic() - start < 0.25  # nothing waited
        finally:
            ender.cancel()
            self._end(og)
        assert og.cell.value == 0
        assert guard.stats()["cancels_total"] == 0

    def test_a_deadline_on_one_thread_leaves_the_other_threads_kernel_alone(self, monkeypatch):
        """Three threads (more than this host's cores) run the same serial
        product at once: the one under an expiring deadline times out,
        the unguarded two return the exact result, and the counters see
        only the timed-out op."""
        a, b = _big_product_operands()
        monkeypatch.setenv("PYGB_PARALLEL", "0")
        with use_engine("cpp"):
            want = _product(a, b).to_numpy().tobytes()
        budgets = {"guarded": 0.01, "unguarded-1": None, "unguarded-2": None}
        start = threading.Barrier(len(budgets), timeout=30)
        outcome = {}

        def run(name):
            try:
                with use_engine("cpp"):
                    start.wait()
                    budget = budgets[name]
                    with gb.deadline(budget) if budget else contextlib.nullcontext():
                        outcome[name] = _product(a, b).to_numpy().tobytes()
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome[name] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in budgets]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert isinstance(outcome.pop("guarded"), OperationTimeout)
        assert outcome == {"unguarded-1": want, "unguarded-2": want}
        assert guard.stats()["timeouts_total"] == 1
        assert guard.stats()["cancels_total"] == 0

    def test_a_fire_after_the_op_ended_raises_no_flag(self):
        """The watchdog reads ``done`` without the lock, so it can fire a
        guard whose op has just ended.  That late fire must not leave the
        cell raised, or every later kernel on the thread would bail."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
        og = self._op_on(gb.deadline(seconds=30))
        self._end(og)
        guard._fire(og)  # the op ended between the watchdog's check and here
        assert guard._TLS.cancel.value == 0
        with use_engine("cpp"):
            assert _mxv(a, u) == clean

    def test_a_scope_cancelled_between_ops_raises_no_flag(self):
        """A scope cancelled while none of its ops runs raises no cell:
        its later ops fail fast at entry, nested scopes too."""
        a, u = _operands(11)
        with use_engine("cpp"):
            clean = _mxv(a, u)
            with gb.deadline() as outer:
                with gb.deadline(seconds=30):
                    outer.cancel()
                    assert guard._TLS.cancel.value == 0
                    with pytest.raises(OperationCancelled):
                        _mxv(a, u)
            assert guard._TLS.cancel.value == 0
            assert _mxv(a, u) == clean

    def test_cancelling_an_outer_scope_raises_the_flag_for_its_nested_op(self):
        """``cancel()`` raises the cell of an op in flight under the
        cancelled scope or a scope nested in it — the cell of the op's
        own thread — and it falls when that op ends."""
        with gb.deadline() as outer, gb.deadline(seconds=30) as inner:
            og = self._op_on(inner, thread=True)
            try:
                outer.cancel()
                assert og.cell.value == 1 and guard._TLS.cancel.value == 0
            finally:
                self._end(og)
        assert og.cell.value == 0

    def test_a_nested_op_leaves_its_outer_ops_cell_raised(self):
        """With nested guarded ops on one thread, the cell falls only when
        the op that raised it ends — also when the nested op raised it
        too."""
        cell = guard._TLS.cancel
        outer = self._op_on(gb.deadline(seconds=30))
        try:
            guard._fire(outer)
            for fires in (False, True):
                nested = self._op_on(gb.deadline(seconds=30))
                if fires:
                    guard._fire(nested)
                self._end(nested)
                assert cell.value, fires
        finally:
            self._end(outer)
        assert cell.value == 0

    def test_a_cell_raised_during_a_call_never_yields_its_result(self, monkeypatch):
        """The cell is raised 5 ms into a 36-47 ms serial kernel and only
        lowered after the call, as a fired guard's op does: the kernel
        polls it before its writeback, so the call raises instead of
        returning a result its loops may have cut short."""
        a, b = _big_product_operands()
        monkeypatch.setenv("PYGB_PARALLEL", "0")
        cell = guard._TLS.cancel
        with use_engine("cpp"):
            _product(a, b)  # warm
            raiser = threading.Timer(0.005, setattr, (cell, "value", 1))
            raiser.start()
            try:
                with pytest.raises(OperationCancelled):
                    _product(a, b)
            finally:
                raiser.cancel()
                raiser.join()
                cell.value = 0
