"""The configuration snapshot (``repro/config.py``) and the dispatch
path that rests on it.

* every ``PYGB_*`` variable parses to what its former per-module reader
  returned — unset, valid, falsey and malformed — and a malformed value
  warns where it is parsed, once per ``reload()``, never per use;
* ``reload()`` reaches a running thread at its next statement, and the
  scoped context managers still win over the snapshot;
* a warm dispatch reads ``os.environ`` zero times; a disarmed layer is a
  bound call that still honours what arms it later (a monkeypatched
  engine method, a fault rule), and no layer is ever skipped.

(``tests/conftest.py`` reloads the snapshot after every in-process write
to a ``PYGB_*`` variable, so ``monkeypatch.setenv`` below is "set the
variable and call ``config.reload()``".)
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro as gb
from repro import config, guard, schedule
from repro.algorithms import bfs_levels
from repro.core.dispatch import (
    _DISPATCH_METHODS,
    InterpretedEngine,
    ResilientEngine,
    make_engine,
)
from repro.exceptions import JitFallbackWarning, KernelExecutionError
from repro.jit.cppengine import compile_timeout, toolchain_works
from repro.jit.pyengine import PyJitEngine
from repro.service.admission import request_timeout
from repro.service.protocol import max_line_bytes
from repro.testing.faults import FAULTS, fault_injection

UNSET = None

#: variable, Config field, {raw value: what the old reader returned}, and
#: the malformed values that fall back to the unset value with a warning
PARSE_TABLE = [
    ("PYGB_BACKEND", "backend", {UNSET: None, "cpp": "cpp", "interpreted": "interpreted"}, ()),
    ("PYGB_CXX", "cxx", {UNSET: None, "": None, "clang++": "clang++"}, ()),
    ("PYGB_CACHE_DIR", "cache_dir", {UNSET: None, "": None, "/tmp/c": "/tmp/c"}, ()),
    ("PYGB_PARALLEL", "parallel",
     {UNSET: True, "1": True, "0": False, "false": False, " OFF ": False, "": False}, ()),
    ("PYGB_THREADS", "threads", {UNSET: None, "4": 4, "0": None, "junk": None}, ()),
    ("PYGB_SCHEDULE", "schedule",
     {UNSET: "auto", "": "auto", "auto": "auto", "fixed": "fixed", "dense": "fixed",
      "0": "fixed", "no": "fixed", "push": "push", " PULL ": "pull"}, ("sideways",)),
    ("PYGB_CATALOG", "catalog", {UNSET: None, "": None, "/tmp/pack": "/tmp/pack"}, ()),
    ("PYGB_COMPILE_TIMEOUT", "compile_timeout",
     {UNSET: 120.0, "": 120.0, "7.5": 7.5, "0": None, "-1": None, "junk": 120.0}, ()),
    ("PYGB_FAULT", "fault", {UNSET: "", "kernel_fail:0.5": "kernel_fail:0.5"}, ()),
    ("PYGB_FAULT_SLEEP", "fault_sleep", {UNSET: 0.05, "": 0.05, "10": 10.0, "junk": 0.05}, ()),
    ("PYGB_REQUEST_TIMEOUT", "request_timeout",
     {UNSET: None, "": None, "0": None, "off": None, "2.5": 2.5}, ("banana", "-1", "1e-12")),
    ("PYGB_SERVICE_MAX_LINE", "service_max_line", {UNSET: 1 << 20, "256": 256}, ("banana", "0")),
    ("PYGB_TRACE", "trace", {UNSET: "", " log ": "log", "chrome:/tmp/t.json": "chrome:/tmp/t.json"}, ()),
    ("PYGB_STATS", "stats", {UNSET: "", "1": "1", " /tmp/s.json ": "/tmp/s.json"}, ()),
]


def _parse(variable, raw):
    return config._from_env({} if raw is UNSET else {variable: raw})


class TestParsing:
    @pytest.mark.parametrize("variable, field, values, malformed", PARSE_TABLE,
                             ids=[row[0] for row in PARSE_TABLE])
    def test_every_variable_parses_as_its_old_reader_did(self, variable, field, values, malformed):
        for raw, expected in values.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # none of these may warn
                assert getattr(_parse(variable, raw), field) == expected, (variable, raw)
        for raw in malformed:
            with pytest.warns(UserWarning, match=rf"\${variable}="):
                assert getattr(_parse(variable, raw), field) == values[UNSET], (variable, raw)

    def test_the_table_covers_every_field_and_every_variable_of_the_readme(self):
        fields = set(config.Config.__dataclass_fields__)
        assert {row[1] for row in PARSE_TABLE} == fields
        with open(Path(__file__).parent.parent / "README.md") as f:
            documented = {line.split("`")[1] for line in f if line.startswith("| `PYGB_")}
        assert documented == {row[0] for row in PARSE_TABLE}

    def test_an_empty_environment_is_the_field_defaults(self):
        assert config._from_env({}) == config.Config()

    def test_snapshot_is_frozen(self):
        with pytest.raises(AttributeError):
            config.current().schedule = "push"

    def test_public_readers_are_reads_of_the_snapshot(self, monkeypatch):
        for variable, raw in {
            "PYGB_SCHEDULE": "push", "PYGB_PARALLEL": "0", "PYGB_COMPILE_TIMEOUT": "7.5",
            "PYGB_REQUEST_TIMEOUT": "2.5", "PYGB_SERVICE_MAX_LINE": "256",
            "PYGB_FAULT_SLEEP": "10",
        }.items():
            monkeypatch.setenv(variable, raw)
        assert guard.fault_sleep_seconds() == 10.0
        assert schedule.schedule_mode() == "push"
        assert not config.current().parallel
        assert (compile_timeout(), request_timeout()) == (7.5, 2.5)
        assert max_line_bytes() == 256

    @pytest.mark.filterwarnings("ignore:pygb. bad")  # monkeypatch's undo passes back through it
    def test_malformed_warns_once_per_reload_not_per_use(self, monkeypatch):
        with pytest.warns(UserWarning, match="PYGB_SERVICE_MAX_LINE"):
            monkeypatch.setenv("PYGB_SERVICE_MAX_LINE", "banana")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                assert max_line_bytes() == 1 << 20
                assert config.current().service_max_line == 1 << 20
        with pytest.warns(UserWarning, match="PYGB_SERVICE_MAX_LINE"):
            config.reload()

    def test_only_reload_parses_again(self, monkeypatch):
        before = config.current()
        monkeypatch.setattr(config, "_from_env", lambda env: pytest.fail("parsed on a read"))
        assert config.current() is before
        assert schedule.schedule_mode() == before.schedule


# ----------------------------------------------------------------------
# visibility and precedence
# ----------------------------------------------------------------------


@pytest.fixture
def defaults(monkeypatch, no_faults):
    """The dispatch-path tests count calls: pin what a CI leg's
    environment could change under them (forced directions, ambient
    faults)."""
    monkeypatch.setenv("PYGB_SCHEDULE", "auto")


def _operands(n=16, seed=3):
    rng = np.random.default_rng(seed)
    keep = rng.random((n, n)) < 0.3
    r, c = np.nonzero(keep)
    a = gb.Matrix((rng.integers(1, 5, r.size).astype(float), (r, c)), shape=(n, n), dtype=float)
    u = gb.Vector((np.arange(1.0, n + 1), range(n)), shape=(n,), dtype=float)
    return a, u


class TestVisibilityAndPrecedence:
    def test_reload_reaches_a_running_thread_at_its_next_statement(self, monkeypatch, defaults):
        """The worker thread's second statement — the same one — is
        built under the snapshot published while it was parked."""
        a, u = _operands()
        parked, resume = threading.Event(), threading.Event()
        modes, results = [], []

        def worker():
            with gb.use_engine("pyjit"):
                for _ in range(2):
                    product = a @ u
                    modes.append(product.schedule.mode)
                    w = gb.Vector(shape=u.shape, dtype=float)
                    w[None] = product
                    results.append(w.to_coo())
                    parked.set()
                    assert resume.wait(10)

        thread = threading.Thread(target=worker)
        thread.start()
        assert parked.wait(30)
        monkeypatch.setenv("PYGB_SCHEDULE", "push")
        resume.set()
        thread.join(30)
        assert not thread.is_alive()
        assert modes == ["auto", "push"]
        np.testing.assert_array_equal(results[0], results[1])

    def test_scoped_context_managers_win_over_the_snapshot(self, monkeypatch):
        monkeypatch.setenv("PYGB_SCHEDULE", "push")
        monkeypatch.setenv("PYGB_BACKEND", "interpreted")
        with gb.Scheduled("pull"):
            sched = schedule.Schedule.capture()
            assert (sched.mode, sched.forced) == ("push", "pull")
        assert schedule.Schedule.capture().forced is None
        with gb.use_engine("pyjit"):
            assert gb.current_backend_engine().name == "pyjit"

    def test_env_fault_rules_load_at_reload_and_injection_scopes_on_top(self, monkeypatch):
        FAULTS.clear()
        monkeypatch.setenv("PYGB_FAULT", "slow_compile:0.5")
        assert FAULTS.armed and FAULTS.active()["slow_compile"]["rate"] == 0.5
        with fault_injection("kernel_fail"):
            assert set(FAULTS.active()) == {"slow_compile", "kernel_fail"}
        monkeypatch.setenv("PYGB_FAULT", "")
        assert not FAULTS.armed and FAULTS.active() == {}
        assert not FAULTS.fire("kernel_fail")


# ----------------------------------------------------------------------
# the dispatch path
# ----------------------------------------------------------------------

ENGINES = [
    "interpreted",
    "pyjit",
    pytest.param("cpp", marks=[
        pytest.mark.cpp,
        pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
    ]),
]


class CountingEnviron:
    """``os.environ`` with every read of a key recorded."""

    def __init__(self, real):
        self._real = real
        self.reads: list = []

    def get(self, key, default=None):
        self.reads.append(key)
        return self._real.get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return self._real[key]

    def __contains__(self, key):
        self.reads.append(key)
        return key in self._real

    def __getattr__(self, name):
        return getattr(self._real, name)


def _path_graph(n=12):
    """0 -> 1 -> ... -> n-1: a BFS from 0 takes n - 1 iterations."""
    return gb.Matrix((np.ones(n - 1, dtype=np.int64), (range(n - 1), range(1, n))), shape=(n, n))


@pytest.mark.parametrize("engine_name", ENGINES)
def test_a_warm_bfs_never_reads_the_environment(engine_name, monkeypatch, defaults):
    graph = _path_graph()
    with gb.use_engine(engine_name):
        expected = bfs_levels(graph, 0).to_coo()  # warm-up: kernels, memos, first snapshot
        spy = CountingEnviron(os.environ)
        with monkeypatch.context() as patch:  # pytest itself writes os.environ at teardown
            patch.setattr(os, "environ", spy)
            levels = bfs_levels(graph, 0)
            assert [key for key in spy.reads if key.startswith("PYGB_")] == []
            config.reload()  # the spy does see the one place that reads
        assert {row[0] for row in PARSE_TABLE} <= set(spy.reads)
        assert int(levels.to_coo()[1].max()) >= 10  # ten iterations and more
        np.testing.assert_array_equal(levels.to_coo(), expected)


def _mxv(engine, a, u):
    from repro.backend.kernels import OpDesc

    out = gb.Vector(shape=u.shape, dtype=float)
    return engine.mxv(out._store, a._store, u._store, "Plus", "Times", OpDesc()).to_dict()


@pytest.mark.usefixtures("defaults")
class TestResilientEngine:
    def _engine(self):
        primary = PyJitEngine()
        return primary, ResilientEngine([primary, InterpretedEngine()])

    def test_one_dispatcher_per_op(self):
        _primary, eng = self._engine()
        assert eng.mxv is eng.mxv
        assert eng.mxv is not eng.vxm
        assert eng.cache is _primary.cache  # everything else still forwards

    def test_falls_back_when_the_primary_breaks_after_a_warm_dispatch(self, monkeypatch):
        a, u = _operands()
        primary, eng = self._engine()
        warm = _mxv(eng, a, u)
        fallbacks = primary.cache.stats.snapshot()["fallbacks"]

        def crashed(*args, **kwargs):
            raise KernelExecutionError("primary lost its kernel")

        monkeypatch.setattr(primary, "mxv", crashed)
        assert _mxv(eng, a, u) == warm
        assert primary.cache.stats.snapshot()["fallbacks"] == fallbacks + 1

    def test_a_fault_armed_after_a_warm_dispatch_still_fires(self):
        a, u = _operands()
        _primary, eng = self._engine()
        warm = _mxv(eng, a, u)
        FAULTS.clear()
        with fault_injection("kernel_fail", times=1):
            assert _mxv(eng, a, u) == warm
            assert FAULTS.active()["kernel_fail"]["fired"] == 1
        with fault_injection("kernel_fail"), pytest.raises(KernelExecutionError):
            _mxv(eng, a, u)  # every engine of the chain crashes


class Forward:
    """The ``bench_e2e`` probe's shape: forwards everything, hands out
    one cached closure per Engine-interface method, logs each call."""

    def __init__(self, layer, inner, log):
        self._layer, self._inner, self._log = layer, inner, log

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr not in _DISPATCH_METHODS or not callable(value):
            return value
        layer, log = self._layer, self._log

        def forwarded(*args, **kwargs):
            log.append((layer, attr))
            return value(*args, **kwargs)

        self.__dict__[attr] = forwarded
        return forwarded


def test_every_dispatch_passes_every_layer_exactly_once(defaults):
    log: list = []
    chain = [Forward("jit", PyJitEngine(), log), InterpretedEngine()]
    resilient = Forward("resilient", ResilientEngine(chain), log)
    stack = Forward("guard", guard.GuardedEngine(resilient), log)
    graph = _path_graph()
    with gb.use_engine(stack):
        levels = bfs_levels(graph, 0)
    with gb.use_engine("interpreted"):
        np.testing.assert_array_equal(levels.to_coo(), bfs_levels(graph, 0).to_coo())
    per_layer = {layer: [op for at, op in log if at == layer]
                 for layer in ("guard", "resilient", "jit")}
    assert len(per_layer["guard"]) >= 20  # an assign and a product per iteration
    assert per_layer["resilient"] == per_layer["guard"]
    assert per_layer["jit"] == per_layer["guard"]


@pytest.mark.parametrize("strict", [False, True], ids=["resilient", "strict"])
@pytest.mark.parametrize("engine_name", ENGINES)
def test_make_engine_is_the_guard_directly_over_the_chain(engine_name, strict):
    """``Guard(Resilient(jit))``: no layer sits between the guard and
    the chain, and a caller who makes ``JitFallbackWarning`` an error
    (strict) gets the same stack — one shape per engine."""
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", JitFallbackWarning)
        stack = make_engine(engine_name)
    assert type(stack) is guard.GuardedEngine
    inner = stack._inner
    if engine_name == "interpreted":  # the interpreter has nothing to fall back to
        assert type(inner) is InterpretedEngine
    else:
        assert type(inner) is ResilientEngine
        assert inner.primary.name == engine_name
