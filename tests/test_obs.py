"""The observability layer (``repro.obs``): tracing, stats, sinks.

Covers the zero-cost contract (``obs.ACTIVE`` off by default and
restored on context exit), span capture through real dispatches, the
Chrome ``trace_event`` sink, cache instant events, histogram quantiles,
and the cross-process stats merge behind ``python -m repro stats``.
"""

import json

import pytest

import repro as gb
import repro.obs as obs
from repro.obs.stats import (
    StatsAggregator,
    load_stats,
    merge_stats,
    persist_stats,
    quantile_ns,
    render_stats,
)
from repro.obs.tracer import Tracer, TracingEngine


def _workload():
    a = gb.Matrix(([1.0, 2.0, 3.0], ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
    u = gb.Vector(([1.0, 1.0, 1.0], [0, 1, 2]), shape=(3,))
    w = gb.Vector(shape=(3,), dtype=float)
    w[None] = a @ u
    return w


class TestActivation:
    def test_off_by_default(self):
        assert obs.ACTIVE is False
        assert obs.active_tracer() is None

    def test_context_manager_toggles_and_restores(self):
        assert obs.ACTIVE is False
        with gb.tracing() as tr:
            assert obs.ACTIVE is True
            assert obs.active_tracer() is tr
        assert obs.ACTIVE is False
        assert obs.active_tracer() is None

    def test_nested_tracing_restores_outer(self):
        with gb.tracing() as outer:
            with gb.tracing() as inner:
                assert obs.active_tracer() is inner
            assert obs.active_tracer() is outer
        assert obs.active_tracer() is None

    def test_exception_still_restores(self):
        with pytest.raises(RuntimeError):
            with gb.tracing():
                raise RuntimeError("boom")
        assert obs.ACTIVE is False

    def test_spec_parsing(self):
        parsed = obs._parse_trace_spec("chrome:/tmp/x.json,log")
        assert parsed == {"chrome_path": "/tmp/x.json", "log": True}
        assert obs._parse_trace_spec("nonsense") == {}  # typo ≠ crash


class TestSpanCapture:
    def test_dispatch_records_op_spans(self, engine):
        with gb.tracing() as tr:
            _workload()
        snap = tr.stats.snapshot()
        assert "mxv" in snap["ops"]
        entry = snap["ops"]["mxv"]
        assert entry["count"] == 1
        assert entry["total_ns"] > 0
        assert entry["engines"] == {engine: 1}

    def test_payload_attrs_on_spans(self):
        chrome = None
        with gb.tracing() as tr:
            tr._events = []  # capture without a file sink
            _workload()
            chrome = [e for e in tr._events if e["cat"] == "op"]
        assert chrome
        args = chrome[-1]["args"]
        assert args["engine"] and args["nvals"] > 0 and args["bytes"] > 0

    def test_untraced_dispatch_records_nothing(self, engine):
        with gb.tracing() as tr:
            pass  # tracer alive but workload runs after exit
        _workload()
        assert tr.stats.snapshot()["ops"] == {}

    def test_fused_ops_is_subset_of_dispatch(self):
        from repro.backend.kernels import FUSED_KERNELS
        from repro.core.dispatch import _DISPATCH_METHODS

        assert FUSED_KERNELS and FUSED_KERNELS <= _DISPATCH_METHODS

    def test_fused_attribute_marks_the_reduce_site_kernel(self):
        """The span attribute and the stats roll-up take the fused names
        from ``backend.kernels.FUSED_KERNELS``, not a list of their own."""
        u = gb.Vector([1.0, 2.0, 3.0])
        with gb.use_engine("pyjit"), gb.tracing() as tr:
            tr._events = []  # capture without a file sink
            gb.reduce(u * u)
            gb.reduce(u)
        fused = {e["name"]: e["args"]["fused"] for e in tr._events if e["cat"] == "op"}
        assert fused == {"ewise_mult_vec_reduce_scalar": True, "reduce_vec_scalar": False}
        ops = tr.stats.snapshot()["ops"]
        assert ops["ewise_mult_vec_reduce_scalar"]["fused"] == 1
        assert ops["reduce_vec_scalar"]["fused"] == 0


class TestTracingEngine:
    def test_wrapper_is_memoised(self):
        from repro.core.dispatch import make_engine

        eng = make_engine("interpreted")
        tr = Tracer()
        w1, w2 = tr.wrap_engine(eng), tr.wrap_engine(eng)
        assert w1 is w2
        assert tr.wrap_engine(w1) is w1  # no double wrapping

    def test_non_dispatch_attrs_pass_through(self):
        from repro.core.dispatch import make_engine

        eng = make_engine("interpreted")
        wrapped = TracingEngine(eng, Tracer())
        assert wrapped.name == eng.name
        assert wrapped.supports_fusion == eng.supports_fusion


class TestChromeSink:
    def test_chrome_file_is_loadable(self, tmp_path, engine):
        path = tmp_path / "trace.json"
        with gb.tracing(chrome=path):
            _workload()
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for ev in spans:
            assert set(("name", "cat", "ts", "dur", "pid", "tid")) <= set(ev)

    def test_flush_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.json"
        ctx = gb.tracing(chrome=path)
        with ctx as tr:
            pass
        before = path.read_text()
        tr.flush()
        assert path.read_text() == before


class TestCacheEvents:
    def test_compile_and_hits_recorded(self, tmp_path, monkeypatch):
        # a fresh cache dir forces a compile, the second call a memory hit
        from repro.jit.cache import JitCache
        from repro.jit.pyengine import PyJitEngine

        eng = PyJitEngine(cache=JitCache(cache_dir=tmp_path))
        a = gb.Matrix(([1.0], ([0], [1])), shape=(2, 2))
        u = gb.Vector(([1.0, 1.0], [0, 1]), shape=(2,))
        w = gb.Vector(shape=(2,), dtype=float)
        with gb.tracing() as tr:
            with gb.use_engine(eng):
                w[None] = a @ u
                w[None] = a @ u
        events = tr.stats.snapshot()["cache_events"]
        assert events.get("compile", 0) >= 1
        assert events.get("memory_hit", 0) >= 1


class TestStats:
    def test_quantiles_from_log2_hist(self):
        agg = StatsAggregator()
        for dur in [100, 100, 100, 100_000]:
            agg.note_span("op_x", "op", dur, {"engine": "pyjit"})
        hist = agg.snapshot()["ops"]["op_x"]["hist"]
        assert sum(hist) == 4
        assert quantile_ns(hist, 0.5) == pytest.approx(96, rel=0.5)
        assert quantile_ns(hist, 0.99) == pytest.approx(98304, rel=0.5)
        assert quantile_ns([0] * 8, 0.99) == 0.0

    def test_ffi_split_accumulates(self):
        agg = StatsAggregator()
        agg.note_span("ffi_call", "ffi", 1000, {"kernel_ns": 600})
        agg.note_span("ffi_call", "ffi", 500, {"kernel_ns": 300})
        ffi = agg.snapshot()["ffi"]
        assert ffi == {"calls": 2, "total_ns": 1500, "kernel_ns": 900}

    def test_merge_is_additive(self):
        agg = StatsAggregator()
        agg.note_span("mxv", "op", 1000, {"engine": "pyjit", "fused": False})
        one = agg.snapshot()
        merged = merge_stats(one, one)
        assert merged["ops"]["mxv"]["count"] == 2
        assert merged["ops"]["mxv"]["total_ns"] == 2000
        assert merged["ops"]["mxv"]["engines"] == {"pyjit": 2}
        assert sum(merged["ops"]["mxv"]["hist"]) == 2
        # a file written while the row-tile fan-out existed: its ``tiling``
        # block and tile-degradation ``guard`` keys read without error
        old = {
            **one,
            "tiling": {"forwarded": 1, "partitioned": 1, "tile_tasks": 4},
            "guard": {"guard.degrade": 1, "guard.quarantine": 1},
        }
        merged = merge_stats(old, one)
        assert "tiling" not in merged and merged["ops"]["mxv"]["count"] == 2
        for data in (old, merged, merge_stats(one, old)):
            text = render_stats(data)
            assert "mxv" in text and "runtime guardrails" in text
            assert "tiled" not in text and "tiling" not in text

    def test_persist_merges_across_processes(self, tmp_path):
        path = tmp_path / "stats.json"
        agg = StatsAggregator()
        agg.note_span("mxv", "op", 1000, {"engine": "cpp", "fused": True})
        assert persist_stats(agg.snapshot(), path) == path
        assert persist_stats(agg.snapshot(), path) == path  # second "run"
        data = load_stats(path)
        assert data["ops"]["mxv"]["count"] == 2
        assert data["ops"]["mxv"]["fused"] == 2

    def test_persist_unwritable_is_best_effort(self):
        agg = StatsAggregator()
        assert persist_stats(agg.snapshot(), "/proc/nope/stats.json") is None

    def test_render_mentions_every_section(self, tmp_path):
        agg = StatsAggregator()
        agg.note_span("mxv", "op", 2000, {"engine": "cpp", "fused": False})
        agg.note_span("ffi_call", "ffi", 1000, {"kernel_ns": 700})
        agg.note_event("compile", "cache", {})
        agg.note_event("memory_hit", "cache", {})
        text = render_stats(agg.snapshot())
        assert "mxv" in text
        assert "engine split" in text
        assert "C++ FFI" in text
        assert "JIT cache: 1/2 hits" in text


class TestStatsCli:
    def test_stats_command_renders(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "stats.json"
        agg = StatsAggregator()
        agg.note_span("mxv", "op", 1500, {"engine": "pyjit", "fused": False})
        persist_stats(agg.snapshot(), path)
        assert main(["stats", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mxv" in out and "p99_us" in out

    def test_stats_command_empty(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["stats", "--file", str(tmp_path / "none.json")]) == 1
        assert "no operation stats" in capsys.readouterr().out

    def test_stats_reset(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "stats.json"
        path.write_text("{}")
        assert main(["stats", "--file", str(path), "--reset"]) == 0
        assert not path.exists()
