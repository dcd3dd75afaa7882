"""Tests for the ``python -m repro`` command-line interface."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro as gb
from repro.__main__ import main
from repro.io.matrixmarket import mmwrite


@pytest.fixture(autouse=True)
def _restore_engine():
    """The CLI's ``--engine`` switches the thread's engine permanently
    (by design); restore the default after each test."""
    from repro.core.context import _engine_state

    before = getattr(_engine_state, "engine", None)
    yield
    _engine_state.engine = before


@pytest.fixture
def graph_file(tmp_path):
    # 0→1→2→3, 3→0 ring plus a chord 0→2
    rows = [0, 1, 2, 3, 0]
    cols = [1, 2, 3, 0, 2]
    m = gb.Matrix((np.ones(5), (rows, cols)), shape=(4, 4), dtype=int)
    path = tmp_path / "g.mtx"
    mmwrite(path, m)
    return str(path)


@pytest.fixture
def sym_file(tmp_path):
    # an undirected triangle 0-1-2 plus pendant 3
    rows = [0, 1, 1, 2, 2, 0, 2, 3]
    cols = [1, 0, 2, 1, 0, 2, 3, 2]
    m = gb.Matrix((np.ones(8), (rows, cols)), shape=(4, 4), dtype=int)
    path = tmp_path / "s.mtx"
    mmwrite(path, m)
    return str(path)


def test_info(graph_file, capsys):
    assert main(["info", graph_file]) == 0
    out = capsys.readouterr().out
    assert "4 x 4" in out and "edges:      5" in out


def test_info_reports_symmetry(sym_file, capsys):
    main(["info", sym_file])
    assert "symmetric:  yes" in capsys.readouterr().out


def test_bfs(graph_file, capsys):
    assert main(["bfs", graph_file, "--source", "0", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "reached 4/4" in out
    assert "max depth: 2 hops" in out


def test_sssp(graph_file, capsys):
    assert main(["sssp", graph_file, "--source", "0"]) == 0
    assert "reached 4/4" in capsys.readouterr().out


def test_pagerank(graph_file, capsys):
    assert main(["pagerank", graph_file, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "top 2 vertices" in out


def test_triangles(sym_file, capsys):
    assert main(["triangles", sym_file]) == 0
    assert "triangles: 1" in capsys.readouterr().out


def test_components(sym_file, capsys):
    assert main(["components", sym_file]) == 0
    assert "components: 1" in capsys.readouterr().out


def test_engines(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "pyjit" in out and "interpreted" in out


def test_engine_flag(graph_file, capsys):
    assert main(["--engine", "interpreted", "bfs", graph_file]) == 0
    assert "reached" in capsys.readouterr().out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_doctor_reports_runtime_state(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "PyGB engine health" in out
    assert "cache dir:" in out
    assert "resilience:" in out
    assert "unhealthy specs" in out


def test_doctor_reports_recorded_failures(capsys):
    from repro.exceptions import CompilationError
    from repro.jit.cache import default_cache

    cache = default_cache()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cache.health.record_failure(
            "cpp", "mxv|a=float64", CompilationError("g++ exploded")
        )
    try:
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "unhealthy specs (1):" in out
        assert "mxv|a=float64" in out
        assert "g++ exploded" in out
    finally:
        cache.health.reset()


def test_doctor_shows_active_fault_injection(capsys):
    from repro.testing import FAULTS, fault_injection

    FAULTS.clear()
    with fault_injection("compile_fail", rate=0.5):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
    assert "fault injection:" in out
    assert "compile_fail" in out


@pytest.mark.skipif(
    not __import__("os").path.exists("/bin/false"), reason="needs /bin/false"
)
def test_precompile_failure_exits_nonzero(tmp_path, monkeypatch, capsys):
    from repro.jit.cache import reset_default_cache

    monkeypatch.setenv("PYGB_CXX", "/bin/false")
    monkeypatch.setenv("PYGB_CACHE_DIR", str(tmp_path))
    reset_default_cache()
    try:
        assert main(["precompile"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "failed to precompile" in captured.err
    finally:
        monkeypatch.undo()
        reset_default_cache()


def test_counter_gate_fails_a_metric_that_leaves_zero(capsys):
    """``benchmarks/check_regression.py``: a tracked counter going 0 -> n
    is a FAIL line, not a division by the baseline."""
    path = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    failures = gate.compare({"metrics": {"forwarded": 0, "merges": 3}},
                            {"metrics": {"forwarded": 3, "merges": 3}}, 0.15)
    assert len(failures) == 1 and "forwarded: 3 exceeds baseline 0" in failures[0]
    assert "FAIL" in capsys.readouterr().out
