"""Shared test fixtures.

The JIT disk cache is pointed at a repo-local directory (kept across test
runs so the C++ artifacts amortise, exactly as the paper intends for its
compilation cache).  The ``engine`` fixture parametrises DSL-level tests
over the interpreted and Python-JIT engines; C++-engine tests live in
``test_cpp_engine.py`` behind the ``cpp`` marker.
"""

from __future__ import annotations

import os
from pathlib import Path

# must be set before `repro` is imported anywhere
os.environ.setdefault(
    "PYGB_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".pygb_cache")
)

import numpy as np
import pytest

import repro as gb
from repro import config
from repro.core.context import use_engine


def _reloading(method):
    """The one place the suite keeps the configuration snapshot in step
    with the environment: any in-process write to a ``PYGB_*`` variable
    — ``monkeypatch.setenv``/``delenv`` and its undo, or ``os.environ``
    directly — is followed by the ``config.reload()`` a program making
    that write would call (a malformed value therefore warns at the
    write, where the snapshot is parsed)."""

    def wrapper(self, key, *value):
        try:
            return method(self, key, *value)
        finally:
            if key.startswith("PYGB_"):
                config.reload()

    return wrapper


_Environ = type(os.environ)
_Environ.__setitem__ = _reloading(_Environ.__setitem__)
_Environ.__delitem__ = _reloading(_Environ.__delitem__)


@pytest.fixture(params=["interpreted", "pyjit"])
def engine(request):
    """Run the test body under each non-C++ execution engine."""
    with use_engine(request.param):
        yield request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph():
    """The 7-vertex graph of the paper's Fig. 1 (directed edges)."""
    edges = [(0, 1), (0, 3), (1, 4), (1, 6), (2, 5), (3, 0), (3, 2),
             (4, 5), (5, 2), (6, 2), (6, 3), (6, 4)]
    rows = [e[0] for e in edges]
    cols = [e[1] for e in edges]
    return gb.Matrix((np.ones(len(edges)), (rows, cols)), shape=(7, 7), dtype=np.int64)


@pytest.fixture
def no_faults(monkeypatch):
    """Opt a counter-exact test out of ambient chaos injection.

    The chaos CI leg runs the whole suite under ``PYGB_FAULT=...``; the
    fallback chain keeps every *result* bit-identical, but tests that
    assert exact dispatch or cache counters would observe the (correct)
    fallback bookkeeping instead."""
    from repro.testing.faults import FAULTS

    monkeypatch.delenv("PYGB_FAULT", raising=False)
    FAULTS.clear()
    yield
