"""Fig. 11: time to read a matrix from a file on disk, construct it from
an in-memory container, and extract the data back out, against size.

The paper found that "the file read cost dominates the Python times, but
once the matrix has been constructed, operations performed on it ... are
comparable in performance"; these benchmarks regenerate exactly those
three series (plus the NumPy fast path the paper lists as future work).
"""

import numpy as np
import pytest

import repro as gb
from repro.io.fastload import fast_loader_available, mmread_fast
from repro.io.generators import erdos_renyi_coo
from repro.io.matrixmarket import mmread, mmwrite

SIZES = [256, 512, 1024, 2048]


def _coo(n):
    rows, cols, _ = erdos_renyi_coo(n, seed=7)
    vals = np.linspace(1.0, 2.0, rows.size)
    return rows, cols, vals


@pytest.fixture(scope="module")
def mtx_files(tmp_path_factory):
    """One MatrixMarket file per size, written once."""
    root = tmp_path_factory.mktemp("fig11")
    paths = {}
    for n in SIZES:
        rows, cols, vals = _coo(n)
        m = gb.Matrix((vals, (rows, cols)), shape=(n, n))
        path = root / f"er_{n}.mtx"
        mmwrite(path, m)
        paths[n] = path
    return paths


@pytest.mark.parametrize("n", SIZES)
def test_read_from_file(benchmark, mtx_files, n):
    m = benchmark(mmread, mtx_files[n])
    assert m.nvals > 0


@pytest.mark.skipif(not fast_loader_available(), reason="no C++ toolchain")
@pytest.mark.parametrize("n", SIZES)
def test_read_from_file_cpp(benchmark, mtx_files, n):
    # the Sec. VIII "wrap a C++ loader" fast path
    mmread_fast(mtx_files[n])  # compile outside the timed region
    m = benchmark(mmread_fast, mtx_files[n])
    assert m.nvals > 0


@pytest.mark.parametrize("n", SIZES)
def test_construct_from_python_lists(benchmark, n):
    # the paper's "construct from a container (list in Python)"
    rows, cols, vals = _coo(n)
    lrows, lcols, lvals = rows.tolist(), cols.tolist(), vals.tolist()

    def build():
        return gb.Matrix((lvals, (lrows, lcols)), shape=(n, n))

    m = benchmark(build)
    assert m.nvals == len(lvals)


@pytest.mark.parametrize("n", SIZES)
def test_construct_from_numpy(benchmark, n):
    # buffer-sharing fast path (the paper's Sec. VIII direction)
    rows, cols, vals = _coo(n)

    def build():
        return gb.Matrix((vals, (rows, cols)), shape=(n, n))

    m = benchmark(build)
    assert m.nvals == vals.size


@pytest.mark.parametrize("n", SIZES)
def test_sixteen_element_writes(benchmark, n):
    # the paper's "memory management" penalty: point updates of a built
    # matrix, observed once (a fresh container over the same immutable
    # store each round, so every round inserts)
    rows, cols, vals = _coo(n)
    store = gb.Matrix((vals, (rows, cols)), shape=(n, n))._store
    rng = np.random.default_rng(7)
    writes = list(zip(rng.integers(n, size=16).tolist(), rng.integers(n, size=16).tolist(),
                      rng.uniform(1.0, 2.0, size=16).tolist()))

    def mutate():
        m = gb.Matrix(store)
        for i, j, v in writes:
            m[i, j] = v
        return m.nvals

    assert benchmark(mutate) >= vals.size


@pytest.mark.parametrize("n", SIZES)
def test_extract_data_back_out(benchmark, n):
    rows, cols, vals = _coo(n)
    m = gb.Matrix((vals, (rows, cols)), shape=(n, n))
    r, c, v = benchmark(m.to_coo)
    assert v.size == m.nvals


@pytest.mark.parametrize("n", SIZES)
def test_extract_to_dense(benchmark, n):
    rows, cols, vals = _coo(n)
    m = gb.Matrix((vals, (rows, cols)), shape=(n, n))
    d = benchmark(m.to_numpy)
    assert d.shape == (n, n)
