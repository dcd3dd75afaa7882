"""The tiled data plane: blocked CSR storage + the partitioned executor.

The correctness statement under test is bit-identity: any program run
with ``PYGB_TILES > 1`` (row-partitioned dispatch fanned over worker
threads) must produce byte-for-byte the same containers as the
monolithic path, on every engine, in blocking and nonblocking mode.
Merge semantics get targeted coverage — row-disjoint concatenation for
the fan-out families, exact monoid folds for scalar reductions (and the
forwarding of floating Plus/Times, whose fold would reassociate), and
hazard-ordered monolithic execution for assigns.  The deterministic
tiling counters, the ``PYGB_TILES=1`` ablation, and the storage-level
splitting algebra are covered alongside.
"""

import contextlib

import numpy as np
import pytest

import repro as gb
from repro import tiling
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.backend.tiled import (
    TiledMatrix,
    concat_mat_parts,
    concat_vec_parts,
    nnz_balanced_splits,
    row_block,
    slice_vec_rows,
)

N = 48  # large enough that 4 row tiles are all non-trivial


# ----------------------------------------------------------------------
# deterministic operand builders (containers are built *inside* the
# tiling configuration under test, so the constructor adopts tiled
# storage when the configuration asks for it)
# ----------------------------------------------------------------------


def _mat(seed, n=N, density=0.15, dtype=np.int64):
    rng = np.random.default_rng(seed)
    keep = rng.random((n, n)) < density
    r, c = np.nonzero(keep)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-4.0, 4.0, r.size)
    else:
        vals = rng.integers(-8, 8, r.size)
    return gb.Matrix((vals, (r, c)), shape=(n, n), dtype=dtype)


def _vec(seed, n=N, density=0.4, dtype=np.int64):
    rng = np.random.default_rng(seed)
    idx = np.flatnonzero(rng.random(n) < density)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-4.0, 4.0, idx.size)
    else:
        vals = rng.integers(-8, 8, idx.size)
    return gb.Vector((vals, idx), shape=(n,), dtype=dtype)


def _vmask(seed, n=N):
    rng = np.random.default_rng(seed)
    idx = np.flatnonzero(rng.random(n) < 0.5)
    return gb.Vector((np.ones(idx.size, dtype=bool), idx), shape=(n,), dtype=bool)


def _mmask(seed, n=N):
    rng = np.random.default_rng(seed)
    keep = rng.random((n, n)) < 0.3
    r, c = np.nonzero(keep)
    return gb.Matrix((np.ones(r.size, dtype=bool), (r, c)), shape=(n, n), dtype=bool)


# ----------------------------------------------------------------------
# the program zoo: each entry builds fresh operands, runs one kernel
# family end to end, and returns plain dicts (fully materialised)
# ----------------------------------------------------------------------


def _prog_mxv():
    a, u = _mat(1), _vec(2)
    w = gb.Vector(shape=(N,), dtype=np.int64)
    with gb.MinPlusSemiring:
        w[None] = a @ u
    return w._store.to_dict()


def _prog_mxv_masked_accum():
    a, u, m = _mat(3), _vec(4), _vmask(5)
    w = _vec(6)
    with gb.ArithmeticSemiring, gb.Accumulator("Plus"):
        w[m] = a @ u
    return w._store.to_dict()


def _prog_vxm_transpose():
    a, u = _mat(7), _vec(8)
    w = gb.Vector(shape=(N,), dtype=np.int64)
    y = gb.Vector(shape=(N,), dtype=np.int64)
    with gb.ArithmeticSemiring:
        w[None] = u @ a
        y[None] = gb.transpose(a) @ u
    return w._store.to_dict(), y._store.to_dict()


def _prog_mxm():
    a, b = _mat(9), _mat(10)
    c = gb.Matrix(shape=(N, N), dtype=np.int64)
    with gb.ArithmeticSemiring:
        c[None] = a @ b
    return c._store.to_dict()


def _prog_mxm_masked():
    a, b, m = _mat(11), _mat(12), _mmask(13)
    c = gb.Matrix(shape=(N, N), dtype=np.int64)
    with gb.MinPlusSemiring, gb.Replace:
        c[~m] = a @ b
    return c._store.to_dict()


def _prog_ewise_mat():
    a, b = _mat(14), _mat(15)
    c = gb.Matrix(shape=(N, N), dtype=np.int64)
    d = gb.Matrix(shape=(N, N), dtype=np.int64)
    with gb.BinaryOp("Min"):
        c[None] = a + b
    with gb.BinaryOp("Times"):
        d[None] = a * b
    return c._store.to_dict(), d._store.to_dict()


def _prog_apply_select():
    a = _mat(16)
    b = gb.Matrix(gb.apply(gb.UnaryOp("Plus", 3), a))
    tril = gb.Matrix(gb.select("Tril", a, -1))
    triu = gb.Matrix(gb.select("Triu", a, 1))
    big = gb.Matrix(gb.select("ValueGT", a, 0))
    return tuple(x._store.to_dict() for x in (b, tril, triu, big))


def _prog_reduce_rows():
    a = _mat(17)
    w = gb.Vector(shape=(N,), dtype=np.int64)
    w[None] = gb.reduce(gb.PlusMonoid, a)
    return w._store.to_dict()


def _prog_reduce_scalar():
    a = _mat(18)
    f = _mat(19, dtype=np.float64)
    with gb.MinMonoid:
        fmin = gb.reduce(f)                 # float Min: exact, partitioned
    return (
        gb.reduce(a),                       # int Plus: partitioned exact fold
        fmin,
        gb.reduce(f),                       # float Plus: forwarded monolithic
    )


def _prog_assign():
    m = _mmask(20)
    c = _mat(21)
    with gb.Accumulator("Plus"):
        c[m] = 5
    d = _mat(22)
    d[1:N:2, :] = gb.Matrix(_mat(23)[0 : N // 2, :])
    return c._store.to_dict(), d._store.to_dict()


def _prog_transpose_kron_extract():
    a = _mat(24)
    t = gb.Matrix(a.T)
    small = gb.Matrix(_mat(25, n=6, density=0.4)[0:6, 0:6])
    k = gb.Matrix(gb.kron(small, small))
    e = gb.Matrix(a[4:40, 2:30])
    return t._store.to_dict(), k._store.to_dict(), e._store.to_dict()


def _prog_bfs():
    a = _mat(26, density=0.12)
    pattern = gb.Matrix(gb.apply(gb.UnaryOp("GreaterThan", -100), a))
    frontier = gb.Vector(([True], [0]), shape=(N,), dtype=bool)
    levels = gb.Vector(shape=(N,), dtype=int)
    depth = 0
    while frontier.nvals > 0 and depth < N:
        depth += 1
        levels[frontier][:] = depth
        with gb.LogicalSemiring, gb.Replace:
            frontier[~levels] = pattern.T @ frontier
    return levels._store.to_dict()


PROGRAMS = {
    "mxv": _prog_mxv,
    "mxv_masked_accum": _prog_mxv_masked_accum,
    "vxm_transpose": _prog_vxm_transpose,
    "mxm": _prog_mxm,
    "mxm_masked": _prog_mxm_masked,
    "ewise_mat": _prog_ewise_mat,
    "apply_select": _prog_apply_select,
    "reduce_rows": _prog_reduce_rows,
    "reduce_scalar": _prog_reduce_scalar,
    "assign": _prog_assign,
    "transpose_kron_extract": _prog_transpose_kron_extract,
    "bfs": _prog_bfs,
}


def _run(prog, cfg=None, nonblocking=False):
    """Run one program under a tiling configuration (a kwargs dict for
    ``gb.tiled``, or None for the ambient default) and execution mode."""
    tctx = gb.tiled(**cfg) if cfg is not None else contextlib.nullcontext()
    nctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
    with tctx, nctx:
        return prog()


# ----------------------------------------------------------------------
# differential: tiled vs monolithic, per kernel family x engine x mode
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_tiled_matches_monolithic(engine, name):
    prog = PROGRAMS[name]
    mono = _run(prog, {"tiles": 1})
    tiled4 = _run(prog, {"tiles": 4, "workers": 2})
    assert mono == tiled4


@pytest.mark.parametrize("name", ["mxv_masked_accum", "mxm", "assign", "bfs"])
def test_tiled_matches_monolithic_nonblocking(engine, name):
    prog = PROGRAMS[name]
    mono = _run(prog, {"tiles": 1})
    tiled4 = _run(prog, {"tiles": 4, "workers": 2}, nonblocking=True)
    assert mono == tiled4


@pytest.mark.parametrize("name", ["mxv", "mxm", "reduce_scalar"])
def test_env_var_configuration(engine, name, monkeypatch):
    prog = PROGRAMS[name]
    mono = _run(prog, {"tiles": 1})
    monkeypatch.setenv("PYGB_TILES", "4")
    monkeypatch.setenv("PYGB_WORKERS", "2")
    assert _run(prog) == mono


@pytest.mark.cpp
@pytest.mark.parametrize("name", ["mxv", "mxm", "ewise_mat"])
def test_tiled_matches_monolithic_cpp(name):
    from repro.jit.cppengine import toolchain_works

    if not toolchain_works():
        pytest.skip("no working C++ toolchain")
    prog = PROGRAMS[name]
    with gb.use_engine("cpp"):
        mono = _run(prog, {"tiles": 1})
        tiled4 = _run(prog, {"tiles": 4, "workers": 2})
    assert mono == tiled4


def test_many_tiles_and_single_worker(engine):
    # more tiles than is sensible, and a serial pool: still bit-identical
    prog = PROGRAMS["mxm"]
    mono = _run(prog, {"tiles": 1})
    assert _run(prog, {"tiles": 16, "workers": 1}) == mono
    assert _run(prog, {"tiles": 7, "workers": 5}) == mono


# ----------------------------------------------------------------------
# merge semantics for scalar reductions
# ----------------------------------------------------------------------


class TestReduceMergeSemantics:
    def test_int_reduce_partitions(self, engine, no_faults):
        a = _mat(30)
        tiling.reset_stats()
        with gb.tiled(tiles=4, workers=2):
            s = gb.reduce(a)
        st = tiling.stats()
        assert st["partitioned"].get("reduce_mat_scalar") == 1
        assert st["merges"].get("fold") == 1
        with gb.tiled(tiles=1):
            assert s == gb.reduce(a)

    def test_float_min_reduce_partitions(self, engine, no_faults):
        f = _mat(31, dtype=np.float64)
        tiling.reset_stats()
        with gb.tiled(tiles=4, workers=2), gb.MinMonoid:
            s = gb.reduce(f)
        assert tiling.stats()["partitioned"].get("reduce_mat_scalar") == 1
        with gb.tiled(tiles=1), gb.MinMonoid:
            assert s == gb.reduce(f)

    def test_float_plus_reduce_forwards(self, engine):
        # NumPy's pairwise summation would be reassociated by the tile
        # boundaries, so the engine must refuse to partition the fold
        with gb.tiled(tiles=4, workers=2):
            f = _mat(32, dtype=np.float64)  # adopts TiledMatrix storage
        tiling.reset_stats()
        with gb.tiled(tiles=4, workers=2):
            s = gb.reduce(f)
        st = tiling.stats()
        assert "reduce_mat_scalar" not in st["partitioned"]
        assert st["forwarded"].get("reduce_mat_scalar", 0) >= 1
        with gb.tiled(tiles=1):
            assert s == gb.reduce(f)  # forwarded, so exactly equal

    def test_exact_fold_table(self):
        assert tiling.exact_fold("Plus", np.int64)
        assert tiling.exact_fold("Times", np.bool_)
        assert tiling.exact_fold("Min", np.float64)
        assert tiling.exact_fold("Max", np.float32)
        assert not tiling.exact_fold("Plus", np.float64)
        assert not tiling.exact_fold("Times", np.float32)


# ----------------------------------------------------------------------
# deterministic counters, ablation, observability
# ----------------------------------------------------------------------


class TestCounters:
    def _workload(self):
        a, u = _mat(33), _vec(34)
        w = gb.Vector(shape=(N,), dtype=np.int64)
        with gb.ArithmeticSemiring:
            w[None] = a @ u
        return gb.reduce(a)

    # Partition counts are asserted where the configuration pins them: a
    # pinned push/pull direction forwards past the tiler by design, so
    # the two counting tests run their workload under the auto schedule.
    def test_counters_are_deterministic(self, engine, no_faults):
        snaps = []
        for _ in range(2):
            tiling.reset_stats()
            with gb.Scheduled("auto"), gb.tiled(tiles=4, workers=2):
                self._workload()
            snaps.append(tiling.stats())
        assert snaps[0] == snaps[1]
        assert snaps[0]["partitioned_total"] >= 2
        assert snaps[0]["tile_tasks"] >= 8
        assert snaps[0]["tiles_created"] >= 4

    def test_tiles_one_is_a_clean_ablation(self, engine):
        tiling.reset_stats()
        with gb.tiled(tiles=1):
            self._workload()
        st = tiling.stats()
        assert st["tiles_created"] == 0
        assert st["partitioned_total"] == 0
        assert st["tile_tasks"] == 0
        assert st["merges_total"] == 0

    def test_partition_events_reach_stats_aggregator(self, engine, no_faults):
        with gb.tracing() as tr:
            with gb.Scheduled("auto"), gb.tiled(tiles=4, workers=2):
                self._workload()
        tiled_stats = tr.stats.snapshot()["tiling"]
        assert tiled_stats["partitioned"] >= 2
        assert tiled_stats["tile_tasks"] >= 8

    @pytest.mark.filterwarnings("ignore:pygb. bad")  # monkeypatch's undo passes back through them
    def test_bad_env_values_warn_and_fall_back(self, monkeypatch):
        with pytest.warns(UserWarning, match="PYGB_TILES"):
            monkeypatch.setenv("PYGB_TILES", "banana")
        assert tiling.tiles_mode() == "auto"
        with pytest.warns(UserWarning, match="PYGB_WORKERS"):
            monkeypatch.setenv("PYGB_WORKERS", "-3")
        assert tiling.workers_count() >= 1

    def test_context_validation(self):
        with pytest.raises(ValueError):
            gb.tiled(tiles=0)
        with pytest.raises(ValueError):
            gb.tiled(workers=0)
        with gb.tiled(tiles="auto", workers=3):
            assert tiling.tiles_mode() == "auto"
            assert tiling.workers_count() == 3


# ----------------------------------------------------------------------
# storage layer: splits, blocks, merges
# ----------------------------------------------------------------------


class TestSplitAlgebra:
    def test_split_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nrows = int(rng.integers(1, 60))
            lengths = rng.integers(0, 9, nrows)
            indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
            for ntiles in (1, 2, 3, 4, 7, nrows, nrows + 5):
                s = nnz_balanced_splits(indptr, nrows, ntiles)
                assert s[0] == 0 and s[-1] == nrows
                assert (np.diff(s) > 0).all()
                assert len(s) - 1 <= max(ntiles, 1)

    def test_hub_row_collapses_cuts(self):
        # one row holds all the nnz: every balanced cut lands next to it
        # and np.unique collapses the duplicates instead of emitting
        # empty tiles
        indptr = np.array([0, 0, 100, 100, 100, 100], dtype=np.int64)
        s = nnz_balanced_splits(indptr, 5, 4)
        assert s[0] == 0 and s[-1] == 5
        assert (np.diff(s) > 0).all()

    def test_empty_matrix_splits_by_rows(self):
        indptr = np.zeros(9, dtype=np.int64)
        s = nnz_balanced_splits(indptr, 8, 4)
        assert list(s) == [0, 2, 4, 6, 8]

    def test_round_trip_concat(self):
        m = _mat(40)._store
        t = TiledMatrix.from_monolithic(m, 4)
        assert t.ntiles > 1
        back = concat_mat_parts(t.tiles(), m.ncols)
        np.testing.assert_array_equal(back.indptr, m.indptr)
        np.testing.assert_array_equal(back.indices, m.indices)
        np.testing.assert_array_equal(back.values, m.values)

    def test_row_block_is_zero_copy(self):
        m = _mat(41)._store
        blk = row_block(m, 3, 17)
        assert blk.values.base is not None
        assert blk.nrows == 14 and blk.ncols == m.ncols
        np.testing.assert_array_equal(
            blk.to_dense(), m.to_dense()[3:17]
        )

    def test_vector_slice_concat_round_trip(self):
        v = _vec(42)._store
        splits = np.array([0, 10, 25, N], dtype=np.int64)
        parts = [
            slice_vec_rows(v, int(splits[k]), int(splits[k + 1]))
            for k in range(3)
        ]
        back = concat_vec_parts(parts, N, splits)
        np.testing.assert_array_equal(back.indices, v.indices)
        np.testing.assert_array_equal(back.values, v.values)

    def test_concat_all_empty_parts(self):
        splits = np.array([0, 4, 8], dtype=np.int64)
        parts = [SparseVector.empty(4, np.float64), SparseVector.empty(4, np.float64)]
        back = concat_vec_parts(parts, 8, splits)
        assert back.nvals == 0 and back.dtype == np.float64


class TestTiledMatrix:
    def test_from_monolithic_shares_arrays_and_memos(self):
        m = _mat(43)._store
        m.row_lengths()
        m.degree_stats()
        t = TiledMatrix.from_monolithic(m, 4)
        assert t.indptr is m.indptr and t.values is m.values
        assert t._lengths_cache is m._lengths_cache
        assert t._degree_stats_cache == m._degree_stats_cache

    def test_transpose_is_tiled_and_caches_mutually(self):
        t = TiledMatrix.from_monolithic(_mat(44)._store, 4)
        tt = t.transposed()
        assert isinstance(tt, TiledMatrix) and tt.ntiles > 1
        assert tt.transposed() is t

    def test_astype_and_copy(self):
        t = TiledMatrix.from_monolithic(_mat(45)._store, 4)
        assert t.astype(np.int64) is t
        f = t.astype(np.float64)
        assert isinstance(f, TiledMatrix) and f.indptr is t.indptr
        assert f.splits is t.splits
        c = t.copy()
        assert isinstance(c, TiledMatrix)
        assert c.values is not t.values and c.splits is not t.splits
        np.testing.assert_array_equal(c.values, t.values)

    def test_container_adopts_tiled_storage(self):
        with gb.tiled(tiles=4):
            a = _mat(46)
        assert isinstance(a._store, TiledMatrix)
        assert a._store.ntiles > 1
        with gb.tiled(tiles=1):
            b = _mat(46)
        assert type(b._store) is SparseMatrix

    def test_auto_mode_leaves_small_matrices_monolithic(self):
        with gb.tiled(tiles="auto", workers=4):
            a = _mat(47)  # well below AUTO_TILE_MIN_NNZ
        assert type(a._store) is SparseMatrix


# ----------------------------------------------------------------------
# satellite: constructor-copy aliasing with memoized caches
# ----------------------------------------------------------------------


class TestStoreCacheAliasing:
    def test_matrix_copy_is_independent_after_transposed(self):
        a = _mat(50, n=10, density=0.5)
        before_t = gb.Matrix(a.T)._store.to_dict()
        b = gb.Matrix(a)  # same dtype: astype() would have aliased
        assert b._store is not a._store
        b[0, :] = _vec(51, n=10)
        assert gb.Matrix(a.T)._store.to_dict() == before_t
        assert a._store.to_dict() != b._store.to_dict()

    def test_vector_copy_is_independent(self):
        u = _vec(52, n=10, density=0.9)
        before = u._store.to_dict()
        v = gb.Vector(u)
        assert v._store is not u._store
        v[0:10] = 99
        assert u._store.to_dict() == before

    def test_row_lengths_memo_is_read_only_and_cached(self):
        m = _mat(53)._store
        first = m.row_lengths()
        assert m.row_lengths() is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, np.diff(m.indptr))

    def test_degree_stats_match_lengths(self):
        m = _mat(54)._store
        nnz, dmax = m.degree_stats()
        assert nnz == m.nvals
        assert dmax == int(m.row_lengths().max())
        assert m.degree_stats() is m.degree_stats()

    def test_copies_get_fresh_memos(self):
        m = _mat(55)._store
        m.row_lengths()
        c = m.copy()
        assert c._lengths_cache is None
        f = m.astype(np.float64)
        assert f._lengths_cache is None
