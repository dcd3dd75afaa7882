"""Unit tests for the backend CSR sparse matrix container."""

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.backend.smatrix import SparseMatrix
from repro.backend.tiled import TiledMatrix
from repro.exceptions import DimensionMismatch, IndexOutOfBounds


def mk(nrows, ncols, triples, dtype=np.float64):
    rows = [t[0] for t in triples]
    cols = [t[1] for t in triples]
    vals = [t[2] for t in triples]
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals, dtype)


class TestConstruction:
    def test_empty(self):
        m = SparseMatrix.empty(3, 4, np.int64)
        assert m.shape == (3, 4) and m.nvals == 0
        assert list(m.indptr) == [0, 0, 0, 0]

    def test_from_coo_sorted_layout(self):
        m = mk(3, 3, [(2, 0, 1.0), (0, 2, 2.0), (0, 1, 3.0)])
        rows, cols, vals = m.coo()
        assert list(rows) == [0, 0, 2]
        assert list(cols) == [1, 2, 0]
        assert list(vals) == [3.0, 2.0, 1.0]

    def test_duplicates_last_wins_default(self):
        m = mk(2, 2, [(0, 0, 1.0), (0, 0, 5.0)])
        assert m.nvals == 1 and m.get(0, 0) == 5.0

    def test_duplicates_with_plus(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0], [0, 0], [1.0, 5.0], dup_op="Plus")
        assert m.get(0, 0) == 6.0

    def test_from_dense_stores_all(self):
        m = SparseMatrix.from_dense([[1, 0], [0, 4]])
        assert m.nvals == 4  # zeros are stored entries for dense input

    def test_bounds_checked(self):
        with pytest.raises(IndexOutOfBounds):
            mk(2, 2, [(2, 0, 1.0)])
        with pytest.raises(IndexOutOfBounds):
            mk(2, 2, [(0, 2, 1.0)])

    def test_ragged_coo_rejected(self):
        with pytest.raises(DimensionMismatch):
            SparseMatrix.from_coo(2, 2, [0, 1], [0], [1.0, 2.0])

    def test_from_dense_rejects_1d(self):
        with pytest.raises(DimensionMismatch):
            SparseMatrix.from_dense(np.zeros(3))


class TestAccess:
    def test_get(self):
        m = mk(3, 3, [(1, 2, 9.0)])
        assert m.get(1, 2) == 9.0
        assert m.get(1, 1) is None
        assert m.get(0, 0, default=0.0) == 0.0
        with pytest.raises(IndexOutOfBounds):
            m.get(3, 0)

    def test_row_lengths(self):
        m = mk(3, 3, [(0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0)])
        assert list(m.row_lengths()) == [2, 0, 1]

    def test_row_vector(self):
        m = mk(3, 4, [(1, 0, 5.0), (1, 3, 6.0)])
        rv = m.row_vector(1)
        assert rv.size == 4
        assert rv.to_dict() == {0: 5.0, 3: 6.0}
        assert m.row_vector(0).nvals == 0
        with pytest.raises(IndexOutOfBounds):
            m.row_vector(3)

    def test_to_dense(self):
        m = mk(2, 2, [(0, 1, 3.0)])
        d = m.to_dense()
        assert d[0, 1] == 3.0 and d[1, 0] == 0

    def test_to_dict(self):
        m = mk(2, 2, [(0, 1, 3.0), (1, 0, 4.0)])
        assert m.to_dict() == {(0, 1): 3.0, (1, 0): 4.0}


class TestTranspose:
    def test_transpose_values(self):
        m = mk(2, 3, [(0, 2, 1.0), (1, 0, 2.0)])
        t = m.transposed()
        assert t.shape == (3, 2)
        assert t.get(2, 0) == 1.0 and t.get(0, 1) == 2.0

    def test_transpose_is_cached(self):
        m = mk(2, 3, [(0, 2, 1.0)])
        assert m.transposed() is m.transposed()

    def test_transpose_roundtrip_shares_cache(self):
        m = mk(2, 3, [(0, 2, 1.0)])
        assert m.transposed().transposed() is m

    def test_transpose_of_empty(self):
        m = SparseMatrix.empty(2, 5, np.float64)
        t = m.transposed()
        assert t.shape == (5, 2) and t.nvals == 0

    @pytest.mark.parametrize("tiled", [False, True], ids=["plain", "tiled"])
    def test_store_with_a_transpose_is_freed_by_refcount(self, tiled):
        # the memo must not be a strong cycle: with the collector off, a
        # cycle would survive `del` (and did, until the next gen-2 pass)
        gc.disable()
        try:
            m = mk(4, 3, [(0, 2, 1.0), (3, 0, 2.0)])
            if tiled:
                m = TiledMatrix.from_monolithic(m, 2)
            t = m.transposed()
            assert type(t) is type(m) and t.transposed() is m
            source, transpose = weakref.ref(m), weakref.ref(t)
            del m
            assert source() is None  # the transpose held it only weakly
            assert transpose() is t
            rebuilt = t.transposed()  # its source is gone: built afresh
            assert rebuilt.to_dict() == {(0, 2): 1.0, (3, 0): 2.0}
            assert rebuilt.transposed() is t
            del t, rebuilt
            assert transpose() is None
        finally:
            gc.enable()

    def test_transpose_memo_sees_both_sides(self):
        m = mk(2, 3, [(0, 2, 1.0)])
        assert m.transpose_memo() is None
        t = m.transposed()
        assert m.transpose_memo() is t and t.transpose_memo() is m
        del m
        gc.collect()
        assert t.transpose_memo() is None

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("tiled", [False, True], ids=["plain", "tiled"])
    def test_clones_carry_the_value_not_the_memos(self, clone, tiled):
        m = mk(4, 3, [(0, 2, 1.0), (3, 0, 2.0)])
        if tiled:
            m = TiledMatrix.from_monolithic(m, 2)
            m.tiles()
        m.transposed()
        m.degree_stats()
        for store in (m, m.transposed()):  # the weak side does not pickle either
            c = clone(store)
            assert c._transpose_cache is None and c._lengths_cache is None
            assert c._degree_stats_cache is None and c._ffi_cache is None
            if tiled:
                assert c._tiles_cache is None and list(c.splits) == list(store.splits)
            assert type(c) is type(store) and c.shape == store.shape
            assert c.to_dict() == store.to_dict() and c.dtype == store.dtype
            assert c.transposed().to_dict() == store.transposed().to_dict()


class TestTransforms:
    def test_astype(self):
        m = mk(2, 2, [(0, 0, 2.9)])
        t = m.astype(np.int32)
        assert t.dtype == np.int32 and t.get(0, 0) == 2

    def test_copy_independent(self):
        m = mk(2, 2, [(0, 0, 1.0)])
        c = m.copy()
        c.values[0] = 7.0
        assert m.get(0, 0) == 1.0
