"""Tests for the JIT-compiled C++ MatrixMarket loader (Sec. VIII)."""

import gc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as gb
from repro.exceptions import IndexOutOfBounds, InvalidValue
from repro.io.fastload import fast_loader_available, mmread_fast
from repro.io.matrixmarket import mmread, mmwrite
from repro.jit.cache import default_cache

needs_cpp = pytest.mark.skipif(
    not fast_loader_available(), reason="no C++ toolchain for the fast loader"
)


@needs_cpp
class TestFastLoader:
    def test_matches_python_reader(self, tmp_path, rng):
        n = 50
        flat = rng.choice(n * n, size=200, replace=False)
        m = gb.Matrix(
            (rng.uniform(-5, 5, 200), (flat // n, flat % n)), shape=(n, n)
        )
        path = tmp_path / "m.mtx"
        mmwrite(path, m)
        fast = mmread_fast(path)
        slow = mmread(path)
        assert fast.isequal(slow)

    def test_empty_matrix(self, tmp_path):
        m = gb.Matrix(shape=(4, 4), dtype=float)
        path = tmp_path / "e.mtx"
        mmwrite(path, m)
        fast = mmread_fast(path)
        assert fast.shape == (4, 4) and fast.nvals == 0

    def test_integer_files_parse(self, tmp_path):
        m = gb.Matrix(([1, 2, 3], ([0, 1, 2], [2, 0, 1])), shape=(3, 3), dtype=int)
        path = tmp_path / "i.mtx"
        mmwrite(path, m)
        fast = mmread_fast(path, dtype=np.int64)
        assert fast.dtype == np.int64
        assert fast.isequal(m)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(InvalidValue):
            mmread_fast(tmp_path / "nope.mtx")

    def test_symmetric_falls_back_to_python(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 1\n2 1 5.0\n"
        )
        m = mmread_fast(path)
        assert m[1, 0] == 5.0 and m[0, 1] == 5.0  # mirrored by the fallback

    def test_pattern_falls_back_to_python(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 3\n"
        )
        m = mmread_fast(path)
        assert m[0, 2] == 1

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n% another\n"
            "2 2 1\n1 2 9.5\n"
        )
        m = mmread_fast(path)
        assert m[0, 1] == 9.5


def test_fallback_without_compiler(tmp_path, monkeypatch):
    """With the compiler hidden, mmread_fast silently uses the Python
    reader."""
    m = gb.Matrix(([7.0], ([0], [1])), shape=(2, 2))
    path = tmp_path / "fb.mtx"
    mmwrite(path, m)
    monkeypatch.setenv("PYGB_CXX", str(tmp_path / "no-such-compiler"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mmread_fast(path).isequal(m)


# ----------------------------------------------------------------------
# the two readers agree: same matrix (bit for bit) or the same refusal
# ----------------------------------------------------------------------
REAL_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),  # shortest round-trip reprs
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.17g}"),  # all 17 digits
    st.floats(1e-320, 1e300).map(lambda x: f"{x:E}"),  # exponents, subnormals
    st.sampled_from(["-0.0", "+1.5", "5.", ".5", "1e400", "1e-400", "Infinity", "-inf", "NAN",
                     "0.1000000000000000055511151231257827"]),
)


@st.composite
def coordinate_files(draw):
    """The text of a mostly well-formed coordinate file, with the defects
    a loader has to survive mixed in."""
    field = draw(st.sampled_from(["real", "integer"]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    token = REAL_TOKENS if field == "real" else st.integers(-(2**40), 2**40).map(str)
    # index 0 and index > dims are rare, sorted runs and duplicates common
    index = lambda dim: st.one_of(st.integers(1, dim), st.integers(0, dim + 1))
    entries = draw(st.lists(st.tuples(index(nrows), index(ncols), token), max_size=12))
    if draw(st.booleans()):
        entries.sort(key=lambda e: e[:2])
    lines = [f"{r} {c} {v}" for r, c, v in entries]
    declared = len(lines) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    defect = draw(st.sampled_from([None, None, None, "truncate", "garbage", "token"]))
    if defect == "truncate" and lines:
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
    elif defect == "garbage":
        lines.append(draw(st.sampled_from(["x", "3 3 x", "1 1", "%tail"])))
    elif defect == "token" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.sampled_from(["1 1 5x", "1 x 5", "1.5 1 5", "1 1 1 1", "1 1 --5"]))
    for k in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(k, draw(st.sampled_from(["", "   ", "\t"])))  # blank lines
    comments = draw(
        st.lists(st.sampled_from(["%", "% note", "%" + "x" * 600, "%%" + " y" * 2000]), max_size=3)
    )
    head = [f"%%MatrixMarket matrix coordinate {field} general", *comments,
            f"{nrows} {ncols} {max(declared, 0)}"]
    text = eol.join(head + lines)
    return text + (eol if draw(st.booleans()) else "")


def _outcome(reader, path):
    try:
        return reader(path)._store
    except (InvalidValue, IndexOutOfBounds) as exc:
        return type(exc)


@needs_cpp
class TestReadersAgree:
    @settings(max_examples=300, deadline=None)
    @given(text=coordinate_files())
    def test_same_matrix_or_same_refusal(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mm") / "f.mtx"
        path.write_bytes(text.encode())
        slow, fast = _outcome(mmread, path), _outcome(mmread_fast, path)
        if isinstance(slow, type) or isinstance(fast, type):
            assert slow is fast, text
            return
        assert fast.shape == slow.shape and fast.dtype == slow.dtype, text
        assert np.array_equal(fast.indptr, slow.indptr), text
        assert np.array_equal(fast.indices, slow.indices), text
        assert fast.values.tobytes() == slow.values.tobytes(), text

    def test_integer_field_loads_as_int64(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n2 2 -7\n")
        for reader in (mmread, mmread_fast):
            m = reader(path)
            assert m.dtype == np.int64 and m.to_coo()[2].tolist() == [5, -7]

    def test_comment_longer_than_any_line_buffer(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n%" + " 7 7 7" * 400 + "\n"
            "2 2 1\n1 2 9.5\n"
        )
        assert mmread_fast(path).isequal(mmread(path))
        assert mmread_fast(path)[0, 1] == 9.5

    @pytest.mark.parametrize(
        "body",
        ["2 3 2\n1 1 5\n2 3 7\n3 3 x\n", "2 3 2\n1 1 5\n2 3 7\n1 1 1\n", "2 3 3\n1 1 5\n2 3 7\n",
         "2 3 2\n1 1 5\n2 3\n", "2 3\n1 1 5\n", "2 3 -1\n", "2 3 99999999999\n1 1 5\n"],
        ids=["garbage-after", "entry-after", "entry-missing", "short-row", "short-size-line",
             "negative-count", "absurd-count"],
    )
    def test_both_readers_refuse(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        for reader in (mmread, mmread_fast):
            with pytest.raises(InvalidValue):
                reader(path)

    @pytest.mark.parametrize("entry", ["0 1 5", "1 0 5", "3 1 5", "1 4 5", "-1 1 5"])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_out_of_range_entries_raise_in_both(self, tmp_path, entry, position):
        lines = ["1 1 1", "2 2 2"]
        lines.insert(0 if position == "first" else 2, entry)
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 3\n" + "\n".join(lines) + "\n"
        )
        for reader in (mmread, mmread_fast):
            with pytest.raises(IndexOutOfBounds):
                reader(path)

    @pytest.mark.parametrize("entries", ["1 1 5\n2 3 7\n", "2 3 7\n1 1 5\n1 1 6\n"],
                             ids=["canonical", "general"])
    def test_arrays_are_numpy_owned(self, tmp_path, entries):
        path = tmp_path / "o.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n2 3 {entries.count(chr(10))}\n{entries}"
        )
        store = mmread_fast(path)._store
        arrays = (store.indptr, store.indices, store.values)
        for arr in arrays:
            assert arr.base is None or isinstance(arr.base, np.ndarray)
        before = [arr.copy() for arr in arrays]
        default_cache().clear_memory()
        gc.collect()
        scribble = [np.full(64, -1.0) for _ in range(64)]
        for arr, want in zip(arrays, before):
            assert np.array_equal(arr, want)
        del scribble
