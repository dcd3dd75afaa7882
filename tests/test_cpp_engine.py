"""C++-backend tests (the paper's actual execution design).

These compile real C++ through ``g++`` and are skipped when no toolchain
is available.  Coverage: differential agreement with the interpreted
engine across the descriptor grid, dtype handling across the POD set, the
whole-algorithm compiled modules (versions 2/3), and C++ compile caching.
"""

import re

import numpy as np
import pytest

import repro as gb
from repro.backend.kernels import OpDesc
from repro.backend.smatrix import SparseMatrix
from repro.backend.svector import SparseVector
from repro.core.dispatch import InterpretedEngine
from repro.jit.cppengine import toolchain_works
from repro.types import POD_TYPES

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

pytestmark = [
    pytest.mark.cpp,
    pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain"),
]

N = 12


@pytest.fixture(scope="module")
def cpp():
    from repro.jit.cppengine import CppJitEngine

    return CppJitEngine()


@pytest.fixture(scope="module")
def interp():
    return InterpretedEngine()


def _vs(d, size=N, dtype=np.float64):
    return vec_from_dict(d, size, dtype)._store


def _ms(d, nrows=N, ncols=N, dtype=np.float64):
    return mat_from_dict(d, nrows, ncols, dtype)._store


def _same_vec(a: SparseVector, b: SparseVector):
    assert a.to_dict().keys() == b.to_dict().keys()
    for k, v in a.to_dict().items():
        assert v == pytest.approx(b.to_dict()[k], rel=1e-12, abs=1e-12)


def _same_mat(a: SparseMatrix, b: SparseMatrix):
    assert a.to_dict().keys() == b.to_dict().keys()
    for k, v in a.to_dict().items():
        assert v == pytest.approx(b.to_dict()[k], rel=1e-12, abs=1e-12)


DESCS = [
    OpDesc(),
    OpDesc(accum="Plus"),
    OpDesc(accum="Min"),
]


class TestVectorOpsAgainstInterpreted:
    @pytest.mark.parametrize("masked", [False, True, "comp", "repl"])
    @pytest.mark.parametrize("semiring", [("Plus", "Times"), ("Min", "Plus")])
    def test_mxv(self, cpp, interp, rng, masked, semiring):
        add, mult = semiring
        a, u, c = (
            random_mat_dict(rng, N, N),
            random_vec_dict(rng, N),
            random_vec_dict(rng, N),
        )
        mask = random_vec_dict(rng, N, dtype=np.bool_)
        desc = OpDesc(
            mask=_vs(mask, dtype=np.bool_) if masked else None,
            complement=masked == "comp",
            replace=masked == "repl",
        )
        got = cpp.mxv(_vs(c), _ms(a), _vs(u), add, mult, desc)
        want = interp.mxv(_vs(c), _ms(a), _vs(u), add, mult, desc)
        _same_vec(got, want)

    def test_mxv_transposed(self, cpp, interp, rng):
        a, u = random_mat_dict(rng, N, N), random_vec_dict(rng, N)
        got = cpp.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc(), ta=True)
        want = interp.mxv(_vs({}), _ms(a), _vs(u), "Plus", "Times", OpDesc(), ta=True)
        _same_vec(got, want)

    @pytest.mark.parametrize("desc", DESCS)
    def test_vxm(self, cpp, interp, rng, desc):
        a, u, c = (
            random_mat_dict(rng, N, N),
            random_vec_dict(rng, N),
            random_vec_dict(rng, N),
        )
        got = cpp.vxm(_vs(c), _vs(u), _ms(a), "Plus", "Times", desc)
        want = interp.vxm(_vs(c), _vs(u), _ms(a), "Plus", "Times", desc)
        _same_vec(got, want)

    @pytest.mark.parametrize("op", ["Plus", "Minus", "Min"])
    def test_ewise_vec(self, cpp, interp, rng, op):
        u, v = random_vec_dict(rng, N), random_vec_dict(rng, N)
        got = cpp.ewise_add_vec(_vs({}), _vs(u), _vs(v), op, OpDesc())
        want = interp.ewise_add_vec(_vs({}), _vs(u), _vs(v), op, OpDesc())
        _same_vec(got, want)
        got = cpp.ewise_mult_vec(_vs({}), _vs(u), _vs(v), op, OpDesc())
        want = interp.ewise_mult_vec(_vs({}), _vs(u), _vs(v), op, OpDesc())
        _same_vec(got, want)

    @pytest.mark.parametrize(
        "op_spec",
        [
            ("unary", "Identity"),
            ("unary", "AdditiveInverse"),
            ("bind", "Times", 2.5, "second"),
            ("bind", "Minus", 7.0, "first"),
        ],
    )
    def test_apply_vec(self, cpp, interp, rng, op_spec):
        u = random_vec_dict(rng, N)
        got = cpp.apply_vec(_vs(u), _vs(u), op_spec, OpDesc())
        want = interp.apply_vec(_vs(u), _vs(u), op_spec, OpDesc())
        _same_vec(got, want)

    @pytest.mark.parametrize("op", ["Plus", "Min", "Max"])
    def test_reduce_scalar(self, cpp, interp, rng, op):
        u = random_vec_dict(rng, N)
        a = random_mat_dict(rng, N, N)
        assert cpp.reduce_vec_scalar(_vs(u), op, None) == pytest.approx(
            interp.reduce_vec_scalar(_vs(u), op, None)
        )
        assert cpp.reduce_mat_scalar(_ms(a), op, None) == pytest.approx(
            interp.reduce_mat_scalar(_ms(a), op, None)
        )

    def test_reduce_empty_gives_identity(self, cpp):
        assert cpp.reduce_vec_scalar(SparseVector.empty(N, np.float64), "Min", None) == np.inf

    def test_reduce_rows(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N)
        got = cpp.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        want = interp.reduce_rows(_vs({}), _ms(a), "Plus", OpDesc())
        _same_vec(got, want)

    @pytest.mark.parametrize("accum", [None, "Plus"])
    def test_assign_vec(self, cpp, interp, rng, accum):
        c = random_vec_dict(rng, N)
        u = random_vec_dict(rng, 4)
        idx = np.array([2, 5, 7, 9])
        desc = OpDesc(accum=accum)
        got = cpp.assign_vec(_vs(c), _vs(u, 4), idx, desc)
        want = interp.assign_vec(_vs(c), _vs(u, 4), idx, desc)
        _same_vec(got, want)

    def test_assign_vec_scalar_masked(self, cpp, interp, rng):
        c = random_vec_dict(rng, N)
        mask = random_vec_dict(rng, N, dtype=np.bool_)
        desc = OpDesc(mask=_vs(mask, dtype=np.bool_))
        got = cpp.assign_vec_scalar(_vs(c), 42.0, np.arange(N), desc)
        want = interp.assign_vec_scalar(_vs(c), 42.0, np.arange(N), desc)
        _same_vec(got, want)

    def test_extract_vec(self, cpp, interp, rng):
        u = random_vec_dict(rng, N)
        idx = np.array([3, 0, 7, 3])
        got = cpp.extract_vec(SparseVector.empty(4, np.float64), _vs(u), idx, OpDesc())
        want = interp.extract_vec(SparseVector.empty(4, np.float64), _vs(u), idx, OpDesc())
        _same_vec(got, want)


class TestMatrixOpsAgainstInterpreted:
    @pytest.mark.parametrize("masked", [False, True])
    def test_mxm(self, cpp, interp, rng, masked):
        a, b, c = (
            random_mat_dict(rng, N, N),
            random_mat_dict(rng, N, N),
            random_mat_dict(rng, N, N),
        )
        mask = random_mat_dict(rng, N, N, dtype=np.bool_)
        desc = OpDesc(mask=_ms(mask, dtype=np.bool_) if masked else None)
        got = cpp.mxm(_ms(c), _ms(a), _ms(b), "Plus", "Times", desc)
        want = interp.mxm(_ms(c), _ms(a), _ms(b), "Plus", "Times", desc)
        _same_mat(got, want)

    def test_mxm_transposed_b(self, cpp, interp, rng):
        a, b = random_mat_dict(rng, N, N), random_mat_dict(rng, N, N)
        got = cpp.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc(), tb=True)
        want = interp.mxm(_ms({}), _ms(a), _ms(b), "Plus", "Times", OpDesc(), tb=True)
        _same_mat(got, want)

    def test_ewise_mat(self, cpp, interp, rng):
        a, b = random_mat_dict(rng, N, N), random_mat_dict(rng, N, N)
        got = cpp.ewise_add_mat(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        want = interp.ewise_add_mat(_ms({}), _ms(a), _ms(b), "Plus", OpDesc())
        _same_mat(got, want)
        got = cpp.ewise_mult_mat(_ms({}), _ms(a), _ms(b), "Times", OpDesc())
        want = interp.ewise_mult_mat(_ms({}), _ms(a), _ms(b), "Times", OpDesc())
        _same_mat(got, want)

    def test_apply_mat(self, cpp, interp, rng):
        a = random_mat_dict(rng, N, N)
        spec = ("bind", "Times", 0.85, "second")
        got = cpp.apply_mat(_ms(a), _ms(a), spec, OpDesc())
        want = interp.apply_mat(_ms(a), _ms(a), spec, OpDesc())
        _same_mat(got, want)


class TestNativeAssignMatScalar:
    """``assign_mat_scalar`` on cpp (BFS's ``levels[front][:, :] = depth``
    over a fused k×n frontier) against ``backend/kernels/assign_.py``, bit
    for bit: the descriptor grid on int64, mask + complement + accumulate
    on every POD type, and each index form on every kernel."""

    #: full slice, index lists, duplicates, an empty region
    INDEXES = [
        (np.arange(N), np.arange(N)),
        (np.array([3, 0, 7]), np.array([11, 2, 5, 4])),
        (np.array([5, 5, 1, 5]), np.array([0, 9, 0, 9, 0])),
        (np.array([], np.int64), np.arange(N)),
    ]

    @staticmethod
    def _store(rng, dtype, density=0.3):
        keys = np.flatnonzero(rng.random(N * N) < density)
        vals = rng.integers(0, 4, keys.size).astype(dtype)  # zeros: false mask entries
        return SparseMatrix.from_coo(N, N, keys // N, keys % N, vals, dtype=dtype)

    def _check(self, cpp, rng, dtype, value, mask, **desc):
        from repro.backend.kernels import assign_mat_scalar

        c = self._store(rng, dtype)
        desc = OpDesc(mask=self._store(rng, mask) if mask else None, **desc)
        for rows, cols in self.INDEXES:
            got = cpp.assign_mat_scalar(c, value, rows, cols, desc)
            want = assign_mat_scalar(c, value, rows, cols, desc)
            assert got.values.dtype == want.values.dtype == np.dtype(dtype)
            for name in ("indptr", "indices", "values"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("desc", [
        dict(), dict(accum="Minus"), dict(complement=True), dict(replace=True),
        dict(complement=True, replace=True, accum="Min"),
    ], ids=["plain", "accum", "comp", "repl", "comp-repl-accum"])
    def test_descriptor_grid(self, cpp, rng, desc):
        # under replace the mask is int64: its stored zeros must read as false
        self._check(cpp, rng, np.int64, 7, np.int64 if desc.get("replace") else np.bool_, **desc)

    def test_bfs_form(self, cpp, rng):
        """The traced instance: a bool mask into int64, no accumulator."""
        self._check(cpp, rng, np.int64, 3, np.bool_)
        self._check(cpp, rng, np.int64, 2.7, np.bool_)  # truncates as NumPy casts

    @pytest.mark.parametrize("dtype", [t.type for t in POD_TYPES], ids=str)
    def test_every_dtype(self, cpp, rng, dtype):
        value = True if dtype is np.bool_ else 2.5 if np.dtype(dtype).kind == "f" else 3
        self._check(cpp, rng, dtype, value, np.bool_, complement=True, accum="Plus")

    @pytest.mark.parametrize("rows, cols", [([N], [0]), ([0], [-1]), ([-1], [0]), ([0], [N + 5])])
    def test_out_of_range_raises_as_the_reference_does(self, cpp, rows, cols):
        from repro.backend.kernels import assign_mat_scalar
        from repro.exceptions import IndexOutOfBounds

        c = SparseMatrix.empty(N, N, np.int64)
        with pytest.raises(IndexOutOfBounds) as want:
            assign_mat_scalar(c, 1, rows, cols, OpDesc())
        with pytest.raises(IndexOutOfBounds, match=re.escape(str(want.value))):
            cpp.assign_mat_scalar(c, 1, np.array(rows), np.array(cols), OpDesc())

    def test_fused_bfs_stays_native(self, cpp, monkeypatch, no_faults):
        """A fused multi-source BFS on cpp calls pyjit's assign_mat_scalar
        0 times (it used to run every level's ``levels[frontier]`` write;
        an injected kernel fault would rerun one there, hence no chaos)."""
        from repro.algorithms.multisource import bfs_levels_multi
        from repro.io.generators import erdos_renyi
        from repro.jit.pyengine import PyJitEngine

        monkeypatch.setattr(PyJitEngine, "assign_mat_scalar",
                            lambda *args: pytest.fail("fell back to pyjit"))
        graph = erdos_renyi(64, nedges=256, seed=4, weighted=True, dtype=float)
        with gb.use_engine("cpp"):
            fused = bfs_levels_multi(graph, [0, 9, 33])
        with gb.use_engine("interpreted"):
            want = bfs_levels_multi(graph, [0, 9, 33])
        assert fused.isequal(want)


class TestDtypes:
    @pytest.mark.parametrize(
        "dtype", [np.bool_, np.int8, np.int32, np.int64, np.uint16, np.float32, np.float64]
    )
    def test_ewise_add_across_pods(self, cpp, interp, rng, dtype):
        u = random_vec_dict(rng, N, dtype=dtype)
        v = random_vec_dict(rng, N, dtype=dtype)
        op = "LogicalOr" if np.dtype(dtype) == np.bool_ else "Plus"
        got = cpp.ewise_add_vec(
            _vs({}, dtype=dtype), _vs(u, dtype=dtype), _vs(v, dtype=dtype), op, OpDesc()
        )
        want = interp.ewise_add_vec(
            _vs({}, dtype=dtype), _vs(u, dtype=dtype), _vs(v, dtype=dtype), op, OpDesc()
        )
        assert got.dtype == np.dtype(dtype)
        _same_vec(got, want)


class TestWholeDSLOnCpp:
    def test_bfs_through_dsl(self, rng):
        from repro.algorithms import bfs_levels
        from repro.io.generators import erdos_renyi

        g = erdos_renyi(100, seed=17)
        with gb.use_engine("cpp"):
            cpp_levels = bfs_levels(g, 0)
        with gb.use_engine("interpreted"):
            ref_levels = bfs_levels(g, 0)
        assert cpp_levels.isequal(ref_levels)

    def test_pagerank_through_dsl(self):
        from repro.algorithms import pagerank
        from repro.io.generators import scale_free

        g = scale_free(80, seed=19)
        with gb.use_engine("cpp"):
            pr1 = gb.Vector(shape=(80,), dtype=float)
            pagerank(g, pr1, threshold=1e-13)
        with gb.use_engine("interpreted"):
            pr2 = gb.Vector(shape=(80,), dtype=float)
            pagerank(g, pr2, threshold=1e-13)
        assert np.allclose(pr1.to_numpy(), pr2.to_numpy(), atol=1e-10)


class TestCompiledAlgorithms:
    def test_bfs_compiled_matches(self):
        from repro.algorithms import bfs_levels
        from repro.algorithms.compiled import bfs_compiled
        from repro.io.generators import erdos_renyi

        g = erdos_renyi(120, seed=23)
        levels, elapsed = bfs_compiled(g._store, 0)
        with gb.use_engine("interpreted"):
            want = bfs_levels(g, 0)
        assert levels.to_dict() == want._store.to_dict()
        assert elapsed > 0

    def test_sssp_compiled_matches(self):
        from repro.algorithms import sssp_distances
        from repro.algorithms.compiled import sssp_compiled
        from repro.io.generators import grid_graph

        g = grid_graph(8, weighted=True, seed=29, dtype=float)
        path, elapsed = sssp_compiled(g._store, 0)
        with gb.use_engine("interpreted"):
            want = sssp_distances(g, 0)
        got, ref = path.to_dict(), want._store.to_dict()
        assert got.keys() == ref.keys()
        for k in ref:
            assert got[k] == pytest.approx(ref[k])
        assert elapsed > 0

    def test_pagerank_compiled_matches(self):
        from repro.algorithms import pagerank
        from repro.algorithms.compiled import pagerank_compiled
        from repro.io.generators import scale_free

        g = scale_free(90, seed=31)
        ranks, elapsed = pagerank_compiled(g._store, threshold=1e-13)
        with gb.use_engine("interpreted"):
            pr = gb.Vector(shape=(90,), dtype=float)
            pagerank(g, pr, threshold=1e-13)
        assert np.allclose(ranks.to_dense(), pr.to_numpy(), atol=1e-9)
        assert elapsed > 0

    def test_triangle_count_compiled_matches(self):
        from repro.algorithms import lower_triangle, triangle_count
        from repro.algorithms.compiled import triangle_count_compiled
        from repro.io.generators import erdos_renyi

        g = erdos_renyi(100, seed=37)
        r, c, _ = g.to_coo()
        A = gb.Matrix(
            (np.ones(2 * len(r)), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=g.shape, dtype=int,
        )
        L = lower_triangle(A)
        count, elapsed = triangle_count_compiled(L._store)
        with gb.use_engine("interpreted"):
            assert count == triangle_count(L)
        assert elapsed > 0


class TestCppCaching:
    def test_so_artifacts_cached_on_disk(self, cpp, rng):
        u = random_vec_dict(rng, N)
        desc = OpDesc()
        before = cpp.cache.stats.compiles
        cpp.ewise_add_vec(_vs({}), _vs(u), _vs(u), "Max", desc)
        cpp.ewise_add_vec(_vs({}), _vs(u), _vs(u), "Max", desc)
        after = cpp.cache.stats.compiles
        assert after - before <= 1  # second call never recompiles

    def test_generated_cpp_has_fig9_defines(self, cpp, rng):
        u = random_vec_dict(rng, N)
        cpp.ewise_add_vec(_vs({}), _vs(u), _vs(u), "Plus", OpDesc())
        sources = list(cpp.cache.cache_dir.glob("pygb_ewise_add_vec_*.cpp"))
        assert sources
        text = sources[0].read_text()
        assert "g++" in text and "gbtl_lite.hpp" in text


class TestScheduleOnCpp:
    """Direction-optimized traversal on the C++ engine (PR 6): each
    strategy must be bit-identical to the C++ dense kernel, and the
    deterministic edges-examined counters must match the interpreted
    engine exactly (the pull counter simulates the Python block-growth
    scan inside the generated C++)."""

    def _sched(self, direction, func, a, u, desc, ta, add):
        from repro import schedule as S

        mode = "fixed" if direction == "dense" else direction
        return S.Schedule(mode).resolve(func, a, u, desc, ta, add)

    @pytest.mark.parametrize("direction", ["push", "pull"])
    @pytest.mark.parametrize("ta", [False, True])
    def test_mxv_directions_bit_identical(self, cpp, rng, direction, ta):
        a, u = random_mat_dict(rng, N, N), random_vec_dict(rng, N)
        mask = random_vec_dict(rng, N, dtype=np.bool_)

        def run(d):
            desc = OpDesc(mask=_vs(mask, dtype=np.bool_))
            a_s, u_s = _ms(a), _vs(u)
            sched = self._sched(d, "mxv", a_s, u_s, desc, ta, "Plus")
            return cpp.mxv(
                _vs({}), a_s, u_s, "Plus", "Times", desc, ta=ta, sched=sched
            ).to_dict()

        assert run(direction) == run("dense")

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_vxm_directions_bit_identical(self, cpp, rng, direction):
        a, u = random_mat_dict(rng, N, N), random_vec_dict(rng, N)
        mask = random_vec_dict(rng, N, dtype=np.bool_)

        def run(d):
            desc = OpDesc(mask=_vs(mask, dtype=np.bool_), complement=True)
            a_s, u_s = _ms(a), _vs(u)
            sched = self._sched(d, "vxm", a_s, u_s, desc, False, "Plus")
            return cpp.vxm(
                _vs({}), u_s, a_s, "Plus", "Times", desc, sched=sched
            ).to_dict()

        assert run(direction) == run("dense")

    def test_logical_pull_early_exit_bit_identical(self, cpp, rng):
        """bool × LogicalOr takes the dedicated early-exit kernel."""
        a = random_mat_dict(rng, N, N, dtype=np.bool_)
        u = random_vec_dict(rng, N, dtype=np.bool_)
        mask = random_vec_dict(rng, N, dtype=np.bool_)

        def run(d):
            desc = OpDesc(mask=_vs(mask, dtype=np.bool_), replace=True)
            a_s = _ms(a, dtype=np.bool_)
            u_s = _vs(u, dtype=np.bool_)
            sched = self._sched(d, "mxv", a_s, u_s, desc, True, "LogicalOr")
            return cpp.mxv(
                _vs({}, dtype=np.bool_), a_s, u_s,
                "LogicalOr", "LogicalAnd", desc, ta=True, sched=sched,
            ).to_dict()

        assert run("pull") == run("dense")

    @pytest.mark.parametrize("direction", ["dense", "push", "pull"])
    def test_edge_counters_match_interpreted(self, cpp, interp, rng, direction):
        from repro import schedule as S

        a, u = random_mat_dict(rng, N, N), random_vec_dict(rng, N)
        mask = random_vec_dict(rng, N, dtype=np.bool_)
        per_engine = {}
        for eng in (cpp, interp):
            S.reset_stats()
            desc = OpDesc(mask=_vs(mask, dtype=np.bool_))
            a_s, u_s = _ms(a), _vs(u)
            sched = self._sched(direction, "mxv", a_s, u_s, desc, False, "Plus")
            eng.mxv(_vs({}), a_s, u_s, "Plus", "Times", desc, sched=sched)
            per_engine[eng.name] = S.stats()["edges"]
        got = list(per_engine.values())
        assert got[0] == got[1]
        assert got[0][direction] > 0

    @pytest.mark.parametrize("mode", ["fixed", "push", "pull", "auto"])
    def test_bfs_through_dsl_every_mode(self, rng, mode):
        from repro.algorithms import bfs_levels
        from repro.io.generators import erdos_renyi

        g = erdos_renyi(80, seed=23)
        with gb.use_engine("cpp"):
            got = bfs_levels(g, 0, schedule=mode)
        with gb.use_engine("interpreted"):
            ref = bfs_levels(g, 0, schedule="fixed")
        assert got._store.to_dict() == ref._store.to_dict()


class TestBoolOutputs:
    """NumPy's bool and uint8 are both one byte, and the kernels used to
    store into either by ``static_cast<uint8_t>``: 256 became ``False``
    and a bool array could hold a raw 2.  A bool output takes
    ``value != 0`` on every engine; a uint8 output keeps wrapping."""

    ENGINES = ("interpreted", "pyjit", "cpp")
    WIDE = ([256, 2, 0, -1, 512], [0, 1, 2, 3, 5])  # 256 and 512 have a zero low byte

    @staticmethod
    def _bytes(container):
        values = container.to_coo()[-1]
        assert values.dtype == np.bool_
        raw = values.view(np.uint8)
        assert set(raw.tolist()) <= {0, 1}, raw
        return container.to_coo()[0].tolist(), raw.tolist()

    def _vector_cases(self, dtype):
        vals, idx = self.WIDE
        a = gb.Vector((vals, idx), shape=(6,), dtype=dtype)
        mask = gb.Vector(([True, True, False, True], [0, 1, 2, 5]), shape=(6,), dtype=bool)
        out = {}
        b = gb.Vector(shape=(6,), dtype=bool)
        b[None] = a
        out["plain"] = self._bytes(b)
        b = gb.Vector(([True, True], [0, 4]), shape=(6,), dtype=bool)
        b[mask] = a
        out["masked"] = self._bytes(b)
        b = gb.Vector(([True, True], [0, 4]), shape=(6,), dtype=bool)
        with gb.Accumulator("Plus"):
            b[None] += a  # True + 256: a raw sum is neither 0 nor 1
        out["accum"] = self._bytes(b)
        b = gb.Vector(([True, True], [0, 4]), shape=(6,), dtype=bool)
        with gb.Accumulator("Plus"):
            b[~mask] += a
        out["masked accum"] = self._bytes(b)
        b = gb.Vector(shape=(6,), dtype=bool)
        b[[5, 4, 3, 2, 1, 0]] = a  # the assign kernel's own cast
        out["assign"] = self._bytes(b)
        b = gb.Vector(shape=(6,), dtype=bool)
        b[:] = 256
        out["scalar"] = self._bytes(b)
        b[:] = 0.5
        out["fraction"] = self._bytes(b)
        return out

    def _matrix_cases(self, dtype):
        vals, idx = self.WIDE
        a = gb.Matrix((vals, (idx, [0, 1, 2, 3, 5])), shape=(6, 6), dtype=dtype)
        mask = gb.Matrix(([True, True, False], ([0, 1, 5], [0, 1, 5])), shape=(6, 6), dtype=bool)
        out = {}
        b = gb.Matrix(shape=(6, 6), dtype=bool)
        b[None] = a
        out["plain"] = self._bytes(b)
        b = gb.Matrix(([True, True], ([0, 4], [0, 4])), shape=(6, 6), dtype=bool)
        b[mask] = a
        out["masked"] = self._bytes(b)
        b = gb.Matrix(([True, True], ([0, 4], [0, 4])), shape=(6, 6), dtype=bool)
        with gb.Accumulator("Plus"):
            b[None] += a
        out["accum"] = self._bytes(b)
        b = gb.Matrix(([True, True], ([0, 4], [0, 4])), shape=(6, 6), dtype=bool)
        with gb.Accumulator("Plus"):
            b[~mask] += a + a  # an eWise result, not an apply
        out["masked accum"] = self._bytes(b)
        return out

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint8])
    @pytest.mark.parametrize("cases", ["_vector_cases", "_matrix_cases"])
    def test_bool_outputs_hold_truth_on_every_engine(self, cases, dtype):
        results = {}  # (uint8 operands wrap on construction; the accumulate legs still apply)
        for engine in self.ENGINES:
            with gb.use_engine(engine):
                results[engine] = getattr(self, cases)(dtype)
        assert results["pyjit"] == results["interpreted"]
        assert results["cpp"] == results["interpreted"]
        if dtype != np.uint8:
            # position 0 holds 256: truth, not its low byte
            assert results["cpp"]["plain"][1][0] == 1

    def test_the_issue_s_reproducer(self):
        with gb.use_engine("cpp"):
            a = gb.Vector(([256, 2, 0], [0, 1, 2]), dtype=np.int64)
            b = gb.Vector(shape=(3,), dtype=bool)
            b[None] = a
            assert b.to_coo()[1].view(np.uint8).tolist() == [1, 1, 0]

    def test_uint8_outputs_keep_wrapping(self):
        for engine in self.ENGINES:
            with gb.use_engine(engine):
                a = gb.Vector(([256, 258, 3], [0, 1, 2]), dtype=np.int64)
                b = gb.Vector(shape=(3,), dtype=np.uint8)
                b[None] = a
                assert b.to_coo()[1].tolist() == [0, 2, 3], engine

    def test_bool_reduction_does_not_wrap_at_256(self):
        """A Plus-reduce of 256 ``True`` entries is ``True``: the bool
        element type saturates where uint8 arithmetic came back to 0."""
        for engine in self.ENGINES:
            with gb.use_engine(engine):
                u = gb.Vector((np.ones(256, dtype=bool), range(256)), shape=(256,), dtype=bool)
                assert bool(gb.reduce(u)) is True, engine
