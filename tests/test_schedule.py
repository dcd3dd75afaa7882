"""The schedule layer (``repro.schedule``): direction-optimizing traversal.

Four layers of coverage:

* **unit** — ``$PYGB_SCHEDULE`` parsing, the :class:`Scheduled` context,
  the deterministic counters, the cost model's decision rows, and
  :meth:`Schedule.resolve` feasibility rules (unmasked pull degrades to
  dense and counts a fallback; switches are detected per call site);
* **bit-identity** — every mode (``fixed``/``push``/``pull``/``auto``)
  produces *exactly* the same result dict as the legacy dense strategy,
  per engine, across mxv/vxm × transpose × mask/complement grids, for
  arithmetic and logical (early-exit) semirings, in blocking and
  nonblocking execution;
* **determinism** — the edges-examined counters are engine-independent:
  interpreted and pyjit report identical numbers for a forced direction;
* **integration** — BFS under ``schedule="push"`` examines fewer edges
  than the dense sweep on a power-law graph; the frontier
  representations memoized on ``SparseVector`` are built once.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro as gb
from repro import schedule as S
from repro.backend.kernels import OpDesc
from repro.core.context import use_engine

from helpers import mat_from_dict, random_mat_dict, random_vec_dict, vec_from_dict

MODES = ("fixed", "push", "pull", "auto")

N = 24


@pytest.fixture(autouse=True)
def _fresh_schedule_state():
    """Counter state is process-global; isolate every test."""
    S.reset_stats()
    yield
    S.reset_stats()


# ----------------------------------------------------------------------
# unit: mode parsing, the Scheduled context, counters
# ----------------------------------------------------------------------


class TestModeParsing:
    @pytest.mark.parametrize(
        "raw,expect",
        [
            ("", "auto"),
            ("auto", "auto"),
            ("AUTO", "auto"),
            ("fixed", "fixed"),
            ("dense", "fixed"),
            ("0", "fixed"),
            ("off", "fixed"),
            ("no", "fixed"),
            ("push", "push"),
            ("PULL", "pull"),
        ],
    )
    def test_env_values(self, monkeypatch, raw, expect):
        monkeypatch.setenv("PYGB_SCHEDULE", raw)
        assert S.schedule_mode() == expect

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("PYGB_SCHEDULE", raising=False)
        assert S.schedule_mode() == "auto"

    def test_unknown_warns_and_falls_back(self, monkeypatch):
        with pytest.warns(UserWarning, match="PYGB_SCHEDULE"):
            monkeypatch.setenv("PYGB_SCHEDULE", "sideways")
        assert S.schedule_mode() == "auto"


class TestScheduledContext:
    def test_fixed_normalizes_to_dense(self):
        assert S.Scheduled("fixed").direction == "dense"
        assert S.Scheduled(" Push ").direction == "push"

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="bad schedule direction"):
            S.Scheduled("sideways")

    def test_context_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("PYGB_SCHEDULE", "push")
        with S.Scheduled("pull"):
            sched = S.Schedule.capture()
            assert sched.forced == "pull"
        sched = S.Schedule.capture()
        assert sched.mode == "push" and sched.forced is None

    def test_innermost_context_wins(self):
        with S.Scheduled("push"), S.Scheduled("dense"):
            assert S.Schedule.capture().forced == "dense"


class TestCounters:
    def test_note_edges_accumulates(self):
        S.note_edges("push", 5)
        S.note_edges("push", 2)
        S.note_edges("dense", 1)
        st = S.stats()
        assert st["edges"]["push"] == 7
        assert st["edges"]["dense"] == 1
        assert st["edges_total"] == 8

    def test_reset_zeroes_everything(self):
        S.note_edges("pull", 9)
        S.reset_stats()
        st = S.stats()
        assert st["edges_total"] == 0 and st["calls_total"] == 0
        assert st["switches"] == 0 and st["fallbacks"] == 0


# ----------------------------------------------------------------------
# unit: Schedule.resolve feasibility and switch detection
# ----------------------------------------------------------------------


def _stores(n=8, seed=0):
    rng = np.random.default_rng(seed)
    a = mat_from_dict(random_mat_dict(rng, n, n), n, n)
    u = vec_from_dict(random_vec_dict(rng, n), n)
    mask_d = random_vec_dict(rng, n, density=0.6, dtype=bool)
    mask = vec_from_dict(mask_d, n, dtype=bool)
    return a._store, u._store, mask._store, mask_d


class TestResolve:
    def test_unmasked_pull_falls_back_to_dense(self):
        a, u, _, _ = _stores()
        sched = S.Schedule("pull").resolve("mxv", a, u, OpDesc(), False, "LogicalOr")
        assert sched.direction == "dense"
        assert sched.chosen_by == "fallback"
        assert S.stats()["fallbacks"] == 1
        assert S.stats()["calls"]["dense"] == 1

    def test_masked_pull_candidates_are_true_set(self):
        a, u, m, mask_d = _stores()
        sched = S.Schedule("auto", forced="pull").resolve(
            "mxv", a, u, OpDesc(mask=m), False, "LogicalOr"
        )
        assert sched.direction == "pull"
        assert sched.frontier == "bitmap"
        expected = sorted(i for i, v in mask_d.items() if v)
        np.testing.assert_array_equal(sched.candidates, expected)

    def test_complemented_mask_candidates(self):
        a, u, m, mask_d = _stores()
        sched = S.Schedule("pull").resolve(
            "mxv", a, u, OpDesc(mask=m, complement=True), False, "LogicalOr"
        )
        n = u.size
        expected = sorted(set(range(n)) - {i for i, v in mask_d.items() if v})
        np.testing.assert_array_equal(sched.candidates, expected)

    def test_auto_heuristic_prefers_push_for_sparse_frontier(self):
        n = 32
        rng = np.random.default_rng(1)
        a = mat_from_dict(random_mat_dict(rng, n, n, density=0.4), n, n)
        u = gb.Vector(([1.0], [3]), shape=(n,), dtype=np.float64)
        sched = S.Schedule("auto").resolve(
            "mxv", a._store, u._store, OpDesc(), False, "Plus"
        )
        assert sched.direction == "push"
        assert sched.chosen_by == "heuristic"

    def test_empty_frontier_is_free_push(self):
        a, _, _, _ = _stores()
        u = gb.Vector(shape=(8,), dtype=np.float64)
        sched = S.Schedule("auto").resolve(
            "mxv", a, u._store, OpDesc(), False, "Plus"
        )
        assert sched.direction == "push"

    @pytest.mark.parametrize(
        "func, ta, memo, frontier, expect",
        [
            # full frontier, push scatters along `a` itself: dense would
            # have to build a.T to gather along, so it is charged for it
            ("vxm", False, False, "full", "push"),
            ("mxv", True, False, "full", "push"),
            # ... unless the transpose is at hand: the tie goes to dense
            ("vxm", False, True, "full", "dense"),
            ("mxv", True, True, "full", "dense"),
            # `a @ u` gathers along `a` itself: nothing to build
            ("mxv", False, False, "full", "dense"),
            # a sparse frontier pushes whichever side `a` is (`a @ u`:
            # test_auto_heuristic_prefers_push_for_sparse_frontier)
            ("mxv", True, False, "sparse", "push"),
        ],
    )
    def test_cost_model_rows(self, func, ta, memo, frontier, expect):
        n = 32
        a = mat_from_dict(random_mat_dict(np.random.default_rng(1), n, n, density=0.4), n, n)._store
        assert a.transpose_memo() is None
        if memo:
            a.transposed()
        idx = range(n) if frontier == "full" else [3]
        u = gb.Vector((np.ones(len(idx)), idx), shape=(n,), dtype=np.float64)._store
        sched = S.Schedule("auto").resolve(func, a, u, OpDesc(), ta, "Plus")
        assert (sched.direction, sched.chosen_by) == (expect, "heuristic")
        if frontier == "full":
            # a full frontier never makes `auto` build a transpose
            assert (a.transpose_memo() is not None) == memo

    def test_masked_step_with_few_candidates_pulls(self):
        """A BFS step late in the traversal: wide frontier, three
        unvisited vertices left under the complemented mask."""
        n = 32
        a = mat_from_dict(random_mat_dict(np.random.default_rng(1), n, n, density=0.4), n, n)._store
        u = gb.Vector((np.ones(16, dtype=bool), range(16)), shape=(n,), dtype=bool)._store
        visited = gb.Vector((np.ones(n - 3, dtype=bool), range(n - 3)), shape=(n,), dtype=bool)._store
        sched = S.Schedule("auto").resolve(
            "mxv", a, u, OpDesc(mask=visited, complement=True), True, "LogicalOr"
        )
        assert sched.direction == "pull"
        np.testing.assert_array_equal(sched.candidates, [n - 3, n - 2, n - 1])

    def test_switch_detected_per_site(self):
        a, u, _, _ = _stores()
        S.Schedule("push").resolve("mxv", a, u, OpDesc(), False, "Plus")
        assert S.stats()["switches"] == 0
        S.Schedule("fixed").resolve("mxv", a, u, OpDesc(), False, "Plus")
        assert S.stats()["switches"] == 1
        # same direction again: no new switch
        S.Schedule("fixed").resolve("mxv", a, u, OpDesc(), False, "Plus")
        assert S.stats()["switches"] == 1


# ----------------------------------------------------------------------
# bit-identity: every mode matches the dense strategy exactly, per engine
# ----------------------------------------------------------------------


def _traversal(mode, a, u, mask, *, vxm=False, ta=False, complement=False,
               semiring=None, dtype=np.float64, nonblocking=False):
    """One masked/unmasked traversal under *mode*; returns the exact
    result store dict."""
    out = gb.Vector(shape=(u.shape[0],), dtype=dtype)
    semiring = semiring if semiring is not None else gb.ArithmeticSemiring
    mat = a.T if ta else a
    exec_ctx = gb.nonblocking() if nonblocking else contextlib.nullcontext()
    with exec_ctx:
        with S.Scheduled(mode), semiring:
            expr = (u @ mat) if vxm else (mat @ u)
            if mask is None:
                out[None] = expr
            elif complement:
                out[~mask] = expr
            else:
                out[mask] = expr
    return out._store.to_dict()


def _containers(rng, n=N, dtype=np.float64):
    a = mat_from_dict(random_mat_dict(rng, n, n, density=0.25, dtype=dtype), n, n, dtype)
    u = vec_from_dict(random_vec_dict(rng, n, density=0.4, dtype=dtype), n, dtype)
    mask = vec_from_dict(
        random_vec_dict(rng, n, density=0.6, dtype=bool), n, dtype=bool
    )
    return a, u, mask


class TestBitIdentity:
    @pytest.mark.parametrize("vxm", [False, True], ids=["mxv", "vxm"])
    @pytest.mark.parametrize("ta", [False, True], ids=["a", "aT"])
    @pytest.mark.parametrize("maskkind", ["none", "mask", "comp"])
    def test_arithmetic_grid(self, engine, rng, vxm, ta, maskkind):
        a, u, mask = _containers(rng)
        kw = dict(
            vxm=vxm,
            ta=ta,
            mask=None if maskkind == "none" else mask,
            complement=maskkind == "comp",
        )
        base = _traversal("fixed", a, u, **kw)
        for mode in MODES:
            assert _traversal(mode, a, u, **kw) == base, f"{mode} diverged"

    @pytest.mark.parametrize("maskkind", ["mask", "comp"])
    def test_logical_early_exit_grid(self, engine, rng, maskkind):
        """LogicalOr/LogicalAnd over bool containers — the pull early-exit
        kernel — must match dense exactly, including False stored entries."""
        a, u, _ = _containers(rng, dtype=np.bool_)
        mask = vec_from_dict(
            random_vec_dict(rng, N, density=0.7, dtype=bool), N, dtype=bool
        )
        kw = dict(
            ta=True,
            mask=mask,
            complement=maskkind == "comp",
            semiring=gb.LogicalSemiring,
            dtype=np.bool_,
        )
        base = _traversal("fixed", a, u, **kw)
        for mode in MODES:
            assert _traversal(mode, a, u, **kw) == base, f"{mode} diverged"

    @pytest.mark.parametrize("mode", ["push", "pull", "auto"])
    def test_nonblocking_matches_blocking(self, engine, rng, mode):
        a, u, mask = _containers(rng)
        blocking = _traversal(mode, a, u, mask, ta=True)
        scoped = _traversal(mode, a, u, mask, ta=True, nonblocking=True)
        assert scoped == blocking

    def test_minplus_sssp_shaped(self, engine, rng):
        """Unmasked Min/Plus relaxation (pull falls back to dense)."""
        a, u, _ = _containers(rng)
        base = _traversal("fixed", a, u, None, ta=True, semiring=gb.MinPlusSemiring)
        for mode in MODES:
            got = _traversal(mode, a, u, None, ta=True, semiring=gb.MinPlusSemiring)
            assert got == base, f"{mode} diverged"
        assert S.stats()["fallbacks"] >= 1  # the forced-pull leg degraded


# ----------------------------------------------------------------------
# determinism: counters are engine-independent
# ----------------------------------------------------------------------


class TestCounterDeterminism:
    @pytest.mark.parametrize("mode", ["fixed", "push", "pull"])
    def test_edges_match_across_engines(self, rng, mode):
        a, u, mask = _containers(rng)
        per_engine = {}
        for eng in ("interpreted", "pyjit"):
            S.reset_stats()
            with use_engine(eng):
                result = _traversal(mode, a, u, mask, ta=True)
            per_engine[eng] = (S.stats(), result)
        (si, ri), (sj, rj) = per_engine["interpreted"], per_engine["pyjit"]
        assert ri == rj
        assert si["edges"] == sj["edges"]
        assert si["calls"] == sj["calls"]
        direction = {"fixed": "dense"}.get(mode, mode)
        assert si["calls"][direction] == 1
        assert si["edges"][direction] > 0


# ----------------------------------------------------------------------
# integration: algorithms, obs surfacing, memoized frontiers
# ----------------------------------------------------------------------


class TestAlgorithms:
    @pytest.mark.parametrize("mode", [None, "fixed", "push", "pull", "auto"])
    def test_bfs_modes_identical(self, engine, small_graph, mode):
        from repro.algorithms import bfs_levels

        base = bfs_levels(small_graph, 0, schedule="fixed")
        got = bfs_levels(small_graph, 0, schedule=mode)
        assert got._store.to_dict() == base._store.to_dict()

    @pytest.mark.parametrize("mode", [None, "fixed", "push", "auto"])
    def test_sssp_modes_identical(self, engine, mode):
        from repro.algorithms import sssp_distances
        from repro.io.generators import erdos_renyi

        g = erdos_renyi(30, seed=5, weighted=True, dtype=float)
        base = sssp_distances(g, 0, schedule="fixed")
        got = sssp_distances(g, 0, schedule=mode)
        assert got._store.to_dict() == base._store.to_dict()

    @pytest.mark.parametrize("mode", [None, "fixed", "push", "auto"])
    def test_pagerank_modes_identical(self, engine, mode):
        from repro.algorithms import pagerank
        from repro.io.generators import scale_free

        g = scale_free(40, out_degree=3, seed=7)
        base = pagerank(g, gb.Vector(shape=(40,), dtype=float), schedule="fixed")
        got = pagerank(g, gb.Vector(shape=(40,), dtype=float), schedule=mode)
        assert got._store.to_dict() == base._store.to_dict()

    def test_push_examines_fewer_edges_on_power_law(self, engine):
        from repro.algorithms import bfs_levels
        from repro.io.generators import rmat

        g = rmat(7, edge_factor=8, seed=4)
        S.reset_stats()
        dense_levels = bfs_levels(g, 0, schedule="fixed")
        dense_edges = S.stats()["edges"]["dense"]
        S.reset_stats()
        push_levels = bfs_levels(g, 0, schedule="push")
        push_edges = S.stats()["edges"]["push"]
        assert push_levels._store.to_dict() == dense_levels._store.to_dict()
        assert S.stats()["calls"]["push"] > 0
        assert push_edges * 2 <= dense_edges

    def test_auto_bfs_switches_and_stays_correct(self, engine):
        """Fewer examined edges than the dense sweep, identical levels."""
        from repro.algorithms import bfs_levels
        from repro.io.generators import rmat

        g = rmat(7, edge_factor=8, seed=4)
        base = bfs_levels(g, 0, schedule="fixed")
        S.reset_stats()
        auto_levels = bfs_levels(g, 0, schedule="auto")
        st = S.stats()
        assert auto_levels._store.to_dict() == base._store.to_dict()
        assert st["calls"]["dense"] == 0  # every level found a better direction
        S.reset_stats()
        bfs_levels(g, 0, schedule="fixed")
        assert st["edges_total"] * 2 <= S.stats()["edges"]["dense"]


    def test_direction_is_independent_of_latency(self, engine, no_faults, monkeypatch):
        """The same operands give the same directions whatever the
        dispatches cost: a second run with every kernel call stalled
        leaves ``calls``, ``edges`` and ``switches`` as they were."""
        from repro.algorithms import bfs_levels, pagerank, sssp_distances
        from repro.io.generators import rmat, scale_free
        from repro.testing.faults import fault_injection

        monkeypatch.setenv("PYGB_FAULT_SLEEP", "0.002")
        g = rmat(7, edge_factor=8, seed=4)
        gw = rmat(6, edge_factor=4, seed=5, weighted=True, dtype=float)
        pr = scale_free(64, out_degree=3, seed=7)

        def run():
            S.reset_stats()
            bfs_levels(g, 0, schedule="auto")
            sssp_distances(gw, 0, schedule="auto")
            pagerank(pr, gb.Vector(shape=(64,), dtype=float), schedule="auto")
            st = S.stats()
            return st["calls"], st["edges"], st["switches"]

        quiet = run()
        with fault_injection("slow_kernel", rate=1.0):
            stalled = run()
        assert stalled == quiet
        assert len([d for d, n in quiet[0].items() if n]) >= 2  # a real mix of directions

    def test_auto_pagerank_never_transposes(self, engine, monkeypatch):
        """The rank vector is full from the first iteration and ``m`` is
        built fresh by every call: dense would gather along ``m.T``."""
        from repro.algorithms import pagerank
        from repro.backend.smatrix import SparseMatrix
        from repro.io.generators import scale_free

        built = []
        build = SparseMatrix._build_transpose
        monkeypatch.setattr(
            SparseMatrix, "_build_transpose", lambda self: built.append(self) or build(self)
        )
        g = scale_free(64, out_degree=3, seed=7)
        pagerank(g, gb.Vector(shape=(64,), dtype=float), schedule="auto")
        st = S.stats()
        assert st["calls"]["push"] == st["calls_total"] > 0
        assert built == []


class TestObsIntegration:
    def test_span_attrs_and_stats_rollup(self, small_graph):
        from repro.algorithms import bfs_levels

        with use_engine("interpreted"), gb.tracing() as tr:
            bfs_levels(small_graph, 0, schedule="push")
        snap = tr.stats.snapshot()
        assert snap["schedule"]["directions"].get("push", 0) > 0
        assert "mode" in snap["schedule"]["chosen_by"]

    def test_switch_event_recorded(self, small_graph):
        from repro.algorithms import bfs_levels

        with use_engine("interpreted"), gb.tracing() as tr:
            bfs_levels(small_graph, 0, schedule="push")
            bfs_levels(small_graph, 0, schedule="fixed")
        snap = tr.stats.snapshot()
        assert snap["schedule"]["switches"] >= 1

    def test_render_stats_mentions_schedule(self, small_graph):
        from repro.algorithms import bfs_levels
        from repro.obs.stats import render_stats

        with use_engine("interpreted"), gb.tracing() as tr:
            bfs_levels(small_graph, 0, schedule="pull")
        text = render_stats(tr.stats.snapshot())
        assert "traversal schedule" in text


class TestFrontierRepresentations:
    def test_bitmap_and_indices_memoized(self, rng):
        v = vec_from_dict(
            random_vec_dict(rng, 16, density=0.5, dtype=bool), 16, dtype=bool
        )._store
        assert v.true_bitmap() is v.true_bitmap()
        assert v.bool_indices() is v.bool_indices()
        vals, present = v.dense_lookup()
        vals2, present2 = v.dense_lookup()
        assert vals is vals2 and present is present2  # same memoized pair
        assert not v.true_bitmap().flags.writeable
        assert not present.flags.writeable

    def test_bitmap_matches_bool_indices(self, rng):
        d = random_vec_dict(rng, 32, density=0.5, dtype=bool)
        v = vec_from_dict(d, 32, dtype=bool)._store
        np.testing.assert_array_equal(
            np.flatnonzero(v.true_bitmap()), v.bool_indices()
        )
        expected = sorted(i for i, val in d.items() if val)
        np.testing.assert_array_equal(v.bool_indices(), expected)
