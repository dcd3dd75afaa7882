"""The workload table, and the single-process workloads behind it.

A workload is one row of :data:`WORKLOADS`.  To add one, write a suite
class with the small interface below (or reuse one with other
``params``), add a row here, and add the same ``name``/``why`` pair to
``BENCHMARK.json``.

Suite interface (what ``worker.py`` calls), for workloads whose units
run one after another in the worker process:

``engine``            engine name handed to ``gb.use_engine``
``kinds``             unit kinds, in round order
``build_inputs()``    make the inputs from the seed (timed as set-up)
``run(kind)``         one unit: the timed span; returns its output
``digest(kind, out)`` hash of an output, taken outside the timed span
``verify(kind, out)`` independent oracle's verdict on one output
``summarise(samples)``  the workload's own end-to-end metrics from
                      ``{kind: [ns, ...]}`` (at reference host speed, see
                      ``hostspeed.py``), plus a sample-count note each
``plain_layers(samples, rounds)``  per-layer metrics the suite derives
                      from the traced run's plain rounds (may be empty)
``work_pid()``        the process whose processor time the units spend
``close()``           release what ``build_inputs`` opened

``service_mix`` drives a server subprocess from client threads instead;
its suite lives in ``service.py``.

``--seed`` only ever reaches the generators in this file and the
request tape of ``service.py``: the program sees the generated inputs.

What the seed varies is what must not matter: vertex labels (hence CSR
layout and memory order), request sources and order, mutation sites and
values.  What decides how much work an algorithm does — the graph up to
isomorphism, so BFS depth, relaxation rounds, PageRank iterations,
triangles — is part of the workload and fixed by :data:`BASE_SEED`.
A metric that moved with the seed could not hold its bound: at
|V|=256 one more relaxation round is +20% on ``sssp_p50_ms``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import summary as S

ROOT = Path(__file__).resolve().parents[1]

PAGERANK_THRESHOLD = 1.0e-8
#: seed of the graphs whose shape defines a workload (the value the
#: repository's Fig. 10 harness has always used)
BASE_SEED = 42
#: calls of each whole-algorithm C++ module; the first (compile, dlopen) is dropped
NATIVE_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suite: str  # class name in this module or in service.py
    #: the end-to-end metric that stands for this workload where another
    #: metric does not apply to it (see README, "Cells that do not apply")
    primary: str
    params: dict = field(default_factory=dict)


WORKLOADS = (
    Workload(
        "dsl_small",
        "58 dispatches a round at |V|=256, kernels ~5% of wall: constant per-op cost "
        "(frontend, wrapper stack, spec lookup, ctypes marshalling) does the work",
        "DslSuite",
        "suite_geomean_ms",
        {"nodes": 256, "nedges": None, "tc_nodes": 256, "pagerank_on": "scale_free"},
    ),
    Workload(
        "dsl_large",
        "same code at |V|=4096, |E|=262144 (TC at 1024): size-proportional work dominates "
        "(kernels, copies, O(n) checks); a per-dispatch saving predicts no change here",
        "DslSuite",
        "suite_geomean_ms",
        {"nodes": 4096, "nedges": 262144, "tc_nodes": 1024, "pagerank_on": "erdos_renyi"},
    ),
    Workload(
        "service_mix",
        "same algorithms behind `repro serve`: concurrent closed-loop clients, nonblocking "
        "scopes, multi-source fusion, pyjit kernels, JSON results; cpp marshalling idle",
        "ServiceMix",
        "request_p50_ms",
        {"nodes": 256, "nedges": 4096},
    ),
    Workload(
        "build_mutate",
        "write side of the data plane at |V|=2048: every container is read, built, mutated, "
        "used once and dropped, so memoised transposes and cached argument packs are pure cost",
        "BuildMutate",
        "cycle_p50_ms",
        {"nodes": 2048, "mutations": 16},
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def make_suite(workload: Workload, seed: int, tmp: Path):
    if workload.suite == "ServiceMix":
        from service import ServiceMix

        return ServiceMix(workload.params, seed, tmp)
    return globals()[workload.suite](workload.params, seed, tmp)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def base_graph(nodes: int, nedges=None, weighted: bool = False):
    """COO arrays of the workload-defining Erdős–Rényi graph.  Every
    vertex must have an in- and an out-edge: the paper's PageRank
    listing assumes it (it keeps stale rank otherwise)."""
    from repro.io.generators import erdos_renyi_coo

    rows, cols, vals = erdos_renyi_coo(nodes, nedges, BASE_SEED, weighted)
    if len(np.unique(rows)) != nodes or len(np.unique(cols)) != nodes:
        raise ValueError(f"base graph ({nodes}, {nedges}) leaves a vertex without in- or out-edge")
    return rows, cols, vals


def relabeling(nodes: int, seed: int) -> np.ndarray:
    """Seeded vertex permutation that keeps vertex 0 (the source of
    every traversal) in place."""
    perm = np.arange(nodes)
    perm[1:] = np.random.default_rng(seed).permutation(nodes - 1) + 1
    return perm


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


# ----------------------------------------------------------------------
# dsl_small / dsl_large
# ----------------------------------------------------------------------


class DslSuite:
    """The paper's four algorithms through the unmodified DSL listings."""

    engine = "cpp"
    kinds = ("bfs", "sssp", "pagerank", "tc")

    def __init__(self, params: dict, seed: int, tmp: Path):
        self.p = params
        self.seed = seed

    def build_inputs(self) -> None:
        import repro as gb
        from repro.algorithms import lower_triangle
        from repro.io.generators import scale_free

        n, m = self.p["nodes"], self.p["nedges"]
        perm = relabeling(n, self.seed)
        rows, cols, weights = base_graph(n, m, weighted=True)
        rows, cols = perm[rows], perm[cols]
        self.n, self.rows, self.cols, self.weights = n, rows, cols, weights
        ones = np.ones(len(rows), dtype=np.int64)
        self.g = gb.Matrix((ones, (rows, cols)), shape=(n, n))
        self.gw = gb.Matrix((weights, (rows, cols)), shape=(n, n), dtype=float)
        if self.p["pagerank_on"] == "scale_free":
            r, c, v = scale_free(n, seed=BASE_SEED).to_coo()
            self.pr = gb.Matrix((v, (perm[r], perm[c])), shape=(n, n))
        else:
            self.pr = self.g

        t = self.p["tc_nodes"]
        perm = relabeling(t, self.seed)
        r, c, _ = base_graph(t)
        r, c = perm[r], perm[c]
        sym = gb.Matrix(
            (np.ones(2 * len(r), dtype=np.int64), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=(t, t),
        )
        self.lower = lower_triangle(sym)

    def run(self, kind: str):
        import repro as gb
        from repro.algorithms import bfs_levels, pagerank, sssp_converging, triangle_count

        if kind == "bfs":
            return bfs_levels(self.g, 0)
        if kind == "sssp":
            path = gb.Vector(([0.0], [0]), shape=(self.n,), dtype=float)
            return sssp_converging(self.gw, path)
        if kind == "pagerank":
            ranks = gb.Vector(shape=(self.n,), dtype=float)
            return pagerank(self.pr, ranks, threshold=PAGERANK_THRESHOLD)
        return triangle_count(self.lower)

    def digest(self, kind: str, out) -> bytes:
        return str(out).encode() if kind == "tc" else _digest(*out.to_coo())

    def verify(self, kind: str, out) -> bool:
        import oracle

        n = self.n
        if kind == "bfs":
            return oracle.check_bfs(n, self.rows, self.cols, 0, *out.to_coo())
        if kind == "sssp":
            return oracle.check_sssp(n, self.rows, self.cols, self.weights, 0, *out.to_coo())
        if kind == "pagerank":
            if out.nvals != n:
                return False
            r, c, v = self.pr.to_coo()
            return oracle.check_pagerank(n, r, c, v, out.to_coo()[1], threshold=PAGERANK_THRESHOLD)
        r, c, _ = self.lower.to_coo()
        return oracle.check_triangles(self.p["tc_nodes"], r, c, out)

    def summarise(self, samples: dict) -> tuple[dict, dict]:
        metrics = {f"{k}_p50_ms": S.ms(S.median(v)) for k, v in samples.items()}
        notes = {f"{k}_p50_ms": f"{len(v)} samples" for k, v in samples.items()}
        metrics["suite_geomean_ms"] = S.geomean(metrics.values())
        return metrics, notes

    def plain_layers(self, samples: dict, rounds: int) -> dict:
        """The loops' tail, and Fig. 10's v1/v3 per algorithm while the
        compiled module exists."""
        out = {
            "loops_p90_geomean_ms": S.geomean(
                S.ms(S.percentile(samples[k], 90)) for k in ("bfs", "sssp", "pagerank")
            )
        }
        try:
            ratios = {
                f"algorithms.native_ratio.{kind}":
                    S.median(samples[kind]) / S.median(self.native_ns(kind, NATIVE_REPEATS)[1:])
                for kind in self.kinds
            }
        except ImportError:
            return out
        out.update(ratios)
        out["algorithms.native_ratio"] = S.geomean(ratios.values())
        return out

    def native_ns(self, kind: str, repeats: int) -> list[int]:
        """``elapsed_ns`` the whole-algorithm C++ module reports for the
        same input (paper Fig. 10, version 3).  Raises ImportError once
        ``repro.algorithms.compiled`` is gone."""
        from repro.algorithms import compiled
        from repro.backend.smatrix import SparseMatrix

        def store(matrix):
            r, c, v = matrix.to_coo()
            return SparseMatrix.from_coo(matrix.nrows, matrix.ncols, r, c, v, matrix.dtype)

        call = {
            "bfs": lambda s=store(self.g): compiled.bfs_compiled(s, 0),
            "sssp": lambda s=store(self.gw): compiled.sssp_compiled(s, 0),
            "pagerank": lambda s=store(self.pr): compiled.pagerank_compiled(
                s, threshold=PAGERANK_THRESHOLD
            ),
            "tc": lambda s=store(self.lower): compiled.triangle_count_compiled(s),
        }[kind]
        return [call()[1] for _ in range(repeats)]

    def work_pid(self) -> int:
        return os.getpid()

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# build_mutate
# ----------------------------------------------------------------------


class BuildMutate:
    """Read, build, mutate, use once, extract, drop — every cycle."""

    engine = "cpp"
    kinds = ("cycle",)
    #: step name -> per-layer metric it feeds
    steps = ("mmread", "mmread_fast", "from_numpy", "from_lists", "setitem",
             "first_use", "steady_use", "extract")

    def __init__(self, params: dict, seed: int, tmp: Path):
        self.p = params
        self.seed = seed
        self.path = tmp / "graph.mtx"
        self.step_ns: dict[str, list[int]] = {s: [] for s in self.steps}

    def build_inputs(self) -> None:
        from repro.io.generators import erdos_renyi_coo

        n = self.n = self.p["nodes"]
        rows, cols, vals = erdos_renyi_coo(n, None, self.seed, weighted=True)
        self.rows, self.cols, self.vals = rows, cols, vals
        self.lists = (vals.tolist(), (rows.tolist(), cols.tolist()))
        rng = np.random.default_rng(self.seed)
        k = self.p["mutations"]
        self.mutations = list(
            zip(rng.integers(n, size=k).tolist(), rng.integers(n, size=k).tolist(),
                rng.uniform(1.0, 10.0, size=k).tolist())
        )
        self.u = rng.uniform(1.0, 2.0, size=n)
        with open(self.path, "wt") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{n} {n} {len(rows)}\n")
            fh.writelines(
                f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(*self.lists[1], self.lists[0])
            )

    def run(self, kind: str):
        import repro as gb
        from repro.io.fastload import mmread_fast
        from repro.io.matrixmarket import mmread

        n, shape = self.n, (self.n, self.n)
        clock = time.perf_counter_ns
        u = gb.Vector(self.u)
        first = gb.Vector(shape=(n,), dtype=float)
        again = gb.Vector(shape=(n,), dtype=float)
        laps = [clock()]
        a = mmread(str(self.path))
        laps.append(clock())
        b = mmread_fast(str(self.path))
        laps.append(clock())
        m = gb.Matrix((self.vals, (self.rows, self.cols)), shape=shape, dtype=float)
        laps.append(clock())
        ml = gb.Matrix(self.lists, shape=shape, dtype=float)
        laps.append(clock())
        for i, j, v in self.mutations:
            m[i, j] = v
        laps.append(clock())
        with gb.ArithmeticSemiring:
            first[None] = m.T @ u
        laps.append(clock())
        with gb.ArithmeticSemiring:
            again[None] = m.T @ u
        laps.append(clock())
        coo = m.to_coo()
        laps.append(clock())
        for name, t0, t1 in zip(self.steps, laps, laps[1:]):
            self.step_ns[name].append(t1 - t0)
        return a, b, ml, coo, first, again

    def digest(self, kind: str, out) -> bytes:
        a, b, ml, coo, first, again = out
        return _digest(
            *a.to_coo(), *b.to_coo(), *ml.to_coo(), *coo, *first.to_coo(), *again.to_coo()
        )

    def verify(self, kind: str, out) -> bool:
        import oracle

        a, b, ml, coo, first, again = out
        original = {
            (i, j): v for i, j, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())
        }
        mutated = dict(original)
        for i, j, v in self.mutations:
            mutated[(i, j)] = v
        return (
            all(oracle.check_matrix(original, *x.to_coo()) for x in (a, b, ml))
            and oracle.check_matrix(mutated, *coo)
            and all(
                oracle.check_transposed_matvec(self.n, mutated, self.u, *w.to_coo())
                for w in (first, again)
            )
        )

    def summarise(self, samples: dict) -> tuple[dict, dict]:
        cycles = samples["cycle"]
        return {"cycle_p50_ms": S.ms(S.median(cycles))}, {"cycle_p50_ms": f"{len(cycles)} samples"}

    def plain_layers(self, samples: dict, rounds: int) -> dict:
        """The cycle's own lap timers over the last *rounds* cycles."""
        med = {k: S.median(v[-rounds:]) for k, v in self.step_ns.items()}
        return {
            "io.mmread_ms": S.ms(med["mmread"]),
            "io.mmread_fast_ms": S.ms(med["mmread_fast"]),
            "core.from_numpy_ms": S.ms(med["from_numpy"]),
            "core.from_lists_ms": S.ms(med["from_lists"]),
            "core.setitem_us": med["setitem"] / 1e3 / self.p["mutations"],
            "backend.first_use_ms": S.ms(med["first_use"] - med["steady_use"]),
            "jit.steady_use_ms": S.ms(med["steady_use"]),
            "core.extract_ms": S.ms(med["extract"]),
        }

    def work_pid(self) -> int:
        return os.getpid()

    def close(self) -> None:
        self.path.unlink(missing_ok=True)
