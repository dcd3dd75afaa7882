"""One workload in one fresh process (spawned by ``run.py``).

Prints two JSON lines on stdout: ``{"event": "ready", ...}`` when
set-up is over (import, input build, server boot, the first unit of
every kind), and ``{"event": "done", ...}`` with the measurements.
With ``--mode setup`` the process exits after the first line: that is
how ``run.py`` samples set-up time more than once per run.

End-to-end numbers are measured with tracing off, in a window cut into
slices with a host-speed sample at every boundary, and reported at
reference host speed (``hostspeed.py``).  ``--trace 1`` runs a short
plain window and then a traced one, for the per-layer numbers; those are
as the clock read them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import json
import math
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed
import probe
import summary as S

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the first seconds of a cpp process show stalls of tens of ms on calls
#: that take 1-3 ms; warm-up must outlast them
WARMUP_SECONDS = 3.0
WARMUP_UNITS = 20
#: spans kept per traced run stay bounded whatever ``--seconds`` is
MAX_TRACED_ROUNDS = 150
SERVICE_LAYER_SAMPLE = 40
STALL_FACTOR = 10


class Ledger:
    """Counts units, keeps the timed samples of the current window, and
    remembers one output per distinct hash for the oracle."""

    def __init__(self, suite):
        self.suite = suite
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.spans: list = []  # (key, t0, t1) of the window's units
        self.marks: list = []  # (start, ns, end) of the window's host-speed samples
        self.cpu_ns = 0.0  # processor time the work took over the window
        self.seen: dict = {}  # key -> {digest: [count, output]}
        self._lock = threading.Lock()  # service_mix records from every client thread

    def reset_window(self) -> None:
        self.samples = {}
        self.spans = []
        self.marks = []

    def sliced(self, drive, seconds: float) -> None:
        """*drive* for *seconds*, in slices with a host-speed sample at
        every boundary (never while a unit runs)."""
        clock = time.perf_counter_ns

        def mark():
            t0 = clock()
            self.marks.append((t0, hostspeed.sample(), clock()))

        pid = self.suite.work_pid()
        cpu = hostspeed.cpu_seconds(pid)
        end = time.perf_counter() + seconds
        mark()
        while (left := end - time.perf_counter()) > 0:
            drive(min(left, hostspeed.SLICE_SECONDS))
            mark()
        self.cpu_ns = (hostspeed.cpu_seconds(pid) - cpu) * 1e9

    def speed_factors(self) -> list[float]:
        """Per slice: how much slower than the reference box the host
        ran, from the samples on either side of the slice."""
        cal = [ns for _, ns, _ in self.marks]
        return [(a + b) / 2 / hostspeed.REFERENCE_NS for a, b in zip(cal, cal[1:])]

    def cpu_share(self) -> float:
        """Share of the window's unit time that was processor time of
        the process doing the work: only that share moves with host
        speed.  1 for the in-process workloads (their OpenMP threads
        push it past 1); about 0.37 on ``service_mix``, whose round trips
        mostly wait (batching window, the other client's turn)."""
        return min(self.cpu_ns / sum(t1 - t0 for _, t0, t1 in self.spans), 1.0)

    def at_reference_speed(self) -> tuple[dict, float]:
        """The window of :meth:`sliced` with the host's speed taken out
        of the processor-time share of every unit: ``{key: [ns, ...]}``,
        and the window's length in seconds, scaled likewise."""
        share = self.cpu_share()
        scales = [1 - share * (1 - 1 / f) for f in self.speed_factors()]
        starts = [end for _, _, end in self.marks[:-1]]
        scaled: dict = {}
        for key, t0, t1 in self.spans:
            # a unit belongs to the last slice that started before it did
            k = max(bisect.bisect_right(starts, t0) - 1, 0)
            scaled.setdefault(key, []).append((t1 - t0) * scales[k])
        seconds = sum(
            (nxt[0] - cur[2]) * x for cur, nxt, x in zip(self.marks, self.marks[1:], scales)
        ) / 1e9
        return scaled, seconds

    def record(self, key, t0: int, t1: int, out, error: bool = False) -> None:
        """File one finished unit; hashing happens here, after *t1*."""
        digest = None if error else self.suite.digest(key, out)
        with self._lock:
            self.attempted += 1
            if digest is None:
                self.failed += 1
                return
            self.samples.setdefault(key, []).append(t1 - t0)
            self.spans.append((key, t0, t1))
            entry = self.seen.setdefault(key, {}).setdefault(digest, [0, out])
            entry[0] += 1

    def unit(self, kind: str) -> None:
        clock = time.perf_counter_ns
        t0 = clock()
        try:
            out = self.suite.run(kind)
        except Exception:
            t1 = clock()
            if not self.failed:
                traceback.print_exc()
            self.record(kind, t0, t1, None, error=True)
        else:
            self.record(kind, t0, clock(), out)

    def rounds(self, seconds: float = math.inf, min_units: int = 0, max_rounds=math.inf) -> int:
        """Whole rounds until *seconds* have passed and *min_units* units
        ran, or *max_rounds* rounds did; returns the number of rounds."""
        start, done = time.perf_counter(), 0
        per_round = len(self.suite.kinds)
        while done < max_rounds and (
            time.perf_counter() - start < seconds or done * per_round < min_units
        ):
            for kind in self.suite.kinds:
                self.unit(kind)
            done += 1
        return done

    def verify(self, corrupt: bool) -> None:
        """Ask the oracle about every distinct output; units whose hash
        belongs to a wrong output count as failed.  *corrupt* (self-test)
        spoils the first expectation, as a wrong oracle entry would."""
        for key, outputs in self.seen.items():
            for count, out in outputs.values():
                try:
                    ok = self.suite.verify(key, out)
                except Exception:
                    traceback.print_exc()
                    ok = False
                if corrupt:
                    ok, corrupt = False, False
                if not ok:
                    print(f"oracle disagrees on {key}: {count} unit(s)", file=sys.stderr)
                    self.failed += count


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(event: str, **payload) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


# ----------------------------------------------------------------------
# per-layer numbers (traced run)
# ----------------------------------------------------------------------


def traced_cpp(suite, ledger: Ledger, seconds: float, tmp: Path, trace_out: Path) -> dict:
    """Plain window, then the same rounds on the probed stack inside
    ``gb.tracing()``; returns the per-layer metrics."""
    import repro as gb
    from repro import schedule, tiling

    def round_walls() -> list[int]:
        per_round, spans = len(suite.kinds), ledger.spans
        return [
            sum(t1 - t0 for _, t0, t1 in spans[i : i + per_round])
            for i in range(0, len(spans) - per_round + 1, per_round)
        ]

    ledger.reset_window()
    ledger.sliced(ledger.rounds, seconds / 2)
    plain = round_walls()
    layers = suite.plain_layers(ledger.samples, len(plain))
    layers["host.speed_factor"] = S.median(ledger.speed_factors())
    layers["host.cpu_share"] = ledger.cpu_share()

    records: list = []
    engine, cpp = probe.probed_cpp_stack(records)
    program = tmp / "program.trace.json"
    with gb.use_engine(engine):
        ledger.rounds(max_rounds=2)  # this engine object loads its modules
        ledger.reset_window()
        del records[:]
        before = (schedule.stats(), tiling.stats(), cpp.cache.stats.snapshot())
        with gb.tracing(chrome=str(program)) as tracer:
            rounds = ledger.rounds(seconds / 2, max_rounds=MAX_TRACED_ROUNDS)
        after = (schedule.stats(), tiling.stats(), cpp.cache.stats.snapshot())
    traced = round_walls()
    wall = sum(traced)

    tid = threading.get_ident() & 0xFFFFFFFF
    units = [probe.Span(probe.UNIT, k, tid, t0, t1, cat="unit") for k, t0, t1 in ledger.spans]
    probes = probe.from_probe(records)
    spans = probes + probe.load_program_spans(program)
    program.unlink()
    export_trace(units + spans, trace_out)
    own = probe.self_times(probe.build_forest(spans, units))

    def per_round_ms(layer: str) -> float:
        return S.ms(own.get(layer, 0.0)) / rounds

    # two ways the split could be wrong: attributed self times that do
    # not add up to the wall, and FFI spans of the program's own
    # aggregate that never found a place in the tree
    ffi_total = tracer.stats.snapshot()["ffi"]["total_ns"]
    ffi_in_tree = sum(s.dur for s in spans if s.layer == "jit.ffi" and s.parent is not None)
    closure = max(abs(sum(own.values()) - wall), abs(ffi_in_tree - ffi_total)) / wall
    if closure > 0.02:
        raise RuntimeError(
            f"per-layer self times do not add up: off by {closure:.1%} of the round wall "
            f"(layers {sum(own.values()):.0f} ns, wall {wall} ns, "
            f"ffi spans in tree {ffi_in_tree} ns, ffi.total_ns {ffi_total} ns)"
        )

    jit = [s for s in probes if s.layer == "jit"]
    by_op: dict[str, list] = {}
    for s in jit:
        by_op.setdefault(s.op, []).append(s.dur)
    stalls = sum(
        sum(d > STALL_FACTOR * S.median(durs) for d in durs) for durs in by_op.values()
    )
    layers.update({
        "core.self_ms": per_round_ms(probe.UNIT),
        "core.dispatches": sum(s.layer == "guard" for s in probes) / rounds,
        "obs.self_ms": per_round_ms("obs"),
        "guard.self_ms": per_round_ms("guard"),
        "partitioned.self_ms": per_round_ms("partitioned"),
        "resilient.self_ms": per_round_ms("resilient"),
        "jit.self_ms": per_round_ms("jit"),
        "jit.lookup_ms": per_round_ms("jit.lookup"),
        "jit.ffi_ms": per_round_ms("jit.ffi"),
        "jit.kernel_ms": per_round_ms("jit.kernel"),
        "jit.kernel_share": own.get("jit.kernel", 0.0) / wall,
        "jit.stall_ratio": stalls / max(len(jit), 1),
        "layers.closure_error": closure,
        "obs.trace_overhead_ratio": S.median(traced) / S.median(plain),
        "obs.untraced_round_ms": S.ms(S.median(plain)),
        "schedule.edges_examined": (after[0]["edges_total"] - before[0]["edges_total"]) / rounds,
        "schedule.switches": (after[0]["switches"] - before[0]["switches"]) / rounds,
        "tiling.tiled_dispatches":
            (after[1]["partitioned_total"] - before[1]["partitioned_total"]) / rounds,
        "jit.memory_hits": (after[2]["memory_hits"] - before[2]["memory_hits"]) / rounds,
    })
    for family in probe.FAMILIES:
        durs = [s.dur for s in jit if probe.op_family(s.op) == family]
        layers[f"op.{family}_us"] = sum(durs) / len(durs) / 1e3 if durs else 0.0
    return layers


def export_trace(spans, path: Path) -> None:
    """Probe, unit and program spans as one Chrome ``trace_event`` file,
    checked with the repository's own nesting validator when present."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "traceEvents": probe.chrome_events(spans, os.getpid()),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "bench_e2e"},
    }))
    validator = ROOT / "benchmarks" / "validate_trace.py"
    if validator.exists():
        import importlib.util

        spec = importlib.util.spec_from_file_location("validate_trace", validator)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with contextlib.redirect_stdout(sys.stderr):
            if module.validate(str(path)) != 0:
                raise RuntimeError(f"{path} failed benchmarks/validate_trace.py")


def cache_tiers(suite, tmp: Path) -> dict:
    """Cold compile (empty cache directory) and disk tier (fresh engine,
    memory tier cleared): one round each."""
    import repro as gb
    from repro.jit.cache import JitCache, default_cache

    def one_round(cache) -> tuple[float, dict]:
        engine, cpp = probe.probed_cpp_stack([], cache)
        before = cpp.cache.stats.snapshot()
        t0 = time.perf_counter()
        with gb.use_engine(engine):
            for kind in suite.kinds:
                suite.run(kind)
        wall = time.perf_counter() - t0
        after = cpp.cache.stats.snapshot()
        return wall, {k: after[k] - before[k] for k in ("compiles", "disk_hits", "catalog_hits")}

    cold_s, cold = one_round(JitCache(tmp / "cold-cache"))
    default_cache().clear_memory()
    disk_s, disk = one_round(None)
    return {
        "jit.cold_compile_s": cold_s,
        "jit.compiles": cold["compiles"],
        "jit.disk_first_round_ms": disk_s * 1e3,
        "jit.disk_hits": disk["disk_hits"],
        "jit.catalog_hits": disk["catalog_hits"],
    }


def traced_service(suite, ledger: Ledger, seconds: float) -> dict:
    import service

    ledger.reset_window()
    before = suite.server_stats()
    ledger.sliced(functools.partial(suite.run_clients, ledger), seconds / 2)
    after = suite.server_stats()
    delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
    layers = {f"service.{k}_p50_ms": v for k, v in service.per_algorithm_ms(ledger.samples).items()}
    layers.update({
        "service.fused_ratio": delta["fused_sources"] / max(delta["requests"], 1),
        "service.mean_batch": delta["requests"] / max(delta["batches"], 1),
        "service.timeouts": delta["timeouts"],
        "service.protocol_errors": delta["protocol_errors"],
    })
    layers["host.speed_factor"] = S.median(ledger.speed_factors())
    layers["host.cpu_share"] = ledger.cpu_share()
    layers.update(suite.layer_medians(SERVICE_LAYER_SAMPLE))
    return layers


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(1, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401 - timed: the import is part of set-up
    import repro as gb
    import workloads

    t1 = time.perf_counter()
    workload = workloads.BY_NAME[args.workload]
    suite = workloads.make_suite(workload, args.seed, args.tmp)
    is_service = workload.suite == "ServiceMix"
    ledger = Ledger(suite)
    try:
        if suite.engine:
            gb.use_engine(suite.engine)
        suite.build_inputs()
        t3 = t2 = time.perf_counter()
        if is_service:
            suite.boot()
            t3 = time.perf_counter()
            suite.first_of_each(ledger)
            drive = functools.partial(suite.run_clients, ledger)
        else:
            ledger.rounds(max_rounds=1)
            drive = ledger.rounds
        t4 = time.perf_counter()
        setup = {
            "setup.import_s": t1 - t0, "setup.inputs_s": t2 - t1,
            "setup.boot_s": t3 - t2, "setup.jit_s": t4 - t3,
            "interpreter_s": t0 - T_START,
        }
        emit("ready", **setup, host_ns=hostspeed.sample())
        if args.mode == "setup":
            return 0 if not ledger.failed else 1

        drive(WARMUP_SECONDS, WARMUP_UNITS)
        layers, metrics, notes, unscaled = {}, {}, {}, {}
        if args.trace and is_service:
            layers = traced_service(suite, ledger, args.seconds)
        elif args.trace:
            layers = traced_cpp(suite, ledger, args.seconds, args.tmp, args.trace_out)
            layers.update(cache_tiers(suite, args.tmp))
        else:
            ledger.reset_window()
            ledger.sliced(drive, args.seconds)
            samples, elapsed = ledger.at_reference_speed()
            metrics, notes = suite.summarise(samples)
            metrics["requests_per_s"] = sum(len(v) for v in samples.values()) / elapsed
            # for the record only: the same numbers as the clock read them
            unscaled = suite.summarise(ledger.samples)[0]
            unscaled["host.speed_factor"] = S.median(ledger.speed_factors())
            unscaled["host.cpu_share"] = ledger.cpu_share()
        peak = rss_mb()
    finally:
        suite.close()
    peak += getattr(suite, "server_rss_mb", 0.0)

    ledger.verify(args.corrupt_oracle)
    layers.update({k: v for k, v in setup.items() if k.startswith("setup.")})
    layers["fail_ratio"] = ledger.failed / ledger.attempted
    metrics["peak_rss_mb"] = peak
    from repro.jit.cppengine import openmp_available

    emit("done", attempted=ledger.attempted, failed=ledger.failed, metrics=metrics,
         unscaled=unscaled, notes=notes, layers=layers, clients=getattr(suite, "clients", 1),
         openmp=openmp_available())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
