"""Aggregated counters and latency histograms for the tracing layer.

Spans recorded by :class:`~repro.obs.tracer.Tracer` fold into a
:class:`StatsAggregator`: per-op call counts, per-engine splits, fused
counts, total time, and a log₂-bucketed latency histogram per op (64
fixed buckets — bounded memory no matter how many spans arrive, with
p50/p99 read back as the geometric midpoint of the containing bucket).

Aggregates persist as a JSON file (``$PYGB_STATS``; default
``<cache_dir>/stats.json``) written at interpreter exit and *merged*
into whatever is already on disk, so a sequence of runs accumulates and
``python -m repro stats`` can report on workloads that ran in earlier
processes.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .. import config

__all__ = [
    "StatsAggregator",
    "hist_bucket",
    "quantile_ns",
    "quantiles_ms",
    "default_stats_path",
    "load_stats",
    "persist_stats",
    "merge_stats",
    "render_stats",
]

#: log2 latency buckets: bucket i counts spans with duration in
#: [2^(i-1), 2^i) nanoseconds (bucket 0 is [0, 1) ns); 64 buckets cover
#: every representable int64 duration
HIST_BUCKETS = 64


def hist_bucket(dur_ns) -> int:
    """The histogram bucket of a duration in nanoseconds."""
    return min(max(int(dur_ns), 0).bit_length(), HIST_BUCKETS - 1)


_SCHEMA_VERSION = 1


def _new_op_entry() -> dict:
    return {
        "count": 0,
        "total_ns": 0,
        "fused": 0,
        "engines": {},
        "hist": [0] * HIST_BUCKETS,
    }


class StatsAggregator:
    """Thread-safe fold of spans and events into bounded-size aggregates."""

    def __init__(self):
        self._lock = threading.Lock()
        self.ops: dict[str, dict] = {}
        self.cache_events: dict[str, int] = {}
        self.ffi: dict = {"calls": 0, "total_ns": 0, "kernel_ns": 0}
        self.schedule: dict = {"directions": {}, "chosen_by": {}, "switches": 0}
        self.guard: dict[str, int] = {}
        self.service: dict = {
            "requests": 0,
            "batches": 0,
            "batched_requests": 0,
            "timeouts": 0,
            "errors": 0,
        }
        #: per served batch: queue wait of its oldest request, execute time
        self.service_latency = {k: [0] * HIST_BUCKETS for k in ("queue_wait", "execute")}

    def note_span(self, name: str, cat: str, dur_ns: int, attrs: dict) -> None:
        bucket = hist_bucket(dur_ns)
        with self._lock:
            if cat == "op":
                entry = self.ops.get(name)
                if entry is None:
                    entry = self.ops[name] = _new_op_entry()
                entry["count"] += 1
                entry["total_ns"] += int(dur_ns)
                entry["hist"][bucket] += 1
                if attrs.get("fused"):
                    entry["fused"] += 1
                engine = attrs.get("engine", "?")
                entry["engines"][engine] = entry["engines"].get(engine, 0) + 1
                direction = attrs.get("direction")
                if direction is not None:
                    dirs = self.schedule["directions"]
                    dirs[direction] = dirs.get(direction, 0) + 1
                    chosen = attrs.get("chosen_by") or "?"
                    by = self.schedule["chosen_by"]
                    by[chosen] = by.get(chosen, 0) + 1
            elif cat == "ffi":
                self.ffi["calls"] += 1
                self.ffi["total_ns"] += int(dur_ns)
                kernel = attrs.get("kernel_ns")
                if kernel is not None and kernel >= 0:
                    self.ffi["kernel_ns"] += int(kernel)
            elif name == "service.execute":
                self.service_latency["execute"][bucket] += 1
                self.service_latency["queue_wait"][hist_bucket(attrs.get("wait_ns", 0))] += 1

    def note_event(self, name: str, cat: str, attrs: dict) -> None:
        if cat == "cache":
            with self._lock:
                self.cache_events[name] = self.cache_events.get(name, 0) + 1
        elif cat == "schedule":
            if name == "schedule.switch":
                with self._lock:
                    self.schedule["switches"] += 1
        elif cat == "guard":
            # guard.timeout / guard.cancel
            with self._lock:
                self.guard[name] = self.guard.get(name, 0) + 1
        elif cat == "service":
            with self._lock:
                if name == "service.request":
                    self.service["requests"] += 1
                elif name == "service.batch":
                    self.service["batches"] += 1
                    size = int(attrs.get("size") or 0)
                    if size > 1:
                        self.service["batched_requests"] += size
                elif name == "service.timeout":
                    self.service["timeouts"] += int(attrs.get("size") or 1)
                elif name == "service.error":
                    self.service["errors"] += int(attrs.get("size") or 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "version": _SCHEMA_VERSION,
                "ops": {
                    name: {
                        "count": e["count"],
                        "total_ns": e["total_ns"],
                        "fused": e["fused"],
                        "engines": dict(e["engines"]),
                        "hist": list(e["hist"]),
                    }
                    for name, e in self.ops.items()
                },
                "cache_events": dict(self.cache_events),
                "ffi": dict(self.ffi),
                "schedule": {
                    "directions": dict(self.schedule["directions"]),
                    "chosen_by": dict(self.schedule["chosen_by"]),
                    "switches": self.schedule["switches"],
                },
                "guard": dict(self.guard),
                "service": dict(self.service),
                "service_latency": {k: list(h) for k, h in self.service_latency.items()},
            }


def quantile_ns(hist: list[int], q: float) -> float:
    """Approximate the *q*-quantile (0 < q <= 1) of a log₂ histogram:
    the geometric midpoint of the bucket containing the q-th sample."""
    total = sum(hist)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, count in enumerate(hist):
        seen += count
        if seen >= target:
            lo = 0.0 if i == 0 else float(2 ** (i - 1))
            hi = float(2**i)
            return (lo + hi) / 2.0
    return float(2 ** (len(hist) - 1))  # pragma: no cover - seen >= target above


def quantiles_ms(hist: list[int]) -> dict:
    """``{p50, p95, p99, n}`` of a nanosecond histogram, in milliseconds."""
    return {**{f"p{q}": quantile_ns(hist, q / 100) / 1e6 for q in (50, 95, 99)}, "n": sum(hist)}


def service_latency_line(data: dict) -> str | None:
    """The two medians of a served batch, for ``repro stats`` and ``doctor``."""
    hists = data.get("service_latency")
    if not hists or not sum(hists["execute"]):
        return None
    wait, run = quantiles_ms(hists["queue_wait"]), quantiles_ms(hists["execute"])
    return (
        f"service latency: queue wait p50 {wait['p50']:.2f} ms, "
        f"execute p50 {run['p50']:.2f} ms over {run['n']} batches"
    )


def default_stats_path() -> Path:
    """``$PYGB_STATS`` when it names a path; otherwise
    ``<cache_dir>/stats.json`` next to the JIT artifacts."""
    env = config.current().stats
    if env and env.lower() not in ("1", "true", "yes", "on"):
        return Path(env)
    from ..jit.cache import _default_cache_dir

    return _default_cache_dir() / "stats.json"


def load_stats(path: str | os.PathLike | None = None) -> dict | None:
    p = Path(path) if path is not None else default_stats_path()
    try:
        data = json.loads(p.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def merge_stats(base: dict, extra: dict) -> dict:
    """Fold *extra* (a snapshot) into *base* (a previous snapshot)."""
    out = {
        "version": _SCHEMA_VERSION,
        "ops": {k: dict(v) for k, v in base.get("ops", {}).items()},
        "cache_events": dict(base.get("cache_events", {})),
        "ffi": dict(base.get("ffi", {"calls": 0, "total_ns": 0, "kernel_ns": 0})),
    }
    for name, e in extra.get("ops", {}).items():
        cur = out["ops"].get(name)
        if cur is None:
            out["ops"][name] = {
                "count": e["count"],
                "total_ns": e["total_ns"],
                "fused": e.get("fused", 0),
                "engines": dict(e.get("engines", {})),
                "hist": list(e.get("hist", [0] * HIST_BUCKETS)),
            }
            continue
        cur["count"] = cur.get("count", 0) + e["count"]
        cur["total_ns"] = cur.get("total_ns", 0) + e["total_ns"]
        cur["fused"] = cur.get("fused", 0) + e.get("fused", 0)
        engines = dict(cur.get("engines", {}))
        for eng, n in e.get("engines", {}).items():
            engines[eng] = engines.get(eng, 0) + n
        cur["engines"] = engines
        hist = list(cur.get("hist", [0] * HIST_BUCKETS))
        for i, n in enumerate(e.get("hist", [])):
            if i < len(hist):
                hist[i] += n
        cur["hist"] = hist
    for name, n in extra.get("cache_events", {}).items():
        out["cache_events"][name] = out["cache_events"].get(name, 0) + n
    for key, n in extra.get("ffi", {}).items():
        out["ffi"][key] = out["ffi"].get(key, 0) + n
    base_sched = base.get("schedule", {})
    extra_sched = extra.get("schedule", {})
    sched = {
        "directions": dict(base_sched.get("directions", {})),
        "chosen_by": dict(base_sched.get("chosen_by", {})),
        "switches": base_sched.get("switches", 0),
    }
    for key, n in extra_sched.get("directions", {}).items():
        sched["directions"][key] = sched["directions"].get(key, 0) + n
    for key, n in extra_sched.get("chosen_by", {}).items():
        sched["chosen_by"][key] = sched["chosen_by"].get(key, 0) + n
    sched["switches"] += extra_sched.get("switches", 0)
    out["schedule"] = sched
    guard = dict(base.get("guard", {}))
    for key, n in extra.get("guard", {}).items():
        guard[key] = guard.get(key, 0) + n
    out["guard"] = guard
    service = dict(base.get("service", {}))
    for key, n in extra.get("service", {}).items():
        service[key] = service.get(key, 0) + n
    out["service"] = service
    latency = {k: list(h) for k, h in base.get("service_latency", {}).items()}
    for k, h in extra.get("service_latency", {}).items():
        latency[k] = [a + b for a, b in zip(latency.get(k, [0] * len(h)), h)]
    out["service_latency"] = latency
    return out


def persist_stats(snapshot: dict, path: str | os.PathLike | None = None) -> Path | None:
    """Merge *snapshot* into the stats file (atomic replace); best-effort —
    an unwritable location loses the stats, never the workload."""
    p = Path(path) if path is not None else default_stats_path()
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        existing = load_stats(p)
        merged = merge_stats(existing, snapshot) if existing else snapshot
        tmp = p.with_name(f"{p.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, p)
        return p
    except OSError:
        return None


def render_stats(data: dict, cache_stats: dict | None = None) -> str:
    """Human-readable report: per-op counts, engine split, cache hit
    ratio, and p50/p99 latencies (the `python -m repro stats` body)."""
    lines: list[str] = []
    ops = data.get("ops", {})
    if not ops:
        lines.append("no operation spans recorded")
    else:
        total_calls = sum(e["count"] for e in ops.values())
        total_ns = sum(e["total_ns"] for e in ops.values())
        lines.append(
            f"operations: {total_calls} dispatches, "
            f"{total_ns / 1e6:.2f} ms total engine time"
        )
        header = (
            f"  {'op':<28} {'count':>8} {'fused':>6} {'mean_us':>9} "
            f"{'p50_us':>9} {'p99_us':>9}  engines"
        )
        lines.append(header)
        for name in sorted(ops, key=lambda n: -ops[n]["total_ns"]):
            e = ops[name]
            mean = e["total_ns"] / e["count"] / 1e3 if e["count"] else 0.0
            p50 = quantile_ns(e.get("hist", []), 0.50) / 1e3
            p99 = quantile_ns(e.get("hist", []), 0.99) / 1e3
            engines = ",".join(
                f"{eng}:{n}" for eng, n in sorted(e.get("engines", {}).items())
            )
            lines.append(
                f"  {name:<28} {e['count']:>8} {e.get('fused', 0):>6} "
                f"{mean:>9.1f} {p50:>9.1f} {p99:>9.1f}  {engines}"
            )
        engine_totals: dict[str, int] = {}
        for e in ops.values():
            for eng, n in e.get("engines", {}).items():
                engine_totals[eng] = engine_totals.get(eng, 0) + n
        split = ", ".join(
            f"{eng}: {n} ({100.0 * n / total_calls:.1f}%)"
            for eng, n in sorted(engine_totals.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"engine split: {split}")
    sched = data.get("schedule", {})
    if sched.get("directions"):
        dirs = ", ".join(
            f"{d}: {n}" for d, n in sorted(sched["directions"].items(),
                                           key=lambda kv: -kv[1])
        )
        by = ", ".join(
            f"{k}: {n}" for k, n in sorted(sched.get("chosen_by", {}).items(),
                                           key=lambda kv: -kv[1])
        )
        lines.append(
            f"traversal schedule: {dirs}; "
            f"{sched.get('switches', 0)} direction switches"
            + (f"; chosen by {by}" if by else "")
        )
    guard = data.get("guard", {})
    if guard:
        lines.append(
            f"runtime guardrails: {guard.get('guard.timeout', 0)} timeouts, "
            f"{guard.get('guard.cancel', 0)} cancellations"
        )
    service = data.get("service", {})
    if service.get("requests") or service.get("batches"):
        lines.append(
            f"graph service: {service.get('requests', 0)} requests in "
            f"{service.get('batches', 0)} batches "
            f"({service.get('batched_requests', 0)} batched), "
            f"{service.get('timeouts', 0)} timeouts, "
            f"{service.get('errors', 0)} errors"
        )
    if latency := service_latency_line(data):
        lines.append(latency)
    ffi = data.get("ffi", {})
    if ffi.get("calls"):
        total = ffi["total_ns"]
        kernel = ffi["kernel_ns"]
        overhead = max(total - kernel, 0)
        lines.append(
            f"C++ FFI: {ffi['calls']} calls, {total / 1e6:.2f} ms total "
            f"({kernel / 1e6:.2f} ms in-kernel, {overhead / 1e6:.2f} ms "
            f"marshalling/boundary)"
        )
    events = data.get("cache_events", {})
    hits = (events.get("memory_hit", 0) + events.get("catalog_hit", 0)
            + events.get("disk_hit", 0))
    catalog_hits = events.get("catalog_hit", 0)
    lookups = hits + events.get("compile", 0)
    if cache_stats is not None and lookups == 0:
        # the traced workload ran in this process: fall back to the live
        # cache counters
        hits = (cache_stats.get("memory_hits", 0)
                + cache_stats.get("catalog_hits", 0)
                + cache_stats.get("disk_hits", 0))
        catalog_hits = cache_stats.get("catalog_hits", 0)
        lookups = hits + cache_stats.get("compiles", 0)
    if lookups:
        lines.append(
            f"JIT cache: {hits}/{lookups} hits ({100.0 * hits / lookups:.1f}%), "
            f"{catalog_hits} from catalog, "
            f"{events.get('compile', 0)} compiles, "
            f"{events.get('quarantine', 0)} quarantines, "
            f"{events.get('integrity_rebuild', 0)} integrity rebuilds"
        )
    elif events:
        rendered = ", ".join(f"{k}: {n}" for k, n in sorted(events.items()))
        lines.append(f"JIT cache events: {rendered}")
    return "\n".join(lines)
