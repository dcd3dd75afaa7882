#!/usr/bin/env python3
"""End-to-end benchmark of the repository, measured from outside.

    python3 bench_e2e/run.py [--workload NAME] [--seed 42] [--seconds 18] [--trace 0|1]
    python3 bench_e2e/run.py --check-repeat

Every workload runs in fresh worker processes (``worker.py``) with the
program's default settings; the only ``PYGB_*`` variable set is the JIT
cache directory, a private copy per process of a cache compiled once per
checkout.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones; both print every
metric by name with its unit, check the outputs against an independent
oracle, write one JSON file under ``bench_e2e/out/``, and end with the
one-line result object the benchmark contract asks for.

See ``README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import summary
from workloads import BY_NAME, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = ROOT / ".bench_build" / "bench_e2e"
SEED_CACHE = BUILD / "cache-seed"
OUT = HERE / "out"

#: set-up is sampled this many times per run (fresh process each) and the
#: median reported, so one slow process start cannot move ``setup_s``
SETUP_SAMPLES = 5
RUN_TIMEOUT = 170
BUILD_TIMEOUT = 850

_children: list[subprocess.Popen] = []


def die(message: str, code: int = 2):
    print(f"bench_e2e: {message}", file=sys.stderr)
    raise SystemExit(code)


def check_environment() -> None:
    """Every number must be the program's defaults."""
    knobs = sorted(k for k in os.environ if k.startswith(("PYGB_", "OMP_")))
    if knobs:
        die(f"refusing to run with {', '.join(knobs)} set: unset them, the benchmark "
            "measures the program's default settings")
    if not (ROOT / "src" / "repro").is_dir():
        die(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
    try:
        import oracle

        oracle.require()
    except ImportError as exc:
        die(f"the oracle needs scipy and networkx ({exc}); refusing to run unchecked")


def _on_alarm(signum, frame):
    for child in _children:
        child.kill()
    die("timed out", 3)


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int, mode: str, cache: Path,
          tmp: Path, extra=()) -> tuple[float, dict, dict | None]:
    """Run one worker; returns (seconds from spawn to its ``ready``
    line at reference host speed, the ready payload, the done payload or
    None in set-up mode)."""
    tmp.mkdir(parents=True, exist_ok=True)
    # TMPDIR: the program's compiler probes write temporary files; keep
    # them inside the checkout like everything else
    env = dict(os.environ, PYGB_CACHE_DIR=str(cache), TMPDIR=str(tmp))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--mode", mode, "--tmp", str(tmp),
           "--trace-out", str(OUT / f"{workload}.trace.json"), *extra]
    host_ns = hostspeed.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    _children.append(proc)
    ready = done = None
    ready_s = 0.0
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                ready_s, ready = time.perf_counter() - t0, event
            elif event["event"] == "done":
                done = event
    finally:
        proc.stdout.close()
        code = proc.wait()
        _children.remove(proc)
    if code != 0 or ready is None or (mode == "full" and done is None):
        die(f"worker for {workload} failed (exit {code})", 1)
    # host speed over the set-up: this process's sample before the spawn
    # and the worker's own at its ready line
    factor = (host_ns + ready.pop("host_ns")) / 2 / hostspeed.REFERENCE_NS
    ready["unscaled_s"] = ready_s
    return ready_s / factor, ready, done


def private_cache(tmp: Path, tag: str) -> Path:
    """A worker's own copy of the compiled-once cache: every process
    starts from the same disk state and leaves nothing for the next."""
    target = tmp / f"cache-{tag}"
    shutil.copytree(SEED_CACHE, target)
    return target


def ensure_build(seed: int) -> None:
    """Compile the kernels of every workload once per checkout.  A cold
    JIT of one workload takes ~10 s here; paying it in every run would
    leave no time to measure.  What a cold compile costs is still
    reported, by the traced run (``jit.cold_compile_s``)."""
    if SEED_CACHE.is_dir():
        return
    print("bench_e2e: first run in this checkout, compiling kernels ...", file=sys.stderr)
    signal.alarm(BUILD_TIMEOUT)
    staging = BUILD / f"cache-seed.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    for w in WORKLOADS:
        spawn(w.name, seed, 1, 1, "full", staging, BUILD / f"build-{os.getpid()}")
    shutil.rmtree(BUILD / f"build-{os.getpid()}", ignore_errors=True)
    try:
        staging.rename(SEED_CACHE)
    except OSError:  # another run in this checkout finished the build first
        shutil.rmtree(staging, ignore_errors=True)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------


@functools.cache
def host_block() -> dict:
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            return "unknown"

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cxx": first_line(["g++", "--version"]),
        "git": first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, corrupt: bool) -> dict:
    """All processes of one run; returns the record written to ``out/``."""
    signal.alarm(RUN_TIMEOUT)
    workload = BY_NAME[name]
    tmp = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    extra = ["--corrupt-oracle"] if corrupt else []
    try:
        setups, unscaled_setups = [], []
        for k in range(0 if trace else SETUP_SAMPLES - 1):
            ready_s, ready, _ = spawn(
                name, seed, seconds, 0, "setup", private_cache(tmp, str(k)), tmp
            )
            setups.append(ready_s)
            unscaled_setups.append(ready["unscaled_s"])
        ready_s, ready, done = spawn(
            name, seed, seconds, trace, "full", private_cache(tmp, "full"), tmp, extra
        )
        setups.append(ready_s)
        unscaled_setups.append(ready["unscaled_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        signal.alarm(0)

    if trace:
        metrics = {m["name"]: float(done["layers"].get(m["name"], 0.0)) for m in SPEC["per_layer"]}
        unknown = sorted(set(done["layers"]) - set(metrics))
        if unknown:
            die(f"worker reported per-layer metrics BENCHMARK.json does not list: {unknown}", 1)
        stands_in = set()
    else:
        native = dict(done["metrics"], setup_s=summary.median(setups))
        primary = native[workload.primary]
        metrics = {m["name"]: float(native.get(m["name"], primary)) for m in SPEC["end_to_end"]}
        stands_in = set(metrics) - set(native)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "clients": done["clients"],
        "attempted": done["attempted"],
        "failed": done["failed"],
        "metrics": metrics,
        "unscaled": dict(done["unscaled"], setup_s=summary.median(unscaled_setups)),
        "stands_in": sorted(stands_in),
        "primary": workload.primary,
        "notes": done["notes"],
        "setup_samples_s": setups,
        "setup_split_s": {k: v for k, v in ready.items() if k != "event"},
        "host": {**host_block(), "openmp": done["openmp"]},
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then the contract's result line."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if record["trace"] else "end_to_end"]}
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}  "
          f"trace={record['trace']}  clients={record['clients']}")
    for name, value in record["metrics"].items():
        note = ""
        if name in record["stands_in"]:
            note = f"  (= {record['primary']}: does not apply to this workload)"
        elif name in record["notes"]:
            note = f"  ({record['notes'][name]})"
        print(f"{name:32s} {value:14.6g} {units[name]}{note}")
    if not record["trace"]:  # the contract forbids an end-to-end metric that reads 0
        ratio = record["failed"] / record["attempted"]
        print(f"{'fail_ratio':32s} {ratio:14.6g} ratio")
    print(f"{record['failed']} of {record['attempted']} units failed")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}{'.layers' if record['trace'] else ''}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }), flush=True)


def check_repeat(names, seed: int, seconds: float) -> int:
    """Two full sets back to back; every (workload, end-to-end metric)
    the workload produces itself must agree within the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    sets = [{n: run_workload(n, seed, seconds, 0, False) for n in names} for _ in range(2)]
    breaches = 0
    print(f"{'workload':14s} {'metric':24s} {'first':>12s} {'second':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for n in names:
        for metric, bound in bounds.items():
            if metric in sets[0][n]["stands_in"]:
                continue
            a, b = (s[n]["metrics"][metric] for s in sets)
            diff = abs(b - a) / a
            breach = diff > bound
            breaches += breach
            print(f"{n:14s} {metric:24s} {a:12.5g} {b:12.5g} {diff:8.2%} {bound:6.0%}"
                  f"{'  BREACH' if breach else ''}")
    failed = sum(s[n]["failed"] for s in sets for n in names)
    print(f"{breaches} breach(es), {failed} failed unit(s)")
    return 1 if breaches or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="timed window per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: report the per-layer metrics from a traced run")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and compare them against the bounds")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: spoil one oracle expectation; the run must fail")
    args = parser.parse_args(argv)

    check_environment()
    signal.signal(signal.SIGALRM, _on_alarm)
    ensure_build(args.seed)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    if args.check_repeat:
        return check_repeat(names, args.seed, args.seconds)
    failed = 0
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.corrupt_oracle)
        report(record)
        failed += record["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
