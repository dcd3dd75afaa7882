#!/usr/bin/env python3
"""Gate the perf trajectory: fail CI when a tracked metric regresses.

Compares a candidate ``BENCH_<sha>.json`` (from ``collect_bench.py``)
against the committed baseline ``benchmarks/bench_baseline.json``.  Every
tracked metric is a deterministic, lower-is-better count (engine
dispatches, layer counters), so the comparison is exact and
machine-independent; wall-clock timings are carried in the bench file for
trajectory plots but never gated.

A candidate value more than ``--threshold`` (default 15%) above the
baseline fails the check.  Improvements are reported and suggest
refreshing the baseline so the ratchet tightens.

Usage::

    python benchmarks/check_regression.py BENCH_abc1234.json
    python benchmarks/check_regression.py --baseline other.json --threshold 0.10 BENCH_x.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "bench_baseline.json"


def compare(baseline: dict, candidate: dict, threshold: float) -> list[str]:
    """Returns a list of failure messages (empty ⇒ pass)."""
    failures = []
    base_metrics = baseline.get("metrics", {})
    cand_metrics = candidate.get("metrics", {})
    for key in baseline.get("tracked", sorted(base_metrics)):
        if key not in base_metrics:
            continue
        if key not in cand_metrics:
            failures.append(f"{key}: missing from candidate (baseline {base_metrics[key]})")
            continue
        base, cand = base_metrics[key], cand_metrics[key]
        limit = base * (1.0 + threshold)
        status = "ok"
        if cand > limit:
            # a zero baseline has no percentage: any count above it fails
            by = f"{(cand / base - 1.0) * 100.0:.1f}%" if base else f"{cand}"
            failures.append(
                f"{key}: {cand} exceeds baseline {base} by "
                f"{by} (limit +{threshold * 100.0:.0f}%)"
            )
            status = "FAIL"
        elif cand < base:
            status = "improved"
        print(f"  {key:45s} {base:>8} -> {cand:>8}  {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("candidate", help="BENCH_<sha>.json produced by collect_bench.py")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="allowed relative increase before failing (default 0.15)",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    candidate = json.loads(Path(args.candidate).read_text())

    print(f"baseline : {baseline_path} (sha {baseline.get('sha', '?')})")
    print(f"candidate: {args.candidate} (sha {candidate.get('sha', '?')})")
    failures = compare(baseline, candidate, args.threshold)
    if failures:
        print(f"\n{len(failures)} tracked metric(s) regressed:", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("\nall tracked metrics within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
