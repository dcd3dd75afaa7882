"""Order statistics used by every workload."""

from __future__ import annotations

import math
import statistics

median = statistics.median
geomean = statistics.geometric_mean


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of *samples*."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


def beyond(samples, p: float) -> int:
    """How many samples lie beyond the nearest-rank *p*-th percentile.
    A tail percentile is only trusted with at least ten."""
    return len(samples) - max(math.ceil(p / 100.0 * len(samples)), 1)


def ms(ns: float) -> float:
    return ns / 1e6
