"""Counters of a row-tile fan-out that no longer exists: nothing partitions."""

# kept for bench_e2e/worker.py's traced mode until ROADMAP 3a deletes it


def stats() -> dict:
    return {"partitioned_total": 0}
