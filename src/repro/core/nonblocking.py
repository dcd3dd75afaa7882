"""Nonblocking execution mode (GraphBLAS ``GrB_NONBLOCKING``), eagerly.

The C API lets a nonblocking-mode implementation finish each method
before it returns, and this one does: ``with gb.nonblocking():`` runs
every ``C[...] = expr`` at its assignment, exactly as blocking mode does,
so a kernel error raises at its statement and ``gb.wait()`` has nothing
to complete.  Both names stay as the spec's completion points.
"""

from __future__ import annotations

__all__ = ["nonblocking", "wait", "stats"]


class nonblocking:
    """``with gb.nonblocking(): ...`` — a scope that changes nothing:
    each statement in it has completed by the time it returns."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


def wait() -> None:
    """``GrB_wait``: nothing is ever pending, so nothing to do."""


def stats() -> dict:
    """Always ``{"flushes": 0}``.  It stays because the end-to-end
    benchmark's traced ``service_mix`` run reads ``stats()["flushes"]``."""
    return {"flushes": 0}
