"""Shared helper functions for building random containers in both the
reference-dict format and the DSL format."""

from __future__ import annotations

import contextlib
import signal

import numpy as np

import repro as gb

__all__ = ["random_vec_dict", "random_mat_dict", "vec_from_dict", "mat_from_dict", "within"]


def random_vec_dict(rng, size: int, density: float = 0.4, dtype=np.float64) -> dict:
    """A random sparse vector as a plain dict (reference format)."""
    n = max(0, int(size * density))
    idx = rng.choice(size, size=min(n, size), replace=False)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-10, 10, size=idx.size)
    elif np.dtype(dtype) == np.bool_:
        vals = rng.integers(0, 2, size=idx.size).astype(bool)
    else:
        vals = rng.integers(-10, 10, size=idx.size)
    return {int(i): np.dtype(dtype).type(v).item() for i, v in zip(idx, vals)}


def random_mat_dict(rng, nrows: int, ncols: int, density: float = 0.3, dtype=np.float64) -> dict:
    """A random sparse matrix as a plain dict (reference format)."""
    total = nrows * ncols
    n = max(0, int(total * density))
    flat = rng.choice(total, size=min(n, total), replace=False)
    if np.dtype(dtype).kind == "f":
        vals = rng.uniform(-10, 10, size=flat.size)
    elif np.dtype(dtype) == np.bool_:
        vals = rng.integers(0, 2, size=flat.size).astype(bool)
    else:
        vals = rng.integers(-10, 10, size=flat.size)
    return {
        (int(f) // ncols, int(f) % ncols): np.dtype(dtype).type(v).item()
        for f, v in zip(flat, vals)
    }


def vec_from_dict(d: dict, size: int, dtype=np.float64) -> "gb.Vector":
    idx = sorted(d)
    return gb.Vector(([d[i] for i in idx], idx), shape=(size,), dtype=dtype)


def mat_from_dict(d: dict, nrows: int, ncols: int, dtype=np.float64) -> "gb.Matrix":
    keys = sorted(d)
    rows = [k[0] for k in keys]
    cols = [k[1] for k in keys]
    vals = [d[k] for k in keys]
    return gb.Matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=dtype)


@contextlib.contextmanager
def within(seconds: float):
    """Fail with ``TimeoutError`` instead of hanging when the block's
    Python code runs past *seconds* (main thread only: ``SIGALRM``)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
