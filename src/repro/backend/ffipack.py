"""Resident FFI argument packs for the ``cpp`` engine.

Backend stores are immutable by convention (every kernel builds a new
one), so the marshalled form of a store — its dimensions and the raw
addresses of its ``indptr``/``indices``/``values`` buffers, exactly the
leading arguments of a generated ``pygb_run`` — is computed once and
memoised on the store (``SparseMatrix.ffi_pack`` /
``SparseVector.ffi_pack``).  A traversal iteration then marshals only the
vectors that are new this iteration; the graph, its cached transpose and
its tile views marshal once.

A pack owns every buffer it points into (the store's own arrays, or the
contiguous/int64 copies it had to make), never the store itself, so it
creates no reference cycle and a dropped store frees its pack with it.
It never travels with a clone of the store either: ``copy()``/``astype()``
start without one, and ``copy.deepcopy``/``pickle`` turn it into ``None``.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

__all__ = ["ArgPack", "address", "resident"]

#: guards the two lazy builds (a store's pack, a pack's mask form); one
#: module-level lock for the same reason as the stores' ``_MEMO_LOCK``:
#: builds are rare and ``__slots__`` instances stay light
_LOCK = threading.Lock()

_I64 = np.dtype(np.int64)
_ANCHOR = ctypes.c_char * 0
_addressof = ctypes.addressof


def address(arr: np.ndarray) -> int:
    """Data address of a C-contiguous array.  A zero-length ctypes array
    anchored on the buffer costs 0.43 µs against 1.25 µs for
    ``arr.ctypes.data``, and output buffers pay this on every dispatch.
    End to end (``bench_e2e`` ``dsl_small``, 10 alternating pairs, seeds
    700–709, this tree with and without the fast spelling):
    ``suite_geomean_ms`` 1.420 → 1.346 ms (−5.2 %, 10/10 wins, pair gap
    0.075 ms against an IQR of 0.032 ms; parent IQR 0.044 ms).
    Read-only arrays (memoised index sets) refuse the writable-buffer
    export and take the slow spelling."""
    try:
        return _addressof(_ANCHOR.from_buffer(arr))
    except TypeError:
        return arr.ctypes.data


class ArgPack:
    """``args``: the store as ``pygb_run`` takes it — *dims*, then the
    address of every index array and of the values, then *tail*.
    :meth:`mask_args`: the same store in mask position."""

    __slots__ = ("args", "_values_at", "_ndims", "_mask", "_buffers")

    def __init__(self, dims: tuple, index_arrays: tuple, values: np.ndarray, tail: tuple = ()):
        buffers = [np.ascontiguousarray(a, _I64) for a in index_arrays]
        # bool is one byte on both sides; the address needs no uint8 view
        buffers.append(np.ascontiguousarray(values))
        self._buffers = buffers
        self._ndims = len(dims)
        self._values_at = len(dims) + len(index_arrays)  # position in args
        self.args = (*dims, *map(address, buffers), *tail)
        self._mask: tuple | None = None

    def __reduce__(self):
        # Addresses mean nothing in a copy or another process: a pack
        # copies and pickles as None, so a store that was deep-copied or
        # unpickled builds its own on first use.
        return (type(None), ())

    def mask_args(self) -> tuple:
        """``(*index addresses, truth, *tail)`` — the store as a write
        mask.  *truth* is the values coerced to one byte each (mask
        semantics, paper Sec. III): the values themselves for bool
        stores, one ``astype`` kept alive by the pack otherwise; built
        the first time the store serves as a mask."""
        mask = self._mask
        if mask is None:
            with _LOCK:
                mask = self._mask
                if mask is None:
                    values = self._buffers[-1]
                    if values.dtype != np.bool_:
                        values = values.astype(np.bool_)
                        self._buffers.append(values)
                    args, at = self.args, self._values_at
                    mask = self._mask = (*args[self._ndims:at], address(values), *args[at + 1:])
        return mask


def resident(store, dims: tuple, index_arrays: tuple, tail: tuple = ()) -> ArgPack:
    """Build *store*'s pack exactly once (the miss path of its
    ``ffi_pack()``) and park it in the store's ``_ffi_cache`` slot."""
    with _LOCK:
        pack = store._ffi_cache
        if pack is None:
            pack = store._ffi_cache = ArgPack(dims, index_arrays, store.values, tail)
    return pack
