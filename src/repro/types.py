"""Type system for PyGB containers.

The paper (Sec. V) maps Python/NumPy dtypes onto the eleven C++ "plain old
data" types that GBTL templates are instantiated with.  This module owns
that mapping plus the C++-style implicit-upcasting rules used when two
containers of different types are combined in a binary operation.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainMismatch

__all__ = [
    "POD_TYPES",
    "CXX_NAMES",
    "normalize_dtype",
    "default_dtype_for",
    "promote",
    "cxx_name",
    "dtype_token",
]

#: The eleven plain-old-data types of the paper (Sec. V): bool, the four
#: signed and four unsigned fixed-width integers, and the two IEEE floats.
POD_TYPES: tuple[np.dtype, ...] = tuple(
    np.dtype(t)
    for t in (
        np.bool_,
        np.int8,
        np.int16,
        np.int32,
        np.int64,
        np.uint8,
        np.uint16,
        np.uint32,
        np.uint64,
        np.float32,
        np.float64,
    )
)

#: NumPy dtype -> C++ type name, used both for the generated ``-D`` defines
#: of the JIT binding files (Fig. 9) and for documentation purposes.
CXX_NAMES: dict[np.dtype, str] = {
    np.dtype(np.bool_): "bool",
    np.dtype(np.int8): "int8_t",
    np.dtype(np.int16): "int16_t",
    np.dtype(np.int32): "int32_t",
    np.dtype(np.int64): "int64_t",
    np.dtype(np.uint8): "uint8_t",
    np.dtype(np.uint16): "uint16_t",
    np.dtype(np.uint32): "uint32_t",
    np.dtype(np.uint64): "uint64_t",
    np.dtype(np.float32): "float",
    np.dtype(np.float64): "double",
}


def normalize_dtype(dtype) -> np.dtype:
    """Coerce *dtype* (NumPy dtype, Python type, or string) onto one of the
    eleven supported POD dtypes.

    ``int`` maps to ``int64`` and ``float`` to ``float64``, matching the
    paper's fallback "default Python types: 64-bit ints and 64-bit floats".
    """
    if dtype is None:
        raise TypeError("dtype may not be None; use default_dtype_for()")
    if dtype is int:
        return np.dtype(np.int64)
    if dtype is float:
        return np.dtype(np.float64)
    if dtype is bool:
        return np.dtype(np.bool_)
    dt = np.dtype(dtype)
    if dt not in CXX_NAMES:
        raise DomainMismatch(
            f"dtype {dt!r} is not one of the {len(POD_TYPES)} supported "
            f"plain-old-data types"
        )
    return dt


def default_dtype_for(values) -> np.dtype:
    """Infer a container dtype from raw Python/NumPy data.

    Follows the paper's rule: unspecified dtypes fall back to 64-bit ints
    for integral data and 64-bit floats for real data; booleans stay
    boolean.  NumPy arrays keep their own (supported) dtype.
    """
    if isinstance(values, np.ndarray):
        if values.dtype in CXX_NAMES:
            return values.dtype
        if np.issubdtype(values.dtype, np.bool_):
            return np.dtype(np.bool_)
        if np.issubdtype(values.dtype, np.integer):
            return np.dtype(np.int64)
        if np.issubdtype(values.dtype, np.floating):
            return np.dtype(np.float64)
        raise DomainMismatch(f"unsupported array dtype {values.dtype!r}")
    arr = np.asarray(values)
    if arr.dtype == object:
        raise DomainMismatch("container values must be homogeneous numbers")
    return default_dtype_for(arr)


def promote(a, b) -> np.dtype:
    """C++-style implicit upcast of two operand dtypes (Sec. V).

    Delegates to :func:`numpy.promote_types`, which implements the same
    integer-rank/float promotion lattice as the C++ usual arithmetic
    conversions for the types we support, then re-normalizes the result
    onto a supported POD dtype.
    """
    pa, pb = normalize_dtype(a), normalize_dtype(b)
    res = np.promote_types(pa, pb)
    # promote_types may yield e.g. float64 from int64+uint64 mixes; all its
    # outputs for POD inputs are themselves POD, but guard anyway.
    return normalize_dtype(res)


def cxx_name(dtype) -> str:
    """C++ spelling of *dtype* for generated binding files."""
    return CXX_NAMES[normalize_dtype(dtype)]


#: dtype spelling -> token; ``np.dtype.name`` builds its string on every
#: access and a dispatch asks three or four times (eleven dtypes, a few
#: spellings each, so the table stays tiny)
_TOKENS: dict = {}


def dtype_token(dtype) -> str:
    """Short stable token for cache keys, e.g. ``int64`` or ``float32``."""
    try:
        return _TOKENS[dtype]
    except KeyError:
        token = _TOKENS[dtype] = normalize_dtype(dtype).name
        return token
    except TypeError:  # unhashable spelling (e.g. a list-form dtype)
        return normalize_dtype(dtype).name
