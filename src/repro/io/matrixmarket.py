"""MatrixMarket coordinate-format reader/writer.

The paper's Fig. 11 times "read a matrix from a file in disk"; this module
is that code path, implemented from scratch (no SciPy dependency) so the
Python-loop vs vectorised-parse comparison in the Fig. 11 benchmark is
meaningful.

Supported: ``matrix coordinate (real|integer|pattern) (general|symmetric)``.
"""

from __future__ import annotations

import io
import os

import numpy as np

from ..exceptions import InvalidValue

__all__ = ["mmread", "mmwrite"]

_HEADER = "%%MatrixMarket"


def _parse_header(line: str):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != _HEADER:
        raise InvalidValue(f"not a MatrixMarket header: {line.strip()!r}")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise InvalidValue(f"only 'matrix coordinate' files are supported, got {obj} {fmt}")
    if field not in ("real", "integer", "pattern"):
        raise InvalidValue(f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise InvalidValue(f"unsupported symmetry {symmetry!r}")
    return field, symmetry


def _read_preamble(fh):
    """Header, comment block and size line of a MatrixMarket file opened
    in binary mode: ``(field, symmetry, nrows, ncols, nnz)``, with *fh*
    left at the first entry.  Both readers start here, so they accept the
    same files and infer the same dtype."""
    field, symmetry = _parse_header(fh.readline().decode("utf-8", "replace"))
    line = fh.readline()
    while line.startswith(b"%"):
        line = fh.readline()
    try:
        nrows, ncols, nnz = (int(x) for x in line.split())
        if not (0 <= min(nrows, ncols, nnz) and max(nrows, ncols, nnz) < 2**63):
            raise ValueError("out of range")
    except ValueError:
        raise InvalidValue(f"bad size line: {line.strip()!r}") from None
    return field, symmetry, nrows, ncols, nnz


def mmread(path, dtype=None):
    """Read a MatrixMarket file into a :class:`~repro.core.matrix.Matrix`.

    Indices in the file are 1-based per the format; ``pattern`` files get
    value 1 for every listed coordinate; ``symmetric`` files mirror
    off-diagonal entries.
    """
    from ..core.matrix import Matrix

    with open(path, "rb") as fh:
        field, symmetry, nrows, ncols, nnz = _read_preamble(fh)
        body = fh.read()
    pattern = field == "pattern"
    width, parsed_as = (2, np.int64) if pattern else (3, np.float64)
    try:
        if body.strip():
            raw = np.loadtxt(
                io.StringIO(body.decode()), dtype=parsed_as, comments=None, ndmin=2
            )
        else:  # an empty coordinate section (loadtxt would warn)
            raw = np.empty((0, width), dtype=parsed_as)
        if raw.shape[1] != width:
            raise ValueError(f"entries have {raw.shape[1]} fields")
    except ValueError as exc:  # also a bad token, a short row, undecodable bytes
        raise InvalidValue(f"malformed MatrixMarket file {path}: {exc}") from None
    if pattern:
        rows, cols = raw[:, 0] - 1, raw[:, 1] - 1
        vals = np.ones(rows.size, dtype=np.int64)
    else:
        with np.errstate(invalid="ignore"):
            index = raw[:, :2].astype(np.int64)
        if (index != raw[:, :2]).any():  # 1.5, nan, 1e300: parsed as reals, not indices
            raise InvalidValue(f"malformed MatrixMarket file {path}: non-integer index")
        rows, cols = index[:, 0] - 1, index[:, 1] - 1
        vals = raw[:, 2]
        if field == "integer":
            vals = vals.astype(np.int64)
    if rows.size != nnz:
        raise InvalidValue(f"size line promised {nnz} entries, file has {rows.size}")
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return Matrix((vals, (rows, cols)), shape=(nrows, ncols), dtype=dtype)


def mmwrite(path, matrix, comment: str | None = None) -> None:
    """Write a PyGB Matrix as ``matrix coordinate real|integer general``."""
    store = matrix._store
    rows, cols, vals = store.coo()
    field = "integer" if store.dtype.kind in "iub" else "real"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wt") as fh:
        fh.write(f"{_HEADER} matrix coordinate {field} general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"%{line}\n")
        fh.write(f"{store.nrows} {store.ncols} {store.nvals}\n")
        if field == "integer":
            np.savetxt(fh, np.column_stack([rows + 1, cols + 1, vals.astype(np.int64)]), fmt="%d")
        else:
            out = np.column_stack([rows + 1, cols + 1, vals])
            np.savetxt(fh, out, fmt=("%d", "%d", "%.17g"))
    os.replace(tmp, path)
