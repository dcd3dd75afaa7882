"""PyGB — a GraphBLAS DSL in Python with dynamic compilation into C++.

Reproduction of Chamberlin, Zalewski, McMillan & Lumsdaine, *PyGB:
GraphBLAS DSL in Python with Dynamic Compilation into Efficient C++*
(IPDPSW 2018).

Typical usage (examples in this repo write ``import repro as gb``)::

    import repro as gb

    graph = gb.Matrix((vals, (rows, cols)), shape=(n, n))
    frontier = gb.Vector(([True], [src]), shape=(n,), dtype=bool)
    levels = gb.Vector(shape=(n,), dtype=int)

    depth, reached = 0, -1
    while frontier.nvals > 0:
        depth += 1
        levels[frontier][:] = depth
        if levels.nvals == reached:  # only edges of stored value 0 left
            break
        reached = levels.nvals
        with gb.LogicalSemiring, gb.Replace:
            frontier[~levels] = graph.T @ frontier

Three execution engines implement every operation (select with
``gb.use_engine(...)`` or ``$PYGB_BACKEND``):

* ``pyjit`` (default) — specialised Python modules generated, disk-cached
  and imported on demand (the paper's Fig. 9 pipeline);
* ``cpp`` — the same pipeline emitting C++ compiled by ``g++`` against a
  bundled mini-GBTL header and loaded via ``ctypes``;
* ``interpreted`` — per-call operator resolution, no code generation
  (the ablation baseline).
"""

from . import guard, io, obs, utilities
from .core import (
    Accumulator,
    BinaryOp,
    Matrix,
    Monoid,
    Replace,
    Semiring,
    UnaryOp,
    Vector,
    apply,
    current_backend_engine,
    kron,
    nonblocking,
    reduce,
    select,
    transpose,
    use_engine,
    wait,
)
from .core.predefined import (
    ArithmeticSemiring,
    LogicalAndMonoid,
    LogicalOrMonoid,
    LogicalSemiring,
    LogicalXorMonoid,
    MaxMonoid,
    MaxPlusSemiring,
    MaxSelect1stSemiring,
    MaxSelect2ndSemiring,
    MaxTimesSemiring,
    MinMonoid,
    MinPlusSemiring,
    MinSelect1stSemiring,
    MinSelect2ndSemiring,
    MinTimesSemiring,
    PlusMonoid,
    TimesMonoid,
)
from .exceptions import (
    BackendUnavailable,
    CompilationError,
    DimensionMismatch,
    DomainMismatch,
    EmptyObject,
    GraphBLASError,
    IndexOutOfBounds,
    InvalidValue,
    KernelExecutionError,
    NoOperatorInContext,
    OperationCancelled,
    OperationTimeout,
    UnknownOperator,
)
from .guard import deadline
from .obs import tracing
from .schedule import Scheduled

__version__ = "1.0.0"

__all__ = [
    # containers
    "Matrix",
    "Vector",
    # operators
    "UnaryOp",
    "BinaryOp",
    "Monoid",
    "Semiring",
    "Accumulator",
    "Replace",
    # operations
    "apply",
    "reduce",
    "transpose",
    "select",
    "kron",
    # engines
    "use_engine",
    "current_backend_engine",
    # execution mode (blocking is the default; see docs/architecture.md §12)
    "nonblocking",
    "wait",
    # traversal schedule override (push/pull direction; §13)
    "Scheduled",
    # runtime guardrails (deadlines, cancellation; §15)
    "deadline",
    "guard",
    # observability
    "obs",
    "tracing",
    # predefined algebra
    "PlusMonoid",
    "TimesMonoid",
    "MinMonoid",
    "MaxMonoid",
    "LogicalOrMonoid",
    "LogicalAndMonoid",
    "LogicalXorMonoid",
    "ArithmeticSemiring",
    "LogicalSemiring",
    "MinPlusSemiring",
    "MaxPlusSemiring",
    "MinTimesSemiring",
    "MaxTimesSemiring",
    "MinSelect1stSemiring",
    "MinSelect2ndSemiring",
    "MaxSelect1stSemiring",
    "MaxSelect2ndSemiring",
    # modules
    "io",
    "utilities",
    # exceptions
    "GraphBLASError",
    "DimensionMismatch",
    "DomainMismatch",
    "InvalidValue",
    "IndexOutOfBounds",
    "EmptyObject",
    "NoOperatorInContext",
    "UnknownOperator",
    "CompilationError",
    "BackendUnavailable",
    "KernelExecutionError",
    "OperationTimeout",
    "OperationCancelled",
]
