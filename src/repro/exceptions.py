"""Exception hierarchy for PyGB.

Mirrors the error classes implied by the GraphBLAS C API specification
(dimension mismatch, domain mismatch, invalid values) plus errors specific
to the dynamic-compilation pipeline of the paper (Sec. V).
"""

from __future__ import annotations


class GraphBLASError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(GraphBLASError):
    """Operand shapes are incompatible for the requested operation."""


class DomainMismatch(GraphBLASError):
    """Operand dtypes cannot be promoted to a common domain."""


class InvalidValue(GraphBLASError):
    """An argument value is outside its permitted range (e.g. bad index)."""


class IndexOutOfBounds(InvalidValue):
    """A row/column index exceeds the container dimensions."""


class EmptyObject(GraphBLASError):
    """An operation required a stored value that is not present."""


class NoOperatorInContext(GraphBLASError):
    """An operation needed an operator but none was found on the context
    stack and none was supplied explicitly (Sec. IV of the paper)."""


class UnknownOperator(GraphBLASError):
    """An operator name is not in the GBTL operator table (Fig. 6)."""


class CompilationError(GraphBLASError):
    """The JIT backend failed to compile a generated module (Sec. V)."""


class KernelQuarantined(CompilationError):
    """A kernel spec is circuit-broken: its compile/load failed recently
    and the backoff window has not expired, so the engine refuses to
    re-attempt the build.  Dispatch treats this exactly like a fresh
    :class:`CompilationError` (fall back to the next engine), but without
    paying for the doomed compile again."""


class BackendUnavailable(GraphBLASError):
    """The requested execution backend (e.g. ``cpp``) cannot be used on
    this machine (no compiler found)."""


class KernelExecutionError(GraphBLASError):
    """A kernel failed *at runtime* (after a successful compile/load).
    The resilience chain treats this like a compile failure — the
    dispatch retries verbatim on the next engine down — but the
    circuit breaker is keyed separately because the artifact itself is
    healthy."""


class _GuardrailError(GraphBLASError):
    """Base for the runtime-guardrail exceptions: carries the op name,
    the engine it ran on, and the elapsed wall time at the point the
    guard intervened (``repro/guard.py``)."""

    def __init__(self, message: str, *, op: str | None = None,
                 engine: str | None = None, elapsed: float | None = None,
                 budget: float | None = None):
        super().__init__(message)
        self.op = op
        self.engine = engine
        self.elapsed = elapsed
        self.budget = budget


class OperationTimeout(_GuardrailError):
    """An operation exceeded the budget of its ``gb.deadline(...)``
    scope.  Catchable: the process stays
    functional — worker pools stay clean, and the next operation starts
    from a fresh budget."""


class OperationCancelled(_GuardrailError):
    """An operation was cancelled cooperatively — an explicit
    ``deadline.cancel()``, or a kernel observing the cancellation flag.
    When the cause was deadline expiry the guard layer re-raises it as
    :class:`OperationTimeout` with the budget attached."""


class CatalogError(GraphBLASError):
    """A kernel pack could not be attached: the directory is missing, or
    its ``CACHE_FORMAT`` stamp is missing or from an incompatible cache
    layout (a pack is rejected as a whole, never entry by entry)."""


class JitFallbackWarning(UserWarning):
    """The JIT runtime degraded gracefully: a compile/load failure sent a
    kernel to the next engine in the fallback chain, or the cache
    relocated to a temporary directory.  The program keeps running on a
    slower-but-correct path.  ``warnings.simplefilter("error",
    JitFallbackWarning)`` turns these situations into hard errors."""
