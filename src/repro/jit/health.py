"""Per-spec engine health: the JIT runtime's circuit breaker.

A spec whose compile or load fails is *quarantined*: the engine refuses
to re-attempt the build until an exponential-backoff window expires, so
a hot loop dispatching the same broken kernel thousands of times pays
for exactly one doomed ``g++`` run per window instead of one per call.
After ``DEFAULT_RETRIES`` failed attempts (``EngineHealth(retries=)``
sets another count) the quarantine becomes permanent for the life of
the process.

The registry lives on each :class:`~repro.jit.cache.JitCache` (shared by
the engines that share the cache) and is surfaced by
``python -m repro doctor``.

The first failure of each spec emits one :class:`JitFallbackWarning`; a
caller that wants JIT failures to raise instead turns that warning into
an error (``warnings.simplefilter("error", JitFallbackWarning)``).
"""

from __future__ import annotations

import math
import threading
import time
import warnings

from ..exceptions import JitFallbackWarning, KernelQuarantined

__all__ = [
    "EngineHealth",
    "DEFAULT_RETRIES",
    "DEFAULT_BACKOFF_SECONDS",
]

DEFAULT_RETRIES = 3  # build attempts per spec before its quarantine is permanent
DEFAULT_BACKOFF_SECONDS = 0.5  # doubles after every failed retry


class _SpecHealth:
    __slots__ = ("failures", "attempts", "quarantined_until", "warned", "last_error")

    def __init__(self):
        self.failures = 0
        self.attempts = 0
        self.quarantined_until = 0.0  # monotonic deadline; inf = permanent
        self.warned = False
        self.last_error = ""


class EngineHealth:
    """Failure counters and quarantine state keyed by ``(engine, spec key)``."""

    def __init__(self, retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_SECONDS, *, on_failure=None):
        #: called (no arguments) after every recorded failure, so the
        #: owner can invalidate whatever it bound to a now-suspect spec
        self._on_failure = on_failure
        self._lock = threading.Lock()
        self._records: dict[tuple[str, str], _SpecHealth] = {}
        self._retries = retries
        self._backoff = backoff

    # ------------------------------------------------------------------
    def check(self, engine: str, key: str) -> None:
        """Raise :class:`KernelQuarantined` when *key* is circuit-broken
        on *engine*; cheap no-op for healthy specs."""
        if not self._records:
            return
        with self._lock:
            rec = self._records.get((engine, key))
            if rec is None or rec.failures == 0:
                return
            if time.monotonic() < rec.quarantined_until:
                raise KernelQuarantined(
                    f"{engine} kernel for {key} quarantined after "
                    f"{rec.failures} failure(s): {rec.last_error}"
                )
            # backoff expired: let exactly this caller retry (half-open)

    def record_failure(self, engine: str, key: str, error: BaseException) -> bool:
        """Record a compile/load failure; returns True when the spec just
        entered quarantine for the first time (one warning per spec)."""
        with self._lock:
            rec = self._records.setdefault((engine, key), _SpecHealth())
            rec.failures += 1
            rec.attempts += 1
            rec.last_error = str(error) or type(error).__name__
            if rec.attempts >= self._retries:
                rec.quarantined_until = math.inf
            else:
                rec.quarantined_until = time.monotonic() + (
                    self._backoff * 2 ** (rec.attempts - 1)
                )
            newly = not rec.warned
            rec.warned = True
        if self._on_failure is not None:
            self._on_failure()
        from .. import obs

        if obs.ACTIVE:
            obs.record_event(
                "quarantine", "cache", engine=engine, spec=key,
                failures=rec.failures,
            )
        if newly:
            warnings.warn(
                f"pygb: {engine} JIT failed for {key} "
                f"({rec.last_error.splitlines()[0][:200]}); quarantined, "
                "executing on the next engine in the fallback chain",
                JitFallbackWarning,
                stacklevel=3,
            )
        return newly

    def record_success(self, engine: str, key: str) -> None:
        """A build/load succeeded: drop any failure record (recovered)."""
        if not self._records:
            return
        with self._lock:
            self._records.pop((engine, key), None)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals plus one row per unhealthy spec (for ``repro doctor``)."""
        now = time.monotonic()
        with self._lock:
            rows = []
            for (engine, key), rec in self._records.items():
                if rec.failures == 0:
                    continue
                if rec.quarantined_until == math.inf:
                    state = "quarantined (permanent)"
                elif now < rec.quarantined_until:
                    state = f"quarantined (retry in {rec.quarantined_until - now:.1f}s)"
                else:
                    state = "retry allowed"
                rows.append({
                    "engine": engine,
                    "key": key,
                    "failures": rec.failures,
                    "attempts": rec.attempts,
                    "state": state,
                    "last_error": rec.last_error.splitlines()[0][:200] if rec.last_error else "",
                })
            return {
                "failures": sum(r["failures"] for r in rows),
                "specs": sorted(rows, key=lambda r: (r["engine"], r["key"])),
            }

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
