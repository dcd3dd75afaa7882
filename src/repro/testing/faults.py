"""Deterministic fault injection for the JIT pipeline.

The resilience layer (fallback chain, cache-integrity rebuilds, compile
timeouts) only earns its keep if every recovery path is exercised by
tests, and real faults — a wedged ``g++``, a half-written ``.so`` — are
awkward to reproduce on demand.  This module plants named hook points in
the engines; each hook asks :data:`FAULTS` whether it should fire.

Faults are configured two ways:

* the ``PYGB_FAULT`` environment variable, a comma-separated list of
  ``kind`` or ``kind:rate`` entries, e.g.
  ``PYGB_FAULT=compile_fail:0.5,slow_compile``;
* programmatically via :meth:`FaultPlan.install` /
  :func:`fault_injection` (the context-manager form tests use).

Firing is **deterministic**, never random: each rule keeps an
accumulator that starts at ``1 - rate``, adds ``rate`` per eligible
call, and fires (subtracting 1) whenever it reaches 1.  So ``rate=1``
fires on every call, ``rate=0.5`` on the 1st, 3rd, 5th, ... — the first
eligible call always fires, which is what makes "corrupt the artifact
once, then let the rebuild succeed" expressible as ``corrupt_so:0.5``.

Supported kinds and their hook points:

================== ====================================================
``compile_fail``    ``CppJitEngine._compile`` raises ``CompilationError``
``slow_compile``    the compiler command is replaced by a sleeper so the
                    ``PYGB_COMPILE_TIMEOUT`` machinery trips for real
``corrupt_so``      the freshly compiled ``.so`` is truncated in place
``dlopen_fail``     ``ctypes.CDLL`` load raises ``OSError``
``pyjit_fail``      ``PyJitEngine._module`` raises ``CompilationError``
``kernel_fail``     ``ResilientEngine`` raises ``KernelExecutionError``
                    *at runtime* before trying an engine (the kernel
                    "crashed"), exercising the execution fallback chain
``slow_kernel``     the dispatch stalls for ``$PYGB_FAULT_SLEEP`` (50ms
                    default) via an interruptible sleep, tripping
                    ``gb.deadline`` for real
================== ====================================================

The two runtime kinds (``kernel_fail``, ``slow_kernel``) sit on hot
dispatch paths, so :meth:`FaultPlan.fire` returns on one attribute test
when no rule is in force; ``$PYGB_FAULT`` becomes rules when the
configuration snapshot is built or reloaded, never inside a hook.
"""

from __future__ import annotations

import threading

from .. import config

__all__ = ["FAULT_KINDS", "FaultPlan", "FAULTS", "fault_injection"]

FAULT_KINDS = frozenset({
    # compile/load pipeline faults (PR 3)
    "compile_fail", "slow_compile", "corrupt_so", "dlopen_fail", "pyjit_fail",
    # runtime execution faults
    "kernel_fail", "slow_kernel",
})


def _check_kind(kind: str) -> None:
    """Uniform kind validation for both configuration paths (env parsing
    and programmatic install) — same exception, same message."""
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; "
            f"valid: {', '.join(sorted(FAULT_KINDS))}"
        )


class _Rule:
    __slots__ = ("rate", "acc", "times", "fired")

    def __init__(self, rate: float, times: int | None = None):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"fault rate must be in (0, 1], got {rate}")
        self.rate = rate
        self.acc = 1.0 - rate  # first eligible call always fires
        self.times = times
        self.fired = 0


def _parse_env(raw: str) -> dict[str, _Rule]:
    rules: dict[str, _Rule] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, rate_s = entry.partition(":")
        _check_kind(kind)
        rules[kind] = _Rule(float(rate_s) if rate_s else 1.0)
    return rules


class FaultPlan:
    """Process-wide fault table: the rules of ``$PYGB_FAULT``, re-parsed
    when :func:`repro.config.reload` sees the variable change, plus the
    ones installed programmatically."""

    def __init__(self):
        self._lock = threading.Lock()
        self._env_raw = ""
        self._rules: dict[str, _Rule] = {}
        #: whether any rule is in force — the one test a hot path makes
        #: before it asks :meth:`fire` about its kinds
        self.armed = False
        config.on_load(self._load_env)

    # -- configuration --------------------------------------------------
    def _load_env(self, cfg) -> None:
        with self._lock:
            if cfg.fault != self._env_raw:
                self._env_raw = cfg.fault
                self._rules = _parse_env(cfg.fault)
                self.armed = bool(self._rules)

    def install(self, kind: str, rate: float = 1.0, times: int | None = None) -> None:
        """Programmatic hook: make *kind* fire at *rate*, at most *times*
        times (None = unlimited).  Survives until :meth:`clear` or a
        reloaded ``$PYGB_FAULT`` that changed."""
        _check_kind(kind)
        with self._lock:
            self._rules[kind] = _Rule(rate, times)
            self.armed = True

    def clear(self) -> None:
        """Remove every rule (env-configured rules return when a reload
        finds the variable changed)."""
        with self._lock:
            self._rules.clear()
            self.armed = False

    def active(self) -> dict[str, dict]:
        """Current rules with their firing counts (for ``repro doctor``)."""
        with self._lock:
            return {
                kind: {"rate": r.rate, "times": r.times, "fired": r.fired}
                for kind, r in self._rules.items()
            }

    # -- the hook -------------------------------------------------------
    def fire(self, kind: str) -> bool:
        """Whether the hook point *kind* should inject its fault now."""
        if not self._rules:
            return False
        with self._lock:
            rule = self._rules.get(kind)
            if rule is None:
                return False
            if rule.times is not None and rule.fired >= rule.times:
                return False
            rule.acc += rule.rate
            if rule.acc >= 1.0 - 1e-9:
                rule.acc -= 1.0
                rule.fired += 1
                return True
            return False


#: the process-wide plan every hook point consults
FAULTS = FaultPlan()


class fault_injection:
    """``with fault_injection("compile_fail", rate=0.5): ...`` — install a
    rule for the duration of a block, restoring a clean table after."""

    def __init__(self, kind: str, rate: float = 1.0, times: int | None = None):
        self._kind, self._rate, self._times = kind, rate, times

    def __enter__(self):
        FAULTS.install(self._kind, self._rate, self._times)
        return FAULTS

    def __exit__(self, *exc):
        FAULTS.clear()
        return False
