"""One owner for every ``PYGB_*`` environment variable.

The environment is parsed once into a frozen :class:`Config`;
:func:`current` hands that snapshot out as one global read and
:func:`reload` is the only thing that parses again, so a dispatch
touches ``os.environ`` zero times and a malformed value warns where it
is parsed, not on every operation.  Code that changes a variable
in-process calls :func:`reload`; every thread sees the new snapshot at
its next statement.  The scoped context managers (``gb.Scheduled``,
``gb.deadline``, ``gb.use_engine``, ...) win over the
snapshot, the snapshot over the field default (docs/architecture.md,
*Configuration*).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

__all__ = ["Config", "current", "reload", "on_load"]

_FALSEY = frozenset({"0", "false", "off", "no"})


@dataclass(frozen=True)
class Config:
    """The parsed ``PYGB_*`` variables: field ``x_y`` holds ``$PYGB_X_Y``
    and its default is the value of an unset variable (README,
    *Environment variables*, documents each)."""

    backend: str | None = None  # unset: pyjit, and ``repro serve`` chooses for itself
    cxx: str | None = None
    cache_dir: str | None = None
    parallel: bool = True
    threads: int | None = None  # for the record: the C++ kernels getenv it themselves, per call
    schedule: str = "auto"
    catalog: str | None = None
    compile_timeout: float | None = 120.0
    fault: str = ""
    fault_sleep: float = 0.05
    request_timeout: float | None = None
    service_max_line: int = 1 << 20
    trace: str = ""
    stats: str = ""


# -- parsers: one per shape of variable ---------------------------------


def _bad(name: str, raw: str, valid: str, instead: str, what: str = "bad") -> None:
    # stacklevel: _bad <- parser <- _from_env <- reload <- its caller
    warnings.warn(f"pygb: {what} ${name}={raw!r} (valid: {valid}); {instead}", stacklevel=5)


def _switch(env, name: str, default: bool) -> bool:
    """On unless the value is empty or ``0/false/off/no``; unset is
    *default*."""
    raw = env.get(name)
    if raw is None:
        return default
    raw = raw.strip().lower()
    return bool(raw) and raw not in _FALSEY


def _quiet(env, name: str, cast, default):
    """``cast(value)``; *default* when unset, empty or malformed — for the
    variables that never warned."""
    raw = env.get(name)
    try:
        return cast(raw) if raw else default
    except ValueError:
        return default


def _count(env, name: str, default, valid):
    """An integer >= 1; unset or empty is *default*, anything else warns."""
    raw = env.get(name, "").strip().lower()
    if not raw:
        return default
    try:
        if (n := int(raw)) >= 1:
            return n
    except ValueError:
        pass
    _bad(name, raw, valid, f"using {default}")
    return default


def _seconds(env, name: str, floor: float):
    """A budget in seconds, ``None`` for no limit: unset, empty,
    ``0/false/off/no`` and values <= 0 switch it off, a malformed value or
    one below *floor* warns."""
    raw = env.get(name, "").strip().lower()
    if not raw or raw in _FALSEY:
        return None
    try:
        if (v := float(raw)) >= floor:
            return v if v > 0 else None
    except ValueError:
        pass
    _bad(name, raw, f"number >= {floor:g}", "using the default")
    return None


def _schedule(env) -> str:
    raw = env.get("PYGB_SCHEDULE", "").strip().lower()
    if raw in ("auto", ""):
        return "auto"
    if raw in ("fixed", "dense") or raw in _FALSEY:
        return "fixed"
    if raw not in ("push", "pull"):
        _bad("PYGB_SCHEDULE", raw, "auto, fixed, push, pull", "using auto", what="unknown")
        return "auto"
    return raw


def _from_env(env) -> Config:
    get = env.get
    compile_timeout = _quiet(env, "PYGB_COMPILE_TIMEOUT", float, Config.compile_timeout)
    threads = _quiet(env, "PYGB_THREADS", int, 0)
    return Config(
        backend=get("PYGB_BACKEND", Config.backend),
        cxx=get("PYGB_CXX") or None,
        cache_dir=get("PYGB_CACHE_DIR") or None,
        parallel=_switch(env, "PYGB_PARALLEL", True),
        threads=threads if threads > 0 else None,
        schedule=_schedule(env),
        catalog=get("PYGB_CATALOG") or None,
        compile_timeout=compile_timeout if compile_timeout > 0 else None,
        fault=get("PYGB_FAULT", ""),
        fault_sleep=_quiet(env, "PYGB_FAULT_SLEEP", float, Config.fault_sleep),
        request_timeout=_seconds(env, "PYGB_REQUEST_TIMEOUT", floor=1e-9),
        service_max_line=_count(env, "PYGB_SERVICE_MAX_LINE", Config.service_max_line,
                                "bytes >= 1"),
        trace=get("PYGB_TRACE", "").strip(),
        stats=get("PYGB_STATS", "").strip(),
    )


# -- the process snapshot ------------------------------------------------

_SNAPSHOT: Config | None = None

#: callbacks run with every new snapshot (``testing.faults`` turns
#: ``$PYGB_FAULT`` into rules there, so its hooks never read the config)
_ON_LOAD: list = []


def current() -> Config:
    """The process snapshot, built from the environment at first use."""
    cfg = _SNAPSHOT
    return cfg if cfg is not None else reload()


def reload() -> Config:
    """Parse the environment again and publish the result.  The one way
    to make an in-process change of a ``PYGB_*`` variable take effect."""
    global _SNAPSHOT
    _SNAPSHOT = cfg = _from_env(os.environ)
    for callback in _ON_LOAD:
        callback(cfg)
    return cfg


def on_load(callback) -> None:
    """Run ``callback(config)`` with every snapshot :func:`reload`
    publishes from now on, and at once with the current one if there is one."""
    _ON_LOAD.append(callback)
    if _SNAPSHOT is not None:
        callback(_SNAPSHOT)
