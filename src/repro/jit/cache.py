"""Module retrieval: memory cache → disk cache → compile (paper Fig. 9).

The paper's ``get_module`` checks an in-memory dict, then the filesystem,
and only then invokes the compiler; compiled binaries persist on disk so
"the cost of compiling the code can be amortized over future runs of the
same code".  :class:`JitCache` reproduces that lookup order for both the
Python and the C++ code generators and counts every outcome, which is
what the compilation-time experiment (EXPERIMENTS.md) reports.

Locking is per spec, not global: two threads racing on the *same* spec
dedupe into one compile, while different specs generate and compile
concurrently — which is what :meth:`JitCache.precompile` exploits to fan
``g++`` jobs out over a thread pool (compilation is subprocess-bound, so
Python threads are enough).

The disk cache is also the JIT runtime's only persistent state, so it
defends itself (the resilience layer's "cache integrity" half):

* every artifact gets a sidecar **manifest** recording SHA-256 checksums
  of the generated source and the built artifact; a disk hit whose
  checksum no longer matches (truncated ``.so`` from a killed compile,
  disk corruption) is discarded and rebuilt instead of being loaded;
* a ``CACHE_FORMAT`` **version stamp** in the cache directory invalidates
  layouts written by incompatible library versions wholesale;
* orphaned ``*.tmp`` files (writers that died between ``write`` and
  ``os.replace``) are swept at construction;
* an unwritable cache directory relocates to a fresh temporary directory
  with a warning rather than failing every compile.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..config import current as _config
from ..exceptions import CompilationError, JitFallbackWarning
from .health import EngineHealth
from .spec import KernelSpec

__all__ = [
    "CacheStatistics",
    "JitCache",
    "default_cache",
    "cache_statistics",
    "clear_memory_cache",
    "reset_default_cache",
    "default_compile_jobs",
    "CACHE_FORMAT_VERSION",
]

#: bumped whenever the on-disk cache layout changes (artifact naming,
#: manifest schema); a stamp mismatch sweeps the directory on startup.
CACHE_FORMAT_VERSION = 1

_FORMAT_STAMP = "CACHE_FORMAT"
#: orphaned .tmp files whose writer pid cannot be determined are only
#: swept once they are this old (an active writer replaces its .tmp
#: within seconds)
_TMP_GRACE_SECONDS = 3600.0


def default_compile_jobs() -> int:
    """Worker count for parallel compilation: ``$PYGB_COMPILE_JOBS``, else
    a small multiple of the core count (``g++`` is subprocess-bound, so a
    little oversubscription hides process-spawn latency).  An unparseable
    or non-positive value warns where it is parsed and falls back to the
    default — ``0`` means "you pick", not "one worker"."""
    return _config().compile_jobs


@dataclass
class CacheStatistics:
    """Counters for the three lookup outcomes, time spent compiling, and
    the resilience layer's recovery events."""

    memory_hits: int = 0
    disk_hits: int = 0
    compiles: int = 0
    #: lookups served from an attached AOT kernel pack (jit/catalog.py)
    catalog_hits: int = 0
    #: lookups that consulted an attached pack and fell through
    catalog_misses: int = 0
    generate_seconds: float = 0.0
    compile_seconds: float = 0.0
    import_seconds: float = 0.0
    per_func: dict = field(default_factory=dict)
    #: compile/load failures recorded against any engine
    jit_failures: int = 0
    #: dispatches served by a lower engine after a JIT failure
    fallbacks: int = 0
    #: corrupt/truncated artifacts detected and rebuilt
    integrity_rebuilds: int = 0
    #: orphaned .tmp files removed at cache construction
    tmp_swept: int = 0

    def snapshot(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "compiles": self.compiles,
            "catalog_hits": self.catalog_hits,
            "catalog_misses": self.catalog_misses,
            "generate_seconds": self.generate_seconds,
            "compile_seconds": self.compile_seconds,
            "import_seconds": self.import_seconds,
            "per_func": dict(self.per_func),
            "jit_failures": self.jit_failures,
            "fallbacks": self.fallbacks,
            "integrity_rebuilds": self.integrity_rebuilds,
            "tmp_swept": self.tmp_swept,
        }

    def reset(self) -> None:
        self.memory_hits = self.disk_hits = self.compiles = 0
        self.catalog_hits = self.catalog_misses = 0
        self.generate_seconds = self.compile_seconds = self.import_seconds = 0.0
        self.per_func.clear()
        self.jit_failures = self.fallbacks = 0
        self.integrity_rebuilds = self.tmp_swept = 0


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours


def _default_cache_dir() -> Path:
    env = _config().cache_dir
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "pygb"


class JitCache:
    """Memory → disk → compile module store, safe under threads.

    Writers produce the artifact under a temporary name and ``os.replace``
    it into place, so concurrent processes racing to compile the same spec
    each end up importing a complete file.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.stats = CacheStatistics()
        #: bumped whenever something an engine may have bound to (a loaded
        #: module, a spec's health) stops being valid: ``clear_memory``,
        #: ``clear_disk``, ``invalidate`` and every recorded JIT failure
        #: (the road to quarantine).  Engines key their bound-kernel
        #: tables on it and go back through :meth:`get_module` — health
        #: check, catalog, disk — when it moves.
        self.generation = 0
        self.health = EngineHealth(on_failure=self._bump_generation)
        self.relocated = False
        requested = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
        self.cache_dir = self._prepare_dir(requested)
        self._modules: dict[tuple[str, str], object] = {}
        # guards _modules, _key_locks and stats; never held across a compile
        self._lock = threading.Lock()
        self._key_locks: dict[tuple[str, str], threading.Lock] = {}
        self._check_format_stamp()
        self.stats.tmp_swept = self._sweep_orphaned_tmp()
        #: AOT kernel pack consulted between the memory and disk tiers
        #: (jit/catalog.py); None when no pack is attached
        self.catalog = None
        #: why $PYGB_CATALOG could not be attached, for `repro doctor`
        self.catalog_error: str | None = None
        env_pack = _config().catalog
        if env_pack:
            self._attach_catalog_env(env_pack)

    def attach_catalog(self, catalog) -> None:
        """Install *catalog* (a :class:`~repro.jit.catalog.KernelCatalog`)
        as this cache's pack tier; ``None`` detaches."""
        self.catalog = catalog
        self.catalog_error = None

    def _attach_catalog_env(self, path: str) -> None:
        """$PYGB_CATALOG attach: a missing/garbled/stale pack degrades to
        a warning (the process runs on the normal compile path) instead
        of failing at import time; ``repro doctor`` surfaces the reason."""
        from ..exceptions import CatalogError

        from .catalog import KernelCatalog  # late: catalog imports this module

        try:
            self.catalog = KernelCatalog.load(path)
        except CatalogError as exc:
            self.catalog_error = str(exc)
            warnings.warn(
                f"pygb: ignoring $PYGB_CATALOG: {exc}",
                JitFallbackWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    # directory preparation (relocation, format stamp, tmp sweep)
    # ------------------------------------------------------------------
    def _prepare_dir(self, requested: Path) -> Path:
        """*requested* if it can be created and written, else a fresh
        temporary directory (read-only mounts, wrong-owner dirs)."""
        try:
            requested.mkdir(parents=True, exist_ok=True)
            probe = requested / f".pygb_probe.{os.getpid()}.{threading.get_ident()}"
            probe.write_text("")
            probe.unlink()
            return requested
        except OSError as exc:
            fallback = Path(tempfile.mkdtemp(prefix="pygb-cache-"))
            warnings.warn(
                f"pygb: cache directory {requested} is not writable ({exc}); "
                f"using temporary cache {fallback} for this process "
                "(compiled kernels will not be amortised across runs)",
                JitFallbackWarning,
                stacklevel=4,
            )
            self.relocated = True
            return fallback

    def _check_format_stamp(self) -> None:
        """Sweep artifacts written under a different cache-format version
        (or before versioning existed), then stamp the directory."""
        stamp = self.cache_dir / _FORMAT_STAMP
        current = None
        try:
            current = int(stamp.read_text().strip())
        except (OSError, ValueError):
            pass
        if current == CACHE_FORMAT_VERSION:
            return
        for p in self.cache_dir.glob("pygb_*"):
            try:
                p.unlink()
            except OSError:
                pass
        self._atomic_write(stamp, f"{CACHE_FORMAT_VERSION}\n")

    def _sweep_orphaned_tmp(self) -> int:
        """Delete ``*.tmp`` leftovers from writers that died mid-compile.
        Temp names embed the writer's pid (``<name>.<pid>.<tid>.tmp``);
        a dead pid means the file can never be renamed into place.  Files
        with unparseable names are only removed once older than an hour."""
        swept = 0
        # wall clock on purpose: compared against st_mtime, which is wall
        # time too.  Interval *timing* elsewhere uses perf_counter.
        now = time.time()
        for p in self.cache_dir.glob("*.tmp"):
            parts = p.name.split(".")
            stale = False
            try:
                pid = int(parts[-3])
                stale = pid != os.getpid() and not _pid_alive(pid)
            except (IndexError, ValueError):
                try:
                    stale = now - p.stat().st_mtime > _TMP_GRACE_SECONDS
                except OSError:
                    continue
            if stale:
                try:
                    p.unlink()
                    swept += 1
                except OSError:
                    pass
        return swept

    # ------------------------------------------------------------------
    # artifact integrity (sidecar manifests)
    # ------------------------------------------------------------------
    @staticmethod
    def _manifest_path(artifact: Path) -> Path:
        return artifact.with_name(artifact.name + ".manifest.json")

    @staticmethod
    def _sha256_file(path: Path) -> str:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
        return h.hexdigest()

    def _write_manifest(self, spec: KernelSpec, src_path: Path, artifact: Path) -> None:
        data = {
            "format": CACHE_FORMAT_VERSION,
            "key": spec.key,
            "source": src_path.name,
            "source_sha256": self._sha256_file(src_path),
            "artifact": artifact.name,
            "artifact_sha256": self._sha256_file(artifact),
            "artifact_size": artifact.stat().st_size,
        }
        self._atomic_write(
            self._manifest_path(artifact), json.dumps(data, indent=1, sort_keys=True)
        )

    def _artifact_intact(self, artifact: Path) -> bool:
        """Whether the on-disk artifact matches its manifest (size fast
        path, then full checksum).  Missing/garbled manifests count as
        corrupt — pre-manifest caches are invalidated by the format stamp
        anyway."""
        try:
            data = json.loads(self._manifest_path(artifact).read_text())
            if data.get("format") != CACHE_FORMAT_VERSION:
                return False
            if artifact.stat().st_size != data.get("artifact_size"):
                return False
            return self._sha256_file(artifact) == data.get("artifact_sha256")
        except (OSError, ValueError):
            return False

    def _discard_artifact(self, artifact: Path) -> None:
        artifact.unlink(missing_ok=True)
        self._manifest_path(artifact).unlink(missing_ok=True)

    def _bump_generation(self) -> None:
        with self._lock:
            self.generation += 1

    def _memory_hit(self, spec: KernelSpec, kind: str) -> None:
        # caller holds self._lock
        self.stats.memory_hits += 1
        if obs.ACTIVE:
            obs.record_event("memory_hit", "cache", spec=spec.key, kind=kind)

    def note_memory_hit(self, spec: KernelSpec, kind: str) -> None:
        """Count one memory-tier hit on behalf of an engine whose
        bound-kernel table answered without reaching :meth:`get_module`."""
        with self._lock:
            self._memory_hit(spec, kind)

    def note_jit_failure(self) -> None:
        with self._lock:
            self.stats.jit_failures += 1
        if obs.ACTIVE:
            obs.record_event("jit_failure", "cache")

    def note_fallback(self) -> None:
        with self._lock:
            self.stats.fallbacks += 1
        if obs.ACTIVE:
            obs.record_event("fallback", "cache")

    def invalidate(self, spec: KernelSpec, kind: str) -> None:
        """Forget *spec*'s artifact of *kind* everywhere (memory entry,
        disk file, manifest) so the next lookup rebuilds it — the engines
        call this when a checksum-clean artifact still fails to load."""
        with self._lock:
            self._modules.pop((spec.key_hash, kind), None)
            self.stats.integrity_rebuilds += 1
            self.generation += 1
        if obs.ACTIVE:
            obs.record_event("integrity_rebuild", "cache", spec=spec.key, kind=kind)
        if self.catalog is not None:
            # the pack artifact itself is never deleted (packs may be
            # read-only); quarantining the entry makes the next lookup
            # fall through to a fresh compile instead
            self.catalog.quarantine(spec.key_hash, kind)
        self._discard_artifact(self.cache_dir / f"{spec.module_stem}{kind}")

    # ------------------------------------------------------------------
    def get_module(self, spec: KernelSpec, generate, suffix: str = ".py", compiler=None):
        """The paper's ``get_module``: return the loaded module for
        *spec*, generating (and optionally *compiler*-ing) it on a miss.

        ``generate(spec) -> str`` produces source text; for C++ specs
        ``compiler(src_path, out_path)`` turns it into a shared object and
        the import step is replaced by the engine's ``ctypes`` loader
        (in which case the returned object is whatever *compiler* loads).

        Thread-safe with per-spec granularity: a miss only blocks callers
        of the *same* spec while it generates/compiles; other specs
        proceed concurrently.
        """
        return self._get_module(spec, generate, suffix, compiler)[0]

    def _try_catalog(self, spec: KernelSpec, kind: str, compiler):
        """The pack tier: the entry's artifact served straight from the
        catalog directory (no copy — packs may be read-only).  Returns
        the loaded module or ``None`` to fall through to disk/compile.
        Only consulted (and only counted) when a catalog is attached."""
        entry = self.catalog.entry(spec.key_hash, kind)
        mod = None
        reason = "absent"
        if entry is not None:
            if self.catalog.verify(entry):
                path = self.catalog.artifact_path(entry)
                if compiler is not None:
                    mod = path  # engines wrap the .so path in ctypes themselves
                else:
                    try:
                        mod = self._import_py(path, spec)
                    except CompilationError:
                        # quarantine, fall through to the normal build
                        self.catalog.quarantine(spec.key_hash, kind)
                        reason = "import_failed"
            else:
                reason = "checksum"
        with self._lock:
            if mod is not None:
                self.stats.catalog_hits += 1
            else:
                self.stats.catalog_misses += 1
        if obs.ACTIVE:
            if mod is not None:
                obs.record_event("catalog_hit", "cache", spec=spec.key, kind=kind)
            else:
                obs.record_event(
                    "catalog_miss", "cache", spec=spec.key, kind=kind, reason=reason
                )
        return mod

    def _get_module(self, spec: KernelSpec, generate, suffix: str = ".py", compiler=None):
        """:meth:`get_module` plus the lookup outcome — ``(module, one of
        "memory" | "catalog" | "disk" | "compiled")`` — so
        :meth:`precompile` can attribute results to its own jobs instead
        of diffing the global counters."""
        # the same spec may exist as a Python module AND a compiled shared
        # object (the engines share one cache), so the artifact kind is
        # part of the memory key
        kind = ".so" if compiler else suffix
        key = (spec.key_hash, kind)
        with self._lock:
            mod = self._modules.get(key)
            if mod is not None:
                self._memory_hit(spec, kind)
                return mod, "memory"
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            # a racer on the same spec may have built it while we waited
            with self._lock:
                mod = self._modules.get(key)
                if mod is not None:
                    self._memory_hit(spec, kind)
                    return mod, "memory"
            if self.catalog is not None:
                mod = self._try_catalog(spec, kind, compiler)
                if mod is not None:
                    with self._lock:
                        self._modules[key] = mod
                        self._key_locks.pop(key, None)
                    return mod, "catalog"
            artifact = self.cache_dir / f"{spec.module_stem}{kind}"

            def build() -> None:
                t0 = time.perf_counter()
                source = generate(spec)
                generate_s = time.perf_counter() - t0
                src_path = self.cache_dir / f"{spec.module_stem}{suffix}"
                self._atomic_write(src_path, source)
                compile_s = 0.0
                if compiler is not None:
                    t0c = time.perf_counter()
                    try:
                        compiler(src_path, artifact)
                    except Exception:
                        # leave nothing half-usable behind for later lookups
                        self._discard_artifact(artifact)
                        raise
                    compile_s = time.perf_counter() - t0c
                self._write_manifest(spec, src_path, artifact)
                with self._lock:
                    self.stats.generate_seconds += generate_s
                    self.stats.compile_seconds += compile_s
                    self.stats.compiles += 1
                    self.stats.per_func[spec.func] = self.stats.per_func.get(spec.func, 0) + 1
                if obs.ACTIVE:
                    obs.record_event(
                        "compile",
                        "cache",
                        spec=spec.key,
                        kind=kind,
                        generate_ms=round(generate_s * 1e3, 3),
                        compile_ms=round(compile_s * 1e3, 3),
                    )

            built_now = False
            if artifact.exists() and self._artifact_intact(artifact):
                with self._lock:
                    self.stats.disk_hits += 1
                if obs.ACTIVE:
                    obs.record_event("disk_hit", "cache", spec=spec.key, kind=kind)
            else:
                if artifact.exists():
                    # truncated/corrupt leftover (killed compile, disk
                    # fault, stale manifest): rebuild instead of loading
                    self._discard_artifact(artifact)
                    with self._lock:
                        self.stats.integrity_rebuilds += 1
                    if obs.ACTIVE:
                        obs.record_event(
                            "integrity_rebuild", "cache", spec=spec.key, kind=kind
                        )
                build()
                built_now = True
            t0 = time.perf_counter()
            if compiler is not None:
                mod = artifact  # engines wrap the .so path in ctypes themselves
            else:
                try:
                    mod = self._import_py(artifact, spec)
                except CompilationError:
                    if built_now:
                        raise  # freshly generated and still broken: codegen bug
                    # checksum-clean disk artifact that won't import
                    # (e.g. manifest and file corrupted together):
                    # invalidate and rebuild exactly once
                    self._discard_artifact(artifact)
                    with self._lock:
                        self.stats.integrity_rebuilds += 1
                    if obs.ACTIVE:
                        obs.record_event(
                            "integrity_rebuild", "cache", spec=spec.key, kind=kind
                        )
                    build()
                    mod = self._import_py(artifact, spec)
            import_s = time.perf_counter() - t0
            with self._lock:
                self.stats.import_seconds += import_s
                self._modules[key] = mod
                # once the module is resident every future lookup returns
                # from the memory tier above, so the per-key lock has done
                # its job — drop it (a long-running service dispatches
                # unboundedly many distinct specs; bake enumerates
                # hundreds in one process)
                self._key_locks.pop(key, None)
            return mod, ("compiled" if built_now else "disk")

    # ------------------------------------------------------------------
    def precompile(self, jobs, max_workers: int | None = None) -> dict:
        """Build many specs concurrently (the non-blocking compile path).

        *jobs* is an iterable of ``(spec, generate, suffix, compiler)``
        tuples — the same arguments :meth:`get_module` takes.  Each job
        runs through the normal lookup (so warm artifacts are hits, not
        rebuilds) on a thread pool; per-spec locking means distinct specs
        really do compile in parallel.  Failures are collected, not
        raised.  Returns a report dict.

        The report counts the outcome of each *submitted job* — not
        global-counter deltas, which concurrent foreground dispatch on
        other threads would inflate.
        """
        outcome_keys = {
            "compiled": "compiled",
            "disk": "disk_hits",
            "memory": "memory_hits",
            "catalog": "catalog_hits",
        }
        jobs = list(jobs)
        workers = max_workers if max_workers else default_compile_jobs()
        workers = max(1, min(workers, len(jobs)) if jobs else 1)
        counts = {k: 0 for k in outcome_keys.values()}
        failed: list[tuple[str, str]] = []
        t0 = time.perf_counter()
        if jobs:
            with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="pygb-jit") as pool:
                futures = {
                    pool.submit(self._get_module, spec, generate, suffix, compiler): spec
                    for spec, generate, suffix, compiler in jobs
                }
                for fut in as_completed(futures):
                    spec = futures[fut]
                    try:
                        _, outcome = fut.result()
                    except Exception as exc:  # report, keep building the rest
                        failed.append((spec.key, str(exc)))
                    else:
                        counts[outcome_keys[outcome]] += 1
        return {
            "requested": len(jobs),
            **counts,
            "failed": failed,
            "seconds": time.perf_counter() - t0,
            "jobs": workers,
        }

    # ------------------------------------------------------------------
    def _atomic_write(self, path: Path, text: str) -> None:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)

    def _import_py(self, path: Path, spec: KernelSpec):
        name = f"_pygb_jit.{spec.module_stem}"
        loader_spec = importlib.util.spec_from_file_location(name, path)
        if loader_spec is None or loader_spec.loader is None:
            raise CompilationError(f"cannot import generated module {path}")
        module = importlib.util.module_from_spec(loader_spec)
        sys.modules[name] = module
        try:
            loader_spec.loader.exec_module(module)
        except Exception as exc:  # surface codegen bugs with the file kept
            raise CompilationError(
                f"generated module {path} failed to import: {exc}"
            ) from exc
        return module

    def clear_memory(self) -> None:
        """Forget loaded modules (disk artifacts stay — next lookup is a
        disk hit; used by the compilation-time benchmarks)."""
        with self._lock:
            self._modules.clear()
            self.generation += 1

    def clear_disk(self) -> None:
        """Delete every cached artifact of this cache directory."""
        with self._lock:
            for p in self.cache_dir.glob("pygb_*"):
                p.unlink(missing_ok=True)
            self._modules.clear()
            self.generation += 1


_default: JitCache | None = None
_default_lock = threading.Lock()


def default_cache() -> JitCache:
    """The process-wide cache shared by all JIT engines."""
    global _default
    with _default_lock:
        if _default is None:
            _default = JitCache()
        return _default


def reset_default_cache() -> JitCache:
    """Drop and rebuild the process-wide cache singleton (from the
    snapshot's ``cache_dir``).  Engines constructed earlier keep their old
    cache reference; used by tests and by operators who repoint the cache
    directory mid-process (set the variable, ``config.reload()``, this)."""
    global _default
    with _default_lock:
        _default = JitCache()
        return _default


def cache_statistics() -> dict:
    """Snapshot of the default cache's counters, including the engine
    health report (failure counters and quarantine state)."""
    cache = default_cache()
    snap = cache.stats.snapshot()
    snap["health"] = cache.health.snapshot()
    return snap


def clear_memory_cache() -> None:
    default_cache().clear_memory()
