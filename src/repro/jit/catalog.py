"""AOT kernel catalog: a redistributable pack of pre-built kernels.

The paper amortizes dynamic compilation "over future runs of the same
code", but every *first* ``(op, dtypes, operators)`` spec in a fresh
cache directory still pays an inline ``g++`` compile.  DAPHNE's
``genKernelInst.py`` pre-instantiation pipeline and GraphBLAST's fixed
pre-built kernel library show the hot spec space is enumerable ahead of
time; this module does exactly that for PyGB:

* :func:`catalog_kernel_specs` enumerates the hot spec space — the
  ``traced`` and ``grid`` columns of the kernel table
  (:mod:`~repro.jit.kernels`): the algorithm kernel set
  :mod:`~repro.jit.precompile` warms (kept honest by its drift guard),
  a predefined-semiring × dtype × schedule-direction grid, its
  elementwise and reduction companions and the reduce-site fused pair;
* :func:`bake_catalog` batch-builds those specs with the existing
  concurrent compile pool (:meth:`JitCache.precompile`) into one shared
  pack directory and emits ``catalog.json`` — spec key hash → artifact
  name + sha256, stamped with ``CODEGEN_VERSION`` and
  ``CACHE_FORMAT_VERSION``;
* :class:`KernelCatalog` / :func:`load_catalog` attach a baked pack to
  a :class:`JitCache`, which then serves lookups from the pack *between*
  its memory and disk tiers — a fresh process's first op becomes a
  catalog hit, not a compile.

Invalidation is two-level, mirroring the disk cache: a pack whose
version stamps mismatch is rejected **wholesale** at load time
(:class:`~repro.exceptions.CatalogError`); an individual entry whose
artifact fails its checksum (or fails to load) is quarantined and the
lookup falls through to the normal disk → compile path.  The pack itself
is never written to at serve time, so read-only catalog directories
(container images, shared network mounts) work.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from ..exceptions import BackendUnavailable, CatalogError
from .cache import CACHE_FORMAT_VERSION, JitCache, default_cache
from .kernels import KERNELS, PLAIN, spec
from .precompile import algorithm_module_specs
from .spec import CODEGEN_VERSION, KernelSpec

__all__ = [
    "CATALOG_FILENAME",
    "CATALOG_SCHEMA_VERSION",
    "KernelCatalog",
    "catalog_kernel_specs",
    "pyjit_kernel_specs",
    "bake_catalog",
    "validate_catalog",
    "load_catalog",
]

CATALOG_FILENAME = "catalog.json"

#: bumped whenever the catalog.json layout changes.
CATALOG_SCHEMA_VERSION = 1

def _dedup(specs: list[KernelSpec]) -> list[KernelSpec]:
    return list({s.key_hash: s for s in specs}.values())


def catalog_kernel_specs(parallel: bool = False) -> list[KernelSpec]:
    """The hot per-operation spec space, deduplicated by key hash: every
    row's traced instances (``precompile``'s list, and therefore its drift
    guard) and its catalog grid."""
    return _dedup([spec(func, *use, parallel=parallel)
                   for func, row in KERNELS.items() for use in row.traced + row.grid])


def pyjit_kernel_specs() -> list[KernelSpec]:
    """The catalog spec space as the *pyjit* engine would key it: the
    rows it has a generator for, with their pyjit-only transpose params
    unset, plus each row's ``baked_transposes`` (``A.T @ u`` / ``L @ U.T``
    — reverse-edge walks and triangle counting), which the cpp engine
    needs no extra kernel for (it pre-transposes)."""
    specs = []
    for func, row in KERNELS.items():
        if row.py is None:
            continue
        for use in row.traced + row.grid:
            for transposes in ((False,) * len(row.transposes),) + row.baked_transposes:
                specs.append(spec(func, *use, transposes=transposes))
    # pyjit runs the float->float identity cast the cpp engine traced as
    # int64 input (the engines promote dtypes at different points)
    specs.append(spec("apply_mat", ("float64", "float64"), ("unary", "Identity", "none"), PLAIN,
                      transposes=(False,)))
    return _dedup(specs)


# ----------------------------------------------------------------------
# the catalog object (read side)
# ----------------------------------------------------------------------
class KernelCatalog:
    """A loaded, version-checked ``catalog.json``.

    Entry lookups are by ``(key_hash, kind)`` where *kind* is the
    artifact suffix (``.so`` for compiled shared objects, ``.py`` for
    generated Python modules).  Checksums are verified lazily on first
    use of each entry and the verdict memoized; a failing entry is
    quarantined so later lookups miss immediately.
    """

    def __init__(self, root: Path, data: dict):
        self.root = Path(root)
        self.parallel = bool(data.get("parallel", False))
        self.entries: dict[tuple[str, str], dict] = {}
        for entry in data.get("entries", []):
            self.entries[(entry["key_hash"], entry["kind"])] = entry
        self._verified: dict[tuple[str, str], bool] = {}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, root: str | os.PathLike) -> "KernelCatalog":
        """Parse and version-check ``<root>/catalog.json``; raises
        :class:`CatalogError` on a missing/garbled file or any stamp
        mismatch — stale catalogs are rejected wholesale, never entry by
        entry."""
        root = Path(root)
        path = root / CATALOG_FILENAME
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CatalogError(f"cannot read kernel catalog {path}: {exc}") from exc
        except ValueError as exc:
            raise CatalogError(f"garbled kernel catalog {path}: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise CatalogError(f"garbled kernel catalog {path}: not a catalog object")
        stamps = (
            ("schema", data.get("schema"), CATALOG_SCHEMA_VERSION),
            ("codegen_version", data.get("codegen_version"), CODEGEN_VERSION),
            ("cache_format_version", data.get("cache_format_version"),
             CACHE_FORMAT_VERSION),
        )
        for name, got, want in stamps:
            if got != want:
                raise CatalogError(
                    f"stale kernel catalog {path}: {name}={got!r} but this "
                    f"library expects {want!r} — re-run `python -m repro bake`"
                )
        try:
            return cls(root, data)
        except (KeyError, TypeError) as exc:
            raise CatalogError(f"garbled kernel catalog {path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, key_hash: str, kind: str) -> dict | None:
        """The catalog entry for ``(key_hash, kind)``, or ``None`` when
        absent or quarantined."""
        key = (key_hash, kind)
        with self._lock:
            if self._verified.get(key) is False:
                return None
        return self.entries.get(key)

    def artifact_path(self, entry: dict) -> Path:
        return self.root / entry["artifact"]

    def verify(self, entry: dict) -> bool:
        """Whether the entry's artifact matches its recorded sha256 and
        size.  Hashing happens once per entry per process; failures are
        sticky (the entry is quarantined)."""
        key = (entry["key_hash"], entry["kind"])
        with self._lock:
            cached = self._verified.get(key)
        if cached is not None:
            return cached
        path = self.artifact_path(entry)
        try:
            ok = (
                path.stat().st_size == entry.get("size")
                and JitCache._sha256_file(path) == entry.get("sha256")
            )
        except OSError:
            ok = False
        with self._lock:
            self._verified[key] = ok
        return ok

    def quarantine(self, key_hash: str, kind: str) -> None:
        """Mark an entry bad (checksum-clean artifact that still failed
        to dlopen/import) so later lookups fall through to compile."""
        with self._lock:
            self._verified[(key_hash, kind)] = False


def load_catalog(path: str | os.PathLike, cache: JitCache | None = None) -> KernelCatalog:
    """Programmatic attach: load the pack at *path* and install it as the
    catalog tier of *cache* (the process-wide default cache when omitted).
    Unlike the ``$PYGB_CATALOG`` env path — which degrades to a warning —
    this raises :class:`CatalogError` on any problem."""
    catalog = KernelCatalog.load(path)
    cache = cache if cache is not None else default_cache()
    cache.attach_catalog(catalog)
    return catalog


# ----------------------------------------------------------------------
# baking (write side)
# ----------------------------------------------------------------------
def bake_catalog(
    out_dir: str | os.PathLike,
    parallel: bool | None = None,
    max_workers: int | None = None,
    include_pyjit: bool = True,
    include_cpp: bool = True,
) -> dict:
    """Build the full catalog spec space into *out_dir* and write
    ``catalog.json``.

    The pack directory doubles as a :class:`JitCache` directory during
    the bake, so re-baking into an existing pack is incremental (warm
    artifacts are disk hits, not recompiles) and every artifact gets the
    cache's usual sidecar manifest — the catalog's per-entry sha256 is
    read back from those manifests rather than hashed twice.

    Without a C++ toolchain the cpp flavour is skipped with a note in
    the report; the ``.py`` flavour (*include_pyjit*) always bakes, so
    toolchain-free hosts can still produce packs that accelerate the
    pyjit engine.  Failures are collected per spec, not raised.
    """
    from .pycodegen import generate_source

    out_dir = Path(out_dir)
    cache = JitCache(out_dir)
    if cache.relocated:
        raise CatalogError(f"catalog output directory {out_dir} is not writable")

    jobs = []
    cpp_specs: list[KernelSpec] = []
    cpp_skipped = None
    if include_cpp:
        try:
            from .algorithm_codegen import generate_algorithm_source
            from .cppcodegen import generate_cpp_source
            from .cppengine import CppJitEngine

            engine = CppJitEngine(cache)
            if parallel is None:
                parallel = engine.parallel_enabled()
            kernel_specs = catalog_kernel_specs(parallel)
            module_specs = algorithm_module_specs(parallel)
            cpp_specs = kernel_specs + module_specs
            for spec in kernel_specs:
                jobs.append((spec, generate_cpp_source, ".cpp", engine.compiler_for(spec)))
            for spec in module_specs:
                jobs.append((spec, generate_algorithm_source, ".cpp",
                             engine.compiler_for(spec)))
        except BackendUnavailable as exc:
            cpp_skipped = str(exc)
    parallel = bool(parallel)

    py_specs: list[KernelSpec] = []
    if include_pyjit:
        py_specs = pyjit_kernel_specs()
        jobs += [(spec, generate_source, ".py", None) for spec in py_specs]

    t0 = time.perf_counter()
    report = cache.precompile(jobs, max_workers=max_workers)

    entries = []
    missing = []
    for spec, kind in [(s, ".so") for s in cpp_specs] + [(s, ".py") for s in py_specs]:
        artifact = out_dir / f"{spec.module_stem}{kind}"
        manifest = JitCache._manifest_path(artifact)
        try:
            mdata = json.loads(manifest.read_text())
        except (OSError, ValueError):
            missing.append((spec.key, kind))
            continue
        entries.append({
            "key": spec.key,
            "key_hash": spec.key_hash,
            "func": spec.func,
            "kind": kind,
            "artifact": artifact.name,
            "sha256": mdata.get("artifact_sha256"),
            "size": mdata.get("artifact_size"),
        })
    entries.sort(key=lambda e: (e["func"], e["key_hash"], e["kind"]))

    catalog_data = {
        "schema": CATALOG_SCHEMA_VERSION,
        "codegen_version": CODEGEN_VERSION,
        "cache_format_version": CACHE_FORMAT_VERSION,
        "parallel": parallel,
        "entries": entries,
    }
    cache._atomic_write(out_dir / CATALOG_FILENAME,
                        json.dumps(catalog_data, indent=1, sort_keys=True))

    report.update(
        out=str(out_dir),
        entries=len(entries),
        cpp_entries=sum(1 for e in entries if e["kind"] == ".so"),
        py_entries=sum(1 for e in entries if e["kind"] == ".py"),
        missing=missing,
        parallel=parallel,
        cpp_skipped=cpp_skipped,
        seconds=time.perf_counter() - t0,
    )
    return report


def validate_catalog(path: str | os.PathLike) -> dict:
    """Round-trip check of a baked pack: load (version stamps) then
    verify every entry's checksum.  Returns ``{"entries", "ok", "bad"}``
    where *bad* lists the keys of entries whose artifacts fail."""
    catalog = KernelCatalog.load(path)
    bad = [entry["key"] for entry in catalog.entries.values()
           if not catalog.verify(entry)]
    return {"entries": len(catalog), "ok": len(catalog) - len(bad), "bad": bad}
