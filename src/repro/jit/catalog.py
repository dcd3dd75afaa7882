"""Kernel packs: the JIT disk cache, built ahead of time.

The paper amortizes dynamic compilation "over future runs of the same
code", but every *first* ``(op, dtypes, operators)`` spec in a fresh
cache directory still pays an inline ``g++`` compile.  DAPHNE's
``genKernelInst.py`` pre-instantiation pipeline and GraphBLAST's fixed
pre-built kernel library show the hot spec space is enumerable ahead of
time; this module does exactly that for PyGB:

* :func:`catalog_kernel_specs` enumerates the hot spec space — the
  ``traced`` and ``grid`` columns of the kernel table
  (:mod:`~repro.jit.kernels`): the algorithm kernel set
  :mod:`~repro.jit.precompile` warms (kept honest by its drift guard;
  the whole-algorithm and loader rows among it),
  a predefined-semiring × dtype × schedule-direction grid, its
  elementwise and reduction companions and the reduce-site fused pair;
* :func:`bake_catalog` precompiles those specs with the concurrent
  compile pool (:meth:`JitCache.precompile`) into one cache directory —
  artifacts, sources, sidecar manifests, the ``CACHE_FORMAT`` stamp and
  no index: that directory is the pack;
* :func:`load_catalog` (or ``$PYGB_CATALOG``) attaches it to a
  :class:`JitCache` as a read-only tier before its own directory, so a
  fresh process's first op is a pack hit, not a compile.

Invalidation is the spec key plus the stamp: a pack with a missing or
different ``CACHE_FORMAT`` stamp is rejected wholesale
(:class:`~repro.exceptions.CatalogError`); a pack from another
``CODEGEN_VERSION`` attaches and serves no hits, because every spec key
embeds it; an artifact that fails its manifest check, or fails to load,
falls through to the own directory and the compiler.  Nothing writes to
an attached pack, so read-only ones (image layers, shared mounts) work.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..exceptions import BackendUnavailable, CatalogError
from .cache import JitCache, default_cache, open_pack
from .kernels import KERNELS, PLAIN, spec
from .precompile import cpp_jobs
from .spec import KernelSpec

__all__ = [
    "catalog_kernel_specs",
    "pyjit_kernel_specs",
    "bake_catalog",
    "validate_catalog",
    "load_catalog",
]


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


def load_catalog(path: str | os.PathLike, cache: JitCache | None = None) -> Path:
    """Programmatic attach: install the pack at *path* as the pack tier
    of *cache* (the process-wide default cache when omitted) and return
    its directory.  Unlike the ``$PYGB_CATALOG`` env path — which
    degrades to a warning — this raises :class:`CatalogError` when the
    directory is missing or its ``CACHE_FORMAT`` stamp is wrong."""
    cache = cache if cache is not None else default_cache()
    cache.attach_pack(path)
    return cache.pack


def bake_catalog(
    out_dir: str | os.PathLike,
    parallel: bool | None = None,
    max_workers: int | None = None,
    include_pyjit: bool = True,
    include_cpp: bool = True,
) -> dict:
    """Precompile the catalog spec space into the cache directory
    *out_dir*, which is then the pack; re-baking is incremental.

    Without a C++ toolchain the cpp flavour is skipped with a note in the
    report; the ``.py`` flavour (*include_pyjit*) always bakes.  Failures
    are collected per spec, not raised.  The report is
    :meth:`JitCache.precompile`'s plus ``out``, ``parallel``,
    ``cpp_skipped`` and ``artifacts``: the ``(spec, kind)`` pairs
    requested, which :func:`validate_catalog` checks.
    """
    from .pycodegen import generate_source

    out_dir = Path(out_dir)
    cache = JitCache(out_dir)
    if cache.relocated:
        raise CatalogError(f"catalog output directory {out_dir} is not writable")

    jobs = []
    cpp_skipped = None
    if include_cpp:
        try:
            _, parallel, jobs = cpp_jobs(cache, catalog_kernel_specs, parallel)
        except BackendUnavailable as exc:
            cpp_skipped = str(exc)
    if include_pyjit:
        jobs += [(spec, generate_source, ".py", None) for spec in pyjit_kernel_specs()]

    report = cache.precompile(jobs, max_workers=max_workers)
    report.update(
        out=str(out_dir),
        artifacts=[(spec, ".py" if suffix == ".py" else ".so") for spec, _, suffix, _ in jobs],
        parallel=bool(parallel),
        cpp_skipped=cpp_skipped,
    )
    return report


def validate_catalog(path: str | os.PathLike, artifacts) -> dict:
    """Round-trip check of a baked pack, read the way a consumer process
    reads it: open *path* as a pack (its stamp), then run the pack tier's
    manifest check on the artifact of every ``(spec, kind)`` in
    *artifacts*.  Returns ``{"entries", "ok", "bad"}`` where *bad* lists
    the keys whose artifacts fail."""
    root = open_pack(path)
    artifacts = list(artifacts)
    bad = [spec.key for spec, kind in artifacts
           if not JitCache._artifact_intact(root / f"{spec.module_stem}{kind}")]
    return {"entries": len(artifacts), "ok": len(artifacts) - len(bad), "bad": bad}
