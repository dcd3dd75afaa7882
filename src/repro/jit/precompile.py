"""Ahead-of-time cache warming (non-blocking compilation, paper Sec. V).

The paper notes that dynamic compilation "can be amortized over future
runs" but every *first* run still pays the g++ latency inline.  This
module removes that cost up front: :func:`warm_cache` fans the known
algorithm kernel set out over :meth:`JitCache.precompile`'s thread pool,
so by the time an algorithm dispatches its first operation the shared
object is already on disk (a cache hit, not a compile).

The spec list is the ``traced`` column of the kernel table
(:mod:`~repro.jit.kernels`), captured by tracing every bundled algorithm
(BFS, SSSP, PageRank, triangle count — both the operation-at-a-time and
the whole-algorithm compiled versions — and the fast MatrixMarket
loader) under the ``cpp`` engine; the
``test_warm_cache_covers_algorithms`` drift guard re-derives it the same
way, so additions to the algorithms fail loudly here instead of silently
compiling at run time.
"""

from __future__ import annotations

from ..exceptions import CompilationError
from .cache import JitCache, default_cache
from .cppcodegen import generate_cpp_source
from .kernels import KERNELS, spec
from .spec import KernelSpec

__all__ = ["algorithm_kernel_specs", "cpp_jobs", "warm_cache"]


def algorithm_kernel_specs(parallel: bool = False) -> list[KernelSpec]:
    """The kernel specs the bundled algorithms and the loader use, with
    ``par=1`` stamped on parallel-capable functions when *parallel*."""
    return [spec(func, *use, parallel=parallel)
            for func, row in KERNELS.items() for use in row.traced]


def cpp_jobs(cache: JitCache, specs_of, parallel: bool | None = None):
    """``(engine, parallel, jobs)``: a cpp engine on *cache*, the
    artifact flavour (*parallel*, or when ``None`` whatever the engine
    would dispatch right now — ``$PYGB_PARALLEL`` plus the ``-fopenmp``
    probe) and the :meth:`JitCache.precompile` jobs for
    ``specs_of(parallel)``.  Raises :class:`BackendUnavailable` without
    a toolchain."""
    # imported late: cppengine raises BackendUnavailable without a
    # toolchain, and importing it triggers no probe by itself
    from .cppengine import CppJitEngine

    engine = CppJitEngine(cache)
    if parallel is None:
        parallel = engine.parallel_enabled()
    return engine, parallel, [(spec, generate_cpp_source, ".cpp", engine.compiler_for(spec))
                              for spec in specs_of(parallel)]


def warm_cache(
    cache: JitCache | None = None,
    parallel: bool | None = None,
    max_workers: int | None = None,
) -> dict:
    """Pre-build the algorithm kernel set with concurrent g++ jobs.

    *parallel* selects which artifact flavour to warm (see
    :func:`cpp_jobs`).  Returns the :meth:`JitCache.precompile`
    report dict with ``openmp`` and ``parallel`` keys added.
    """
    from .cppengine import openmp_available

    cache = cache if cache is not None else default_cache()
    engine, parallel, jobs = cpp_jobs(cache, algorithm_kernel_specs, parallel)
    report = cache.precompile(jobs, max_workers=max_workers)
    # failed specs are recorded against the cpp engine's health up front,
    # so a later algorithm run skips straight to the fallback chain (and
    # ``repro doctor`` shows what precompilation discovered); the report
    # itself is the user-facing signal here, so the per-spec fallback
    # warnings are suppressed
    if report["failed"]:
        import warnings

        from ..exceptions import JitFallbackWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JitFallbackWarning)
            for key, err in report["failed"]:
                cache.note_jit_failure()
                cache.health.record_failure(engine.name, key, CompilationError(err))
    report["parallel"] = parallel
    report["openmp"] = openmp_available(engine.cxx)
    return report
