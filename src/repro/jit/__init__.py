"""The dynamic-compilation pipeline (paper Sec. V, Fig. 9).

Execution of a DSL operation flows

    expression construction → evaluation → dispatch →
    module retrieval (memory cache → catalog → disk cache → compile) →
    kernel invocation

with the *module retrieval* stage owned by this package:

* :mod:`~repro.jit.spec` — the canonical kernel specification (operation
  name, operand dtypes, operator names, descriptor flags) and its stable
  hash — the analog of the paper's ``hash(kwargs)``;
* :mod:`~repro.jit.kernels` — the kernel table (one row per kernel
  family) and the one builder of per-operation specs;
* :mod:`~repro.jit.cache` — memory → catalog → disk → compile lookup,
  with hit/miss/compile-time statistics;
* :mod:`~repro.jit.catalog` — the AOT kernel catalog: ``repro bake``
  compiles the hot spec space into a redistributable pack that
  ``$PYGB_CATALOG`` serves without any inline compilation;
* :mod:`~repro.jit.pycodegen` / :mod:`~repro.jit.pyengine` — specialised
  *Python* kernel modules (portable default);
* :mod:`~repro.jit.gbtl_lite` / :mod:`~repro.jit.cppcodegen` /
  :mod:`~repro.jit.cppengine` — per-spec C++ binding files compiled with
  ``g++`` against a bundled mini-GBTL template header and loaded through
  ``ctypes`` (the paper's actual design);
* :mod:`~repro.jit.algorithm_codegen` — whole-algorithm C++ modules (the
  paper's "version 2"/"version 3" measurement points).
"""

from .cache import JitCache, cache_statistics, clear_memory_cache, default_cache
from .catalog import (
    KernelCatalog,
    bake_catalog,
    catalog_kernel_specs,
    load_catalog,
    pyjit_kernel_specs,
    validate_catalog,
)
from .precompile import algorithm_kernel_specs, algorithm_module_specs, warm_cache
from .spec import KernelSpec

__all__ = [
    "KernelSpec",
    "JitCache",
    "default_cache",
    "cache_statistics",
    "clear_memory_cache",
    "warm_cache",
    "algorithm_kernel_specs",
    "algorithm_module_specs",
    "KernelCatalog",
    "bake_catalog",
    "catalog_kernel_specs",
    "load_catalog",
    "pyjit_kernel_specs",
    "validate_catalog",
]
