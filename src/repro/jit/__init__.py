"""The dynamic-compilation pipeline (paper Sec. V, Fig. 9).

Execution of a DSL operation flows

    expression construction → evaluation → dispatch →
    module retrieval (memory cache → kernel pack → disk cache → compile) →
    kernel invocation

with the *module retrieval* stage owned by this package:

* :mod:`~repro.jit.spec` — the canonical kernel specification (operation
  name, operand dtypes, operator names, descriptor flags) and its stable
  hash — the analog of the paper's ``hash(kwargs)``;
* :mod:`~repro.jit.kernels` — the kernel table (one row per kernel
  family, the whole-algorithm PageRank / triangle-count kernels and the
  fast loader's MatrixMarket parser among them) and the one spec builder;
* :mod:`~repro.jit.cache` — memory → pack → disk → compile lookup,
  with hit/miss/compile-time statistics; a kernel pack is a cache
  directory attached as a second, read-only disk tier;
* :mod:`~repro.jit.catalog` — the hot spec space and ``repro bake``,
  which precompiles it into a redistributable pack directory that
  ``$PYGB_CATALOG`` serves without any inline compilation;
* :mod:`~repro.jit.pycodegen` / :mod:`~repro.jit.pyengine` — specialised
  *Python* kernel modules (portable default);
* :mod:`~repro.jit.gbtl_lite` / :mod:`~repro.jit.cppcodegen` /
  :mod:`~repro.jit.cppengine` — per-spec C++ binding files compiled with
  ``g++`` against a bundled mini-GBTL template header and loaded through
  ``ctypes`` (the paper's actual design); every compiled translation
  unit, the whole-algorithm ones behind the paper's "version 2"/"version
  3" measurement points included, comes from ``cppcodegen``.
"""

from .cache import JitCache, cache_statistics, clear_memory_cache, default_cache
from .catalog import (
    bake_catalog,
    catalog_kernel_specs,
    load_catalog,
    pyjit_kernel_specs,
    validate_catalog,
)
from .precompile import algorithm_kernel_specs, warm_cache
from .spec import KernelSpec

__all__ = [
    "KernelSpec",
    "JitCache",
    "default_cache",
    "cache_statistics",
    "clear_memory_cache",
    "warm_cache",
    "algorithm_kernel_specs",
    "bake_catalog",
    "catalog_kernel_specs",
    "load_catalog",
    "pyjit_kernel_specs",
    "validate_catalog",
]
