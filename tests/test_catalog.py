"""AOT kernel catalog tests: baking, the catalog lookup tier, wholesale
version rejection vs per-entry checksum fall-through, read-only packs —
plus regression tests for the cache bugs the catalog work exposed
(key-lock leak, precompile report inflation, $PYGB_COMPILE_JOBS parsing)
and the cross-process compile race.

Everything here bakes the ``.py`` kernel flavour only, so the tests run
(fast) on toolchain-free hosts; the cpp flavour goes through the same
``JitCache``/``precompile`` machinery and is exercised end-to-end by the
CI cold-start leg (``benchmarks/check_cold_start.py``).
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from repro.exceptions import CatalogError, JitFallbackWarning
from repro.jit.cache import JitCache, default_compile_jobs
from repro.jit.catalog import (
    CATALOG_FILENAME,
    KernelCatalog,
    bake_catalog,
    catalog_kernel_specs,
    load_catalog,
    pyjit_kernel_specs,
    validate_catalog,
)
from repro.jit.cppengine import toolchain_works
from repro.jit.precompile import algorithm_kernel_specs
from repro.jit.pycodegen import generate_source
from repro.jit.spec import KernelSpec


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    """One .py-flavour pack shared by the read-side tests (baking 129
    specs once instead of per-test)."""
    out = tmp_path_factory.mktemp("pack")
    report = bake_catalog(out, include_cpp=False)
    assert report["failed"] == []
    assert report["py_entries"] == report["entries"] > 0
    return out


def _pyjit_spec() -> KernelSpec:
    """A spec guaranteed to be in the pack's .py flavour (pyjit specs
    carry the ta transpose flag)."""
    return KernelSpec.make(
        "mxv", a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", ta=False, mask="none", comp=0, repl=0,
        accum="none",
    )


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def test_catalog_specs_cover_algorithm_set():
    """Tier 1 of the enumeration is the traced algorithm kernel list, so
    the catalog inherits precompile's drift guard: every algorithm spec
    must appear in the catalog space, in both flavours."""
    for parallel in (False, True):
        catalog = {s.key_hash for s in catalog_kernel_specs(parallel)}
        algo = {s.key_hash for s in algorithm_kernel_specs(parallel)}
        assert algo <= catalog


def test_catalog_specs_deduplicated():
    specs = catalog_kernel_specs()
    assert len({s.key_hash for s in specs}) == len(specs)


def test_catalog_enumerates_only_kernels_an_engine_dispatches():
    """Every baked shape is one an engine method can ask for — in
    particular the only ``fused`` specs are the reduce-site pair."""
    from repro.backend.kernels import FUSED_KERNELS
    from repro.core.dispatch import _DISPATCH_METHODS

    cpp, pyjit = catalog_kernel_specs(), pyjit_kernel_specs()
    for spec in cpp + pyjit:
        # normalize_rows is the cpp engine's one helper outside the interface
        assert spec.func in _DISPATCH_METHODS | {"normalize_rows"}, spec.key
        assert bool(spec.get("fused")) == (spec.func in FUSED_KERNELS), spec.key
    assert {s.func for s in cpp if s.get("fused")} == FUSED_KERNELS
    assert (len(cpp), len(pyjit)) == (240, 436)


# ----------------------------------------------------------------------
# bake + serve round trip
# ----------------------------------------------------------------------
def test_catalog_hit_serves_without_compile(pack, tmp_path):
    cache = JitCache(tmp_path / "cold")
    load_catalog(pack, cache)
    mod = cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    snap = cache.stats.snapshot()
    assert snap["compiles"] == 0
    assert snap["disk_hits"] == 0
    assert snap["catalog_hits"] == 1
    assert snap["catalog_misses"] == 0
    # second lookup is a memory hit, not a second catalog probe
    cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert cache.stats.snapshot()["catalog_hits"] == 1
    assert cache.stats.snapshot()["memory_hits"] == 1


def test_catalog_miss_counted_only_with_catalog_attached(pack, tmp_path):
    cache = JitCache(tmp_path / "cold")
    spec = KernelSpec.make("reduce_vec_scalar", a="int32", op="Max")
    cache.get_module(spec, generate_source, suffix=".py")
    assert cache.stats.snapshot()["catalog_misses"] == 0  # no pack attached
    load_catalog(pack, cache)
    spec2 = KernelSpec.make("reduce_vec_scalar", a="int16", op="Max")
    cache.get_module(spec2, generate_source, suffix=".py")
    snap = cache.stats.snapshot()
    assert snap["catalog_misses"] == 1
    assert snap["compiles"] == 2


def test_bake_is_incremental(pack):
    """Re-baking into an existing pack reuses the artifacts on disk."""
    report = bake_catalog(pack, include_cpp=False)
    assert report["failed"] == []
    assert report["compiled"] == 0
    assert report["disk_hits"] == report["requested"]


def test_validate_catalog_round_trip(pack):
    check = validate_catalog(pack)
    assert check["bad"] == []
    assert check["ok"] == check["entries"] > 0


# ----------------------------------------------------------------------
# wholesale rejection (version stamps) vs per-entry fall-through
# ----------------------------------------------------------------------
def _rewrite_catalog(pack: Path, **overrides):
    path = pack / CATALOG_FILENAME
    data = json.loads(path.read_text())
    data.update(overrides)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("field", ["schema", "codegen_version", "cache_format_version"])
def test_stale_version_stamp_rejected_wholesale(pack, tmp_path, field):
    stale = tmp_path / "stale"
    stale.mkdir()
    for p in pack.iterdir():
        (stale / p.name).write_bytes(p.read_bytes())
    _rewrite_catalog(stale, **{field: 999})
    with pytest.raises(CatalogError, match="stale kernel catalog"):
        KernelCatalog.load(stale)
    # programmatic attach is strict too
    with pytest.raises(CatalogError):
        load_catalog(stale, JitCache(tmp_path / "cold"))


def test_garbled_catalog_rejected(tmp_path):
    (tmp_path / CATALOG_FILENAME).write_text("{not json")
    with pytest.raises(CatalogError, match="garbled"):
        KernelCatalog.load(tmp_path)
    with pytest.raises(CatalogError, match="cannot read"):
        KernelCatalog.load(tmp_path / "nowhere")


def test_env_catalog_degrades_to_warning(pack, tmp_path, monkeypatch):
    """$PYGB_CATALOG pointing at a stale/garbled pack must not break the
    process: the cache warns, records the reason for `repro doctor`, and
    serves the normal compile path."""
    stale = tmp_path / "stale"
    stale.mkdir()
    for p in pack.iterdir():
        (stale / p.name).write_bytes(p.read_bytes())
    _rewrite_catalog(stale, codegen_version=999)
    monkeypatch.setenv("PYGB_CATALOG", str(stale))
    with pytest.warns(JitFallbackWarning, match="ignoring \\$PYGB_CATALOG"):
        cache = JitCache(tmp_path / "cold")
    assert cache.catalog is None
    assert "stale kernel catalog" in cache.catalog_error
    mod = cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    assert cache.stats.snapshot()["compiles"] == 1


def test_env_catalog_attaches(pack, tmp_path, monkeypatch):
    monkeypatch.setenv("PYGB_CATALOG", str(pack))
    cache = JitCache(tmp_path / "cold")
    assert cache.catalog is not None
    assert len(cache.catalog) > 0
    assert cache.catalog_error is None


def test_checksum_mismatch_falls_through_to_compile(pack, tmp_path):
    """A single corrupted artifact quarantines that entry only; the
    lookup degrades to a normal compile and every other entry still
    serves."""
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in pack.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    spec = _pyjit_spec()
    (broken / f"{spec.module_stem}.py").write_text("garbage ][")
    cache = JitCache(tmp_path / "cold")
    load_catalog(broken, cache)
    mod = cache.get_module(spec, generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    snap = cache.stats.snapshot()
    assert snap["catalog_misses"] == 1
    assert snap["compiles"] == 1
    # an intact entry still serves from the same pack
    other = KernelSpec.make(
        "vxm", a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", ta=False, mask="none", comp=0, repl=0,
        accum="none",
    )
    cache.get_module(other, generate_source, suffix=".py")
    assert cache.stats.snapshot()["catalog_hits"] == 1
    check = validate_catalog(broken)
    assert check["bad"] == [spec.key]


def test_unloadable_entry_quarantined(pack, tmp_path):
    """Checksum-clean but unimportable (pack baked from a broken file
    that was then faithfully checksummed): quarantine + recompile, once."""
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in pack.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    spec = _pyjit_spec()
    bad = b"raise RuntimeError('baked broken')\n"
    (broken / f"{spec.module_stem}.py").write_bytes(bad)
    path = broken / CATALOG_FILENAME
    data = json.loads(path.read_text())
    for entry in data["entries"]:
        if entry["key_hash"] == spec.key_hash:
            entry["sha256"] = JitCache._sha256_file(broken / f"{spec.module_stem}.py")
            entry["size"] = len(bad)
    path.write_text(json.dumps(data))
    cache = JitCache(tmp_path / "cold")
    catalog = load_catalog(broken, cache)
    mod = cache.get_module(spec, generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    assert cache.stats.snapshot()["compiles"] == 1
    assert catalog.entry(spec.key_hash, ".py") is None  # quarantined


def test_readonly_catalog_dir(pack, tmp_path):
    """Packs are served in place (no copy into the cache dir), so a
    read-only pack — a container image layer, a shared mount — works."""
    os.chmod(pack, 0o555)
    try:
        cache = JitCache(tmp_path / "cold")
        load_catalog(pack, cache)
        mod = cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
        assert callable(getattr(mod, "run"))
        assert cache.stats.snapshot()["catalog_hits"] == 1
        assert cache.stats.snapshot()["compiles"] == 0
    finally:
        os.chmod(pack, 0o755)


def test_bake_into_unwritable_dir_raises(tmp_path):
    if getattr(os, "geteuid", lambda: 1)() == 0:
        pytest.skip("root ignores directory modes")
    target = tmp_path / "ro"
    target.mkdir()
    os.chmod(target, 0o555)
    try:
        with pytest.raises(CatalogError, match="not writable"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", JitFallbackWarning)
                bake_catalog(target / "pack", include_cpp=False)
    finally:
        os.chmod(target, 0o755)


# ----------------------------------------------------------------------
# satellite regression tests
# ----------------------------------------------------------------------
def test_key_locks_pruned_after_module_resident(tmp_path):
    """Regression: one lock per (spec, kind) used to accumulate forever —
    a leak for long-running services and for bake's hundreds of specs."""
    cache = JitCache(tmp_path)
    specs = [KernelSpec.make("reduce_vec_scalar", a=d, op="Plus")
             for d in ("int8", "int16", "int32")]
    for spec in specs:
        cache.get_module(spec, generate_source, suffix=".py")
    assert cache._key_locks == {}
    # ... including when the module arrives via the catalog tier
    pack_dir = tmp_path / "pack"
    bake_catalog(pack_dir, include_cpp=False)
    cold = JitCache(tmp_path / "cold")
    load_catalog(pack_dir, cold)
    cold.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert cold._key_locks == {}


def test_precompile_report_not_inflated_by_foreground_traffic(tmp_path):
    """Regression: the report was computed as global-counter deltas, so
    compiles triggered *from inside* a job's generate call (or by any
    concurrent foreground thread) were billed to the precompile batch.
    Outcomes are now attributed per submitted job."""
    cache = JitCache(tmp_path)
    inner = KernelSpec.make("reduce_vec_scalar", a="int64", op="Plus")
    outer = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")

    def generate_with_foreground(spec):
        # a "foreground" dispatch on another spec while the pool works
        cache.get_module(inner, generate_source, suffix=".py")
        return generate_source(spec)

    report = cache.precompile([(outer, generate_with_foreground, ".py", None)])
    assert cache.stats.snapshot()["compiles"] == 2  # both really compiled
    assert report["requested"] == 1
    assert report["compiled"] == 1  # ... but only one was this batch's job
    assert report["disk_hits"] == report["memory_hits"] == 0
    assert report["catalog_hits"] == 0


def test_precompile_reports_catalog_hits(tmp_path):
    pack_dir = tmp_path / "pack"
    bake_catalog(pack_dir, include_cpp=False)
    cache = JitCache(tmp_path / "cold")
    load_catalog(pack_dir, cache)
    report = cache.precompile([(_pyjit_spec(), generate_source, ".py", None)])
    assert report["catalog_hits"] == 1
    assert report["compiled"] == 0


@pytest.mark.filterwarnings("ignore:pygb. bad")  # monkeypatch's undo passes back through them
def test_compile_jobs_env_rejects_garbage(monkeypatch):
    """Regression: an unparseable $PYGB_COMPILE_JOBS was silently
    swallowed and 0/negative clamped to one worker; now it warns once,
    where the configuration is parsed, and uses the default."""
    default = max(2, min(8, 2 * (os.cpu_count() or 1)))
    for bad in ("banana", "0", "-3"):
        with pytest.warns(UserWarning, match="bad \\$PYGB_COMPILE_JOBS"):
            monkeypatch.setenv("PYGB_COMPILE_JOBS", bad)
        # ... and not again on use
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_compile_jobs() == default


def test_compile_jobs_env_valid_value(monkeypatch):
    monkeypatch.setenv("PYGB_COMPILE_JOBS", "5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_compile_jobs() == 5


# ----------------------------------------------------------------------
# cross-process compile race (the os.replace path)
# ----------------------------------------------------------------------
def test_cross_process_cache_race(tmp_path):
    """Two processes compiling the same spec into one cache directory
    must both import a complete artifact: writers build under a unique
    temp name and ``os.replace`` it into place, so a reader can never
    see a half-written module."""
    child = textwrap.dedent(
        """
        import sys, time
        from repro.jit.cache import JitCache
        from repro.jit.pycodegen import generate_source
        from repro.jit.spec import KernelSpec

        cache = JitCache(sys.argv[1])
        spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")

        def slow_generate(s):
            time.sleep(0.5)  # widen the race window past process startup skew
            return generate_source(s)

        mod = cache.get_module(spec, slow_generate, suffix=".py")
        assert callable(mod.run)
        print("OK", cache.stats.compiles)
        """
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.startswith("OK")
    # whichever writer lost the os.replace race, the survivor artifact
    # must be complete and checksum-clean for the next process
    cache = JitCache(tmp_path)
    spec = KernelSpec.make("reduce_vec_scalar", a="float64", op="Plus")
    cache.get_module(spec, generate_source, suffix=".py")
    assert cache.stats.snapshot()["disk_hits"] == 1
    assert cache.stats.snapshot()["compiles"] == 0


def test_same_process_race_dedupes_to_one_compile(tmp_path):
    """In-process, the per-key lock dedupes concurrent lookups of one
    spec into a single compile (and the loser threads get memory hits)."""
    cache = JitCache(tmp_path)
    spec = KernelSpec.make("reduce_vec_scalar", a="int64", op="Min")
    results = []

    def worker():
        results.append(cache.get_module(spec, generate_source, suffix=".py"))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(m) for m in results}) == 1
    assert cache.stats.snapshot()["compiles"] == 1


@pytest.mark.cpp
@pytest.mark.skipif(not toolchain_works(), reason="no working C++ toolchain")
def test_pack_serves_normalize_rows_without_a_compiler(tmp_path, monkeypatch, no_faults):
    """A deployment with the pack and a compiler that fails every build:
    PageRank's ``normalize_rows`` kernel loads from the pack, 0 compiles."""
    import numpy as np

    import repro as gb
    from repro import utilities
    from repro.jit import catalog
    from repro.jit.cppengine import CppJitEngine

    spec = KernelSpec.make("normalize_rows", a="float64", c="float64")
    assert spec in algorithm_kernel_specs()
    monkeypatch.setattr(catalog, "catalog_kernel_specs", lambda parallel=False: [spec])
    monkeypatch.setattr(catalog, "algorithm_module_specs", lambda parallel=False: [])
    monkeypatch.delenv("PYGB_CATALOG", raising=False)
    report = bake_catalog(tmp_path / "pack", include_pyjit=False)
    assert report["failed"] == [] and report["cpp_entries"] == 1

    bogus = tmp_path / "failing-g++"
    bogus.write_text("#!/bin/sh\nexit 1\n")
    bogus.chmod(0o755)
    monkeypatch.setenv("PYGB_CXX", str(bogus))
    cache = JitCache(tmp_path / "cold")
    load_catalog(tmp_path / "pack", cache)
    m = gb.Matrix(np.array([[1.0, 3.0], [0.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", JitFallbackWarning)
        with gb.use_engine(CppJitEngine(cache)):
            utilities.normalize_rows(m)
    assert m.to_numpy().tolist() == [[0.25, 0.75], [0.0, 1.0]]
    snap = cache.stats.snapshot()
    assert (snap["compiles"], snap["catalog_hits"]) == (0, 1)
