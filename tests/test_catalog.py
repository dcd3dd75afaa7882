"""Kernel pack tests: baking, the pack lookup tier, wholesale
``CACHE_FORMAT`` rejection vs per-artifact checksum fall-through, stale
code generators, read-only and never-written packs —
plus regression tests for the cache bugs the catalog work exposed
(key-lock leak, precompile report inflation, the precompile pool size)
and the cross-process compile race.

Everything here bakes the ``.py`` kernel flavour only, so the tests run
(fast) on toolchain-free hosts; the cpp flavour goes through the same
``JitCache``/``precompile`` machinery and is exercised end-to-end by the
CI cold-start leg (``benchmarks/check_cold_start.py``).
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

from repro.exceptions import CatalogError, JitFallbackWarning
from repro.jit import catalog as catalog_module
from repro.jit import spec as spec_module
from repro.jit.cache import DEFAULT_COMPILE_JOBS, JitCache, reset_default_cache
from repro.jit.catalog import (
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
    assert {kind for _, kind in report["artifacts"]} == {".py"}
    assert report["compiled"] == len(report["artifacts"]) > 0
    assert not (out / "catalog.json").exists()  # the directory is the pack
    return out


def _copy(pack: Path, dest: Path) -> Path:
    shutil.copytree(pack, dest)
    return dest


def _py_artifacts():
    return [(s, ".py") for s in pyjit_kernel_specs()]


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
    from repro.jit.cppengine import CppJitEngine

    # the cpp engine's methods outside the interface: GBTL's normalize_rows
    # helper, the whole algorithms and the fast loader's parser
    helpers = {"normalize_rows", "pagerank", "triangle_count", "mmread"}
    assert all(callable(getattr(CppJitEngine, f)) for f in helpers)
    cpp, pyjit = catalog_kernel_specs(), pyjit_kernel_specs()
    for spec in cpp + pyjit:
        assert spec.func in _DISPATCH_METHODS | helpers, spec.key
        assert bool(spec.get("fused")) == (spec.func in FUSED_KERNELS), spec.key
    assert {s.func for s in cpp if s.get("fused")} == FUSED_KERNELS
    assert (len(cpp), len(pyjit)) == (244, 431)


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


def test_bake_under_an_attached_pack_builds_every_artifact(pack, tmp_path, monkeypatch):
    """A bake's cache never reads ``$PYGB_CATALOG``'s pack: a spec that
    pack holds is still built into the new one, and a pack that cannot
    be attached gives the bake no warning."""
    monkeypatch.setenv("PYGB_CATALOG", str(pack))
    monkeypatch.setattr(catalog_module, "pyjit_kernel_specs", lambda: [_pyjit_spec()])
    report = bake_catalog(tmp_path / "pack", include_cpp=False)
    assert (report["compiled"], report["catalog_hits"]) == (1, 0)
    assert validate_catalog(tmp_path / "pack", report["artifacts"])["bad"] == []
    monkeypatch.setenv("PYGB_CATALOG", str(tmp_path / "nowhere"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bake_catalog(tmp_path / "pack", include_cpp=False)["disk_hits"] == 1


def test_validate_catalog_round_trip(pack):
    """Every baked spec's artifact passes the pack tier's manifest check;
    a spec the pack lacks does not."""
    check = validate_catalog(pack, _py_artifacts())
    assert check["bad"] == []
    assert check["ok"] == check["entries"] == len(pyjit_kernel_specs())
    absent = KernelSpec.make("reduce_vec_scalar", a="int16", op="Max")
    assert validate_catalog(pack, [(absent, ".py")])["bad"] == [absent.key]


# ----------------------------------------------------------------------
# wholesale rejection (the CACHE_FORMAT stamp) vs per-artifact fall-through
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stamp", ["999\n", None], ids=["cache_format_version", "missing"])
def test_stale_version_stamp_rejected_wholesale(pack, tmp_path, stamp):
    stale = _copy(pack, tmp_path / "stale")
    if stamp is None:
        (stale / "CACHE_FORMAT").unlink()
    else:
        (stale / "CACHE_FORMAT").write_text(stamp)
    with pytest.raises(CatalogError, match="CACHE_FORMAT stamp"):
        load_catalog(stale, JitCache(tmp_path / "cold"))


def test_garbled_catalog_rejected(tmp_path):
    """A directory that is not a pack, or no directory at all."""
    (tmp_path / "CACHE_FORMAT").write_text("{not a number")
    with pytest.raises(CatalogError, match="no readable CACHE_FORMAT stamp"):
        load_catalog(tmp_path, JitCache(tmp_path / "cold"))
    with pytest.raises(CatalogError, match="nowhere has no readable CACHE_FORMAT stamp"):
        load_catalog(tmp_path / "nowhere", JitCache(tmp_path / "cold2"))


def test_pack_from_another_codegen_version_attaches(tmp_path, monkeypatch):
    """Every spec key embeds ``CODEGEN_VERSION``: a pack baked by another
    code generator attaches without error and simply serves no hits."""
    with monkeypatch.context() as patch:
        patch.setattr(spec_module, "CODEGEN_VERSION", 999)
        stale_spec = _pyjit_spec()
        assert stale_spec.key.startswith("v999:")
        patch.setattr(catalog_module, "pyjit_kernel_specs", lambda: [stale_spec])
        report = bake_catalog(tmp_path / "pack", include_cpp=False)
    assert report["failed"] == [] and report["compiled"] == 1
    cache = JitCache(tmp_path / "cold")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_catalog(tmp_path / "pack", cache)
    mod = cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    snap = cache.stats.snapshot()
    assert (snap["catalog_hits"], snap["catalog_misses"], snap["compiles"]) == (0, 1, 1)


@pytest.fixture
def env_default_cache(tmp_path, monkeypatch):
    """Builds the process-wide cache on a fresh directory under the
    test's environment; the suite's default cache comes back after."""
    monkeypatch.setenv("PYGB_CACHE_DIR", str(tmp_path / "cold"))
    yield reset_default_cache
    monkeypatch.undo()
    reset_default_cache()


def test_env_catalog_degrades_to_warning(pack, tmp_path, monkeypatch, env_default_cache):
    """$PYGB_CATALOG pointing at a pack of another cache format must not
    break the process: the cache warns, records the reason for `repro
    doctor`, and serves the normal compile path."""
    stale = _copy(pack, tmp_path / "stale")
    (stale / "CACHE_FORMAT").write_text("999\n")
    monkeypatch.setenv("PYGB_CATALOG", str(stale))
    with pytest.warns(JitFallbackWarning, match="ignoring \\$PYGB_CATALOG"):
        cache = env_default_cache()
    assert cache.pack is None
    assert "format 999 CACHE_FORMAT stamp" in cache.pack_error
    mod = cache.get_module(_pyjit_spec(), generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    assert cache.stats.snapshot()["compiles"] == 1


def test_env_catalog_attaches(pack, tmp_path, monkeypatch, env_default_cache):
    """$PYGB_CATALOG attaches to the process-wide cache only; a cache
    built directly has no pack until ``load_catalog``."""
    monkeypatch.setenv("PYGB_CATALOG", str(pack))
    cache = env_default_cache()
    assert cache.pack == pack
    assert cache.pack_error is None
    assert JitCache(tmp_path / "own").pack is None


def test_checksum_mismatch_falls_through_to_compile(pack, tmp_path):
    """A single corrupted artifact quarantines that entry only; the
    lookup degrades to a normal compile and every other entry still
    serves."""
    broken = _copy(pack, tmp_path / "broken")
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
    check = validate_catalog(broken, _py_artifacts())
    assert check["bad"] == [spec.key]


def _bake_unimportable(pack: Path, spec: KernelSpec) -> None:
    """Replace *spec*'s pack artifact by a module that raises on import,
    with a manifest that faithfully records it."""
    artifact = pack / f"{spec.module_stem}.py"
    artifact.write_bytes(b"raise RuntimeError('baked broken')\n")
    manifest = JitCache._manifest_path(artifact)
    data = json.loads(manifest.read_text())
    data.update(artifact_sha256=JitCache._sha256_file(artifact),
                artifact_size=artifact.stat().st_size)
    manifest.write_text(json.dumps(data))


def test_unloadable_entry_quarantined(pack, tmp_path):
    """Checksum-clean but unimportable (pack baked from a broken file
    whose manifest then faithfully recorded it): quarantine + recompile,
    once."""
    broken = _copy(pack, tmp_path / "broken")
    spec = _pyjit_spec()
    _bake_unimportable(broken, spec)
    cache = JitCache(tmp_path / "cold")
    load_catalog(broken, cache)
    mod = cache.get_module(spec, generate_source, suffix=".py")
    assert callable(getattr(mod, "run"))
    assert cache.stats.snapshot()["compiles"] == 1
    assert (spec.key_hash, ".py") in cache._pack_bad  # quarantined
    # once out of memory, the lookup skips the bad pack artifact for the
    # own directory's rebuilt copy
    cache.clear_memory()
    cache.get_module(spec, generate_source, suffix=".py")
    snap = cache.stats.snapshot()
    assert (snap["catalog_misses"], snap["disk_hits"], snap["compiles"]) == (2, 1, 1)


def _fingerprint(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_pack_is_never_written(pack, tmp_path):
    """A checksum-bad artifact and an unimportable one each fall through
    to one compile, an intact one is a hit, and the pack directory stays
    byte-for-byte as it was: no stamp, no sweep, no discard, and no
    ``__pycache__`` from importing its ``.py`` artifacts."""
    broken = _copy(pack, tmp_path / "broken")
    corrupt = _pyjit_spec()
    (broken / f"{corrupt.module_stem}.py").write_text("garbage ][")
    unimportable = KernelSpec.make(
        "vxm", a="float64", u="float64", c="float64", t_dtype="float64",
        add="Plus", mult="Times", ta=False, mask="none", comp=0, repl=0,
        accum="none",
    )
    _bake_unimportable(broken, unimportable)
    # an orphaned temp file a cache directory would sweep
    (broken / "pygb_orphan.py.1.1.tmp").write_text("")
    before = _fingerprint(broken)

    cache = JitCache(tmp_path / "cold")
    load_catalog(broken, cache)
    intact = next(s for s in pyjit_kernel_specs() if s not in (corrupt, unimportable))
    for spec in (corrupt, unimportable, intact):
        assert callable(getattr(cache.get_module(spec, generate_source, suffix=".py"), "run"))
    snap = cache.stats.snapshot()
    assert (snap["catalog_hits"], snap["catalog_misses"], snap["compiles"]) == (1, 2, 2)
    assert _fingerprint(broken) == before


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


def _fake_jobs(n):
    def generate(spec):
        return "source\n"

    def compiler(src_path, out_path):
        out_path.write_text("binary")

    return [(KernelSpec.make("fake", variant=i), generate, ".cpp", compiler) for i in range(n)]


def test_compile_jobs_env_rejects_garbage(tmp_path):
    """Regression: a pool size below 1 was clamped to one worker; with
    no size, or one below 1, ``precompile`` runs the default pool, twice
    the core count from 2 to 8."""
    assert DEFAULT_COMPILE_JOBS == max(2, min(8, 2 * (os.cpu_count() or 1)))
    for k, bad in enumerate((None, 0, -3)):
        report = JitCache(tmp_path / str(k)).precompile(_fake_jobs(12), max_workers=bad)
        assert report["jobs"] == DEFAULT_COMPILE_JOBS
        assert report["compiled"] == 12


def test_compile_jobs_env_valid_value(tmp_path):
    report = JitCache(tmp_path).precompile(_fake_jobs(12), max_workers=5)
    assert (report["jobs"], report["compiled"]) == (5, 12)


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
    from repro.jit.cppengine import CppJitEngine

    spec = KernelSpec.make("normalize_rows", a="float64", c="float64")
    assert spec in algorithm_kernel_specs()
    monkeypatch.setattr(catalog_module, "catalog_kernel_specs", lambda parallel=False: [spec])
    monkeypatch.delenv("PYGB_CATALOG", raising=False)
    report = bake_catalog(tmp_path / "pack", include_pyjit=False)
    assert report["failed"] == [] and report["artifacts"] == [(spec, ".so")]

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
