"""Tests for workload specs, cache keys, and the on-disk result cache."""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig, MachineStats, run_experiment
from repro.sweep import (
    WORKLOAD_REGISTRY,
    ResultCache,
    SourceFingerprint,
    WorkloadSpec,
    compute_source_fingerprint,
    job_key,
)
from repro.workloads import Workload


@pytest.fixture(scope="module")
def small_stats() -> MachineStats:
    config = AlewifeConfig(n_procs=4, protocol="fullmap", max_cycles=2_000_000)
    return run_experiment(config, WorkloadSpec("hotspot", {"rounds": 2}).build())


class TestWorkloadSpec:
    def test_registry_builds_real_workloads(self):
        spec = WorkloadSpec("weather", {"iterations": 2})
        workload = spec.build()
        assert isinstance(workload, Workload)
        # A spec builds a *fresh* instance each time.
        assert spec.build() is not workload

    def test_every_registered_name_is_a_workload_class(self):
        for cls in WORKLOAD_REGISTRY.values():
            assert issubclass(cls, Workload)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadSpec("linpack")

    def test_key_dict_normalizes_tuples(self):
        a = WorkloadSpec("multigrid", {"levels": (2, 2)})
        b = WorkloadSpec("multigrid", {"levels": [2, 2]})
        assert a.key_dict() == b.key_dict()


class TestJobKey:
    def test_stable_for_identical_inputs(self):
        config = AlewifeConfig(n_procs=8)
        spec = WorkloadSpec("weather", {"iterations": 3})
        assert job_key(config, spec, "fp") == job_key(config, spec, "fp")

    def test_changes_with_config_workload_and_source(self):
        config = AlewifeConfig(n_procs=8)
        spec = WorkloadSpec("weather", {"iterations": 3})
        base = job_key(config, spec, "fp")
        assert job_key(config.with_(ts=100), spec, "fp") != base
        assert job_key(config, WorkloadSpec("weather", {"iterations": 4}), "fp") != base
        assert job_key(config, spec, "other-source") != base

    def test_source_fingerprint_is_stable_hex(self):
        fp = compute_source_fingerprint()
        assert fp == compute_source_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


class TestSourceFingerprint:
    def test_memoizes_and_tracks_source_changes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        fingerprint = SourceFingerprint(tmp_path)
        first = fingerprint.value()
        assert fingerprint.value() is first  # memoized, not recomputed
        # Without invalidation a source edit goes unnoticed (the memo is
        # the point); invalidate() recomputes and sees the change.
        (tmp_path / "a.py").write_text("x = 2\n")
        assert fingerprint.value() == first
        fingerprint.invalidate()
        assert fingerprint.value() != first

    def test_no_process_global_state(self, tmp_path):
        # Two caches hold independent fingerprints: invalidating one
        # leaves the other's memo untouched.
        (tmp_path / "a.py").write_text("x = 1\n")
        cache_a = ResultCache(
            tmp_path / "ca", fingerprint=SourceFingerprint(tmp_path)
        )
        cache_b = ResultCache(
            tmp_path / "cb", fingerprint=SourceFingerprint(tmp_path)
        )
        value_a = cache_a.fingerprint.value()
        value_b = cache_b.fingerprint.value()
        assert value_a == value_b
        cache_a.invalidate()
        assert cache_a.fingerprint._value is None
        assert cache_b.fingerprint._value is not None

    def test_module_has_no_fingerprint_global(self):
        import repro.sweep.cache as cache_module

        assert not hasattr(cache_module, "_fingerprint_cache")


class TestMachineStatsRoundTrip:
    def test_to_dict_from_dict_preserves_results(self, small_stats):
        clone = MachineStats.from_dict(small_stats.to_dict())
        assert clone.cycles == small_stats.cycles
        assert clone.config == small_stats.config
        assert clone.counters.as_dict() == small_stats.counters.as_dict()
        assert clone.network.packets == small_stats.network.packets
        assert clone.network.per_opcode == small_stats.network.per_opcode
        assert clone.worker_sets.as_sorted_items() == (
            small_stats.worker_sets.as_sorted_items()
        )
        assert clone.per_proc_finish == small_stats.per_proc_finish
        assert clone.summary() == small_stats.summary()

    def test_survives_json_round_trip(self, small_stats):
        import json

        clone = MachineStats.from_dict(json.loads(json.dumps(small_stats.to_dict())))
        assert clone.cycles == small_stats.cycles
        assert clone.worker_sets.mean() == small_stats.worker_sets.mean()


class TestResultCache:
    def test_store_then_lookup(self, tmp_path, small_stats):
        cache = ResultCache(tmp_path)
        assert cache.lookup("k1") is None
        cache.store("k1", small_stats, wall_seconds=0.5, label="t")
        found = cache.lookup("k1")
        assert found is not None
        assert found.cycles == small_stats.cycles
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_disabled_cache_is_inert(self, tmp_path, small_stats):
        cache = ResultCache(tmp_path, enabled=False)
        cache.store("k1", small_stats, wall_seconds=0.1)
        assert cache.lookup("k1") is None
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_misses_cleanly(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.lookup("bad") is None

    def test_version_mismatch_misses(self, tmp_path, small_stats):
        cache = ResultCache(tmp_path)
        cache.store("k1", small_stats, wall_seconds=0.1)
        import json

        path = tmp_path / "k1.json"
        entry = json.loads(path.read_text())
        entry["version"] = -1
        path.write_text(json.dumps(entry))
        assert cache.lookup("k1") is None

    def test_clear_removes_entries(self, tmp_path, small_stats):
        cache = ResultCache(tmp_path)
        cache.store("k1", small_stats, wall_seconds=0.1)
        cache.store("k2", small_stats, wall_seconds=0.1)
        assert cache.clear() == 2
        assert cache.lookup("k1") is None

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path, small_stats):
        cache = ResultCache(tmp_path)
        cache.store("k1", small_stats, wall_seconds=0.1)
        # A crashed run can leave the write-then-rename temp file behind.
        (tmp_path / "k2.tmp").write_text("{partial")
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_degrades_to_cacheless(
        self, tmp_path, small_stats
    ):
        # Pointing the cache at a path whose parent is a *file* makes every
        # write fail; the sweep must keep its results and merely lose
        # caching.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cache = ResultCache(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="result cache disabled"):
            cache.store("k1", small_stats, wall_seconds=0.1)
        assert not cache.enabled
        assert cache.stores == 0
        # Subsequent operations are inert, not fatal.
        cache.store("k2", small_stats, wall_seconds=0.1)
        assert cache.lookup("k1") is None
