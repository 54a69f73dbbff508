"""The engine's cache stack: LRU, disk, tiering, lifecycle,
accounting."""

import os
import pickle

import pytest

from repro.engine import (
    DiskCache,
    LRUCache,
    TieredCache,
    build_cache,
    prune_stores,
    store_report,
)


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "store")
        DiskCache(directory).put("k", {"x": (1, 2)})
        reopened = DiskCache(directory)
        assert reopened.get("k") == {"x": (1, 2)}
        assert reopened.stats.hits == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        directory = str(tmp_path / "store")
        cache = DiskCache(directory)
        cache.put("k", 42)
        with open(os.path.join(directory, "k.pkl"), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("k") is None
        assert cache.stats.misses == 1

    def test_len_and_clear(self, tmp_path):
        cache = DiskCache(str(tmp_path / "store"))
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_no_partial_files_left_behind(self, tmp_path):
        directory = str(tmp_path / "store")
        cache = DiskCache(directory)
        cache.put("k", list(range(100)))
        leftovers = [n for n in os.listdir(directory)
                     if n.endswith(".tmp")]
        assert leftovers == []


class TestDiskCacheLifecycle:
    def _aged_cache(self, tmp_path, ages):
        """A cache whose entries' mtimes are backdated by ``ages``
        seconds (entry keys are e0, e1, ...)."""
        import time
        cache = DiskCache(str(tmp_path / "store"))
        now = time.time()
        for index, age in enumerate(ages):
            key = f"e{index}"
            cache.put(key, "x" * 100)
            path = os.path.join(cache.directory, f"{key}.pkl")
            os.utime(path, (now - age, now - age))
        return cache

    def test_entries_report_size_and_age_oldest_first(self, tmp_path):
        cache = self._aged_cache(tmp_path, [10.0, 500.0])
        entries = cache.entries()
        assert [e.key for e in entries] == ["e1", "e0"]
        assert all(e.size > 0 for e in entries)
        assert entries[0].age > entries[1].age
        assert cache.size_bytes() == sum(e.size for e in entries)

    def test_prune_by_age(self, tmp_path):
        cache = self._aged_cache(tmp_path, [10.0, 500.0, 1000.0])
        report = cache.prune(max_age=60.0)
        assert report.removed == 2
        assert report.kept == 1
        assert cache.get("e0") is not None
        assert cache.get("e1") is None
        assert cache.stats.evictions == 2

    def test_prune_by_size_budget_evicts_lru_first(self, tmp_path):
        cache = self._aged_cache(tmp_path, [10.0, 500.0, 1000.0])
        entry_size = cache.entries()[0].size
        report = cache.prune(max_bytes=entry_size)
        assert report.removed == 2
        assert report.kept_bytes <= entry_size
        # The most recently used entry survives.
        assert cache.get("e0") is not None

    def test_hit_refreshes_lru_order(self, tmp_path):
        cache = self._aged_cache(tmp_path, [500.0, 1000.0])
        assert cache.get("e1") is not None     # touch the older entry
        entry_size = cache.entries()[0].size
        cache.prune(max_bytes=entry_size)
        assert cache.get("e1") is not None
        assert cache.get("e0") is None

    def test_constructor_budgets_default_prune(self, tmp_path):
        cache = DiskCache(str(tmp_path / "store"), max_bytes=0)
        cache.put("a", 1)
        report = cache.prune()
        assert report.removed == 1
        assert len(cache) == 0

    def test_prune_without_budgets_is_a_noop(self, tmp_path):
        cache = self._aged_cache(tmp_path, [500.0])
        report = cache.prune()
        assert report.removed == 0
        assert report.kept == 1

    def test_tiered_prune_delegates_to_disk(self, tmp_path):
        tiered = build_cache(8, str(tmp_path / "store"))
        tiered.put("k", "v")
        report = tiered.prune(max_bytes=0)
        assert report.removed == 1
        # The memory layer is untouched (bounded by the LRU itself).
        assert tiered.get("k") == "v"

    def test_store_report_and_prune_stores(self, tmp_path):
        from repro.casestudies import build_surgery_system, \
            surgery_patient
        from repro.engine import AnalysisJob, BatchEngine
        cache_dir = str(tmp_path / "cache")
        engine = BatchEngine(cache_dir=cache_dir)
        engine.run([AnalysisJob(system=build_surgery_system(),
                                user=surgery_patient())])
        report = store_report(cache_dir)
        # The LTS memo has no disk tier; an lts/ directory an older
        # version left behind is neither reported nor pruned.
        assert set(report) == {"results", "taint", "lint"}
        assert not os.path.exists(os.path.join(cache_dir, "lts"))
        assert report["results"]["entries"] == 1
        # The taint store only fills under run(screen=True), the lint
        # store only under run(lint=...).
        assert report["taint"]["entries"] == 0
        assert report["lint"]["entries"] == 0
        DiskCache(os.path.join(cache_dir, "lts")).put("old", b"blob")
        pruned = prune_stores(cache_dir, max_bytes=0)
        assert set(pruned) == {"results", "taint", "lint"}
        assert pruned["results"].removed == 1
        assert store_report(cache_dir)["results"]["entries"] == 0
        assert "lts" not in store_report(cache_dir)

    def test_store_report_skips_missing_dir(self, tmp_path):
        assert store_report(str(tmp_path / "nowhere")) == {}
        assert prune_stores(str(tmp_path / "nowhere")) == {}


class TestTieredCache:
    def test_lower_tier_hit_promotes(self, tmp_path):
        memory = LRUCache(8)
        disk = DiskCache(str(tmp_path / "store"))
        disk.put("k", "v")
        tiered = TieredCache(memory, disk)
        assert tiered.get("k") == "v"
        # Promoted: the next lookup hits the memory layer.
        assert memory.get("k") == "v"
        assert tiered.stats.hits == 1

    def test_put_writes_all_layers(self, tmp_path):
        memory = LRUCache(8)
        disk = DiskCache(str(tmp_path / "store"))
        TieredCache(memory, disk).put("k", "v")
        assert memory.get("k") == "v"
        assert disk.get("k") == "v"

    def test_miss_counts_once_at_tier_level(self, tmp_path):
        tiered = TieredCache(LRUCache(8),
                             DiskCache(str(tmp_path / "store")))
        assert tiered.get("absent") is None
        assert tiered.stats.misses == 1

    def test_requires_a_layer(self):
        with pytest.raises(ValueError):
            TieredCache()


class TestBuildCache:
    def test_memory_only_without_directory(self):
        assert isinstance(build_cache(16), LRUCache)

    def test_tiered_with_directory(self, tmp_path):
        cache = build_cache(16, str(tmp_path / "store"))
        assert isinstance(cache, TieredCache)
        assert isinstance(cache.layers[0], LRUCache)
        assert isinstance(cache.layers[1], DiskCache)

    def test_stats_describe_renders(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        text = cache.stats.describe()
        assert "1 hits / 2 lookups" in text
