"""Pluggable result caches: in-memory LRU, on-disk store, tiering.

Anything with ``get(key) -> value | None``, ``put(key, value)`` and a
``stats`` attribute is a cache to the engine; the three shipped
implementations cover the deployment spectrum:

- :class:`LRUCache` — bounded in-process memory, thread-safe;
- :class:`DiskCache` — pickle files under a directory, surviving
  process restarts and shared between worker processes;
- :class:`TieredCache` — layers caches (memory over disk), promoting
  lower-tier hits upward.

The disk tier has a lifecycle: :meth:`DiskCache.prune` evicts by age
and/or total size budget (oldest entries first, LRU-approximated by
file mtime — reads touch their entry), :meth:`DiskCache.entries`
inspects the store, and :func:`store_report` summarises a whole engine
cache directory for the ``repro engine cache`` CLI.

Keys are hex fingerprints (see :mod:`repro.engine.fingerprint`), which
double as safe file names.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional


@dataclass
class CacheStats:
    """Hit/miss/put accounting for one cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (f"{self.hits} hits / {self.lookups} lookups "
                f"({self.hit_rate:.0%}), {self.puts} puts, "
                f"{self.evictions} evictions")


class LRUCache:
    """A bounded, thread-safe, least-recently-used in-memory cache."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.puts += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CacheEntry(NamedTuple):
    """One on-disk entry as :meth:`DiskCache.entries` reports it."""

    key: str
    size: int
    mtime: float

    @property
    def age(self) -> float:
        return max(0.0, time.time() - self.mtime)


class PruneReport(NamedTuple):
    """What one :meth:`DiskCache.prune` call did."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def describe(self) -> str:
        return (f"pruned {self.removed} entries "
                f"({self.freed_bytes} bytes), kept {self.kept} "
                f"({self.kept_bytes} bytes)")


class DiskCache:
    """Pickle-per-entry persistence under a directory.

    Writes go through a temp file + ``os.replace`` so concurrent
    writers (the process backend's workers) never expose a partially
    written entry; unreadable or corrupt entries read as misses. Hits
    touch their file's mtime, so :meth:`prune`'s oldest-first eviction
    approximates LRU rather than FIFO.

    ``max_age``/``max_bytes`` are this store's *default budgets*: they
    are applied by :meth:`prune` when it is called without arguments
    (the engine never prunes implicitly — lifecycle is an explicit,
    operator-driven action via ``repro engine cache prune``).
    """

    def __init__(self, directory: str,
                 max_age: Optional[float] = None,
                 max_bytes: Optional[int] = None):
        self.directory = directory
        self.max_age = max_age
        self.max_bytes = max_bytes
        os.makedirs(directory, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, ValueError, KeyError,
                IndexError, TypeError):
            # Corrupt bytes surface through whatever opcode they spell
            # out; any of these reads as a miss, never a crash.
            self.stats.misses += 1
            return None
        try:
            os.utime(path)          # LRU touch for prune ordering
        except OSError:
            pass
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        descriptor, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(value, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".pkl"))

    def entries(self) -> List[CacheEntry]:
        """Every entry with its size and mtime, oldest first.

        Entries that vanish mid-listing (a concurrent prune or clear)
        are skipped rather than raised.
        """
        found: List[CacheEntry] = []
        for name in os.listdir(self.directory):
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            found.append(CacheEntry(name[:-len(".pkl")],
                                    info.st_size, info.st_mtime))
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def size_bytes(self) -> int:
        """Total bytes held by the store's entries."""
        return sum(entry.size for entry in self.entries())

    def prune(self, max_age: Optional[float] = None,
              max_bytes: Optional[int] = None) -> PruneReport:
        """Evict entries by age and/or total-size budget.

        Entries older than ``max_age`` seconds go first; then, while
        the store exceeds ``max_bytes``, the least-recently-used
        remaining entries go. Arguments default to the store's
        configured budgets; with neither set this is a no-op report.
        """
        max_age = max_age if max_age is not None else self.max_age
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        kept = self.entries()
        removed = 0
        freed = 0

        def evict(entry: CacheEntry) -> bool:
            try:
                os.unlink(self._path(entry.key))
            except OSError:
                return False
            self.stats.evictions += 1
            return True

        if max_age is not None:
            survivors = []
            for entry in kept:
                if entry.age > max_age and evict(entry):
                    removed += 1
                    freed += entry.size
                else:
                    survivors.append(entry)
            kept = survivors
        if max_bytes is not None:
            total = sum(entry.size for entry in kept)
            survivors = []
            for index, entry in enumerate(kept):
                if total <= max_bytes:
                    survivors.extend(kept[index:])
                    break
                if evict(entry):
                    removed += 1
                    freed += entry.size
                    total -= entry.size
                else:
                    survivors.append(entry)
            kept = survivors
        return PruneReport(removed=removed, freed_bytes=freed,
                           kept=len(kept),
                           kept_bytes=sum(e.size for e in kept))

    def clear(self) -> None:
        for name in os.listdir(self.directory):
            if name.endswith(".pkl"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass


class TieredCache:
    """Layered caches, fastest first; lower-tier hits promote upward.

    ``stats`` aggregates at the tier level: a hit in *any* layer is one
    tier hit. Per-layer accounting stays on each layer's own ``stats``.
    """

    def __init__(self, *layers):
        if not layers:
            raise ValueError("TieredCache needs at least one layer")
        self.layers: List[Any] = list(layers)
        self.stats = CacheStats()

    def get(self, key: str) -> Optional[Any]:
        for index, layer in enumerate(self.layers):
            value = layer.get(key)
            if value is not None:
                for upper in self.layers[:index]:
                    upper.put(key, value)
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        for layer in self.layers:
            layer.put(key, value)
        self.stats.puts += 1

    def prune(self, max_age: Optional[float] = None,
              max_bytes: Optional[int] = None) -> PruneReport:
        """Prune every layer that supports pruning; merged report."""
        removed = freed = kept = kept_bytes = 0
        for layer in self.layers:
            prune = getattr(layer, "prune", None)
            if prune is None:
                continue
            report = prune(max_age=max_age, max_bytes=max_bytes)
            removed += report.removed
            freed += report.freed_bytes
            kept += report.kept
            kept_bytes += report.kept_bytes
        return PruneReport(removed, freed, kept, kept_bytes)

    def clear(self) -> None:
        for layer in self.layers:
            layer.clear()


def build_cache(memory_entries: int = 256,
                directory: Optional[str] = None):
    """The engine's default cache shape: LRU, tiered over disk when a
    directory is given."""
    memory = LRUCache(memory_entries)
    if directory is None:
        return memory
    return TieredCache(memory, DiskCache(directory))


#: The subdirectories a :class:`~repro.engine.runner.BatchEngine`
#: cache_dir holds, by store role. The LTS memo has no disk tier: a
#: stored LTS loads no faster than it generates.
ENGINE_STORES = ("results", "taint", "lint")


def store_report(cache_dir: str) -> Dict[str, Dict[str, Any]]:
    """Summarise an engine cache directory's on-disk stores.

    One summary per existing store of :data:`ENGINE_STORES`: entry
    count, total bytes, and the oldest/newest entry age in seconds.
    Missing stores are skipped (a never-used tier is not an error).
    """
    report: Dict[str, Dict[str, Any]] = {}
    for store_name in ENGINE_STORES:
        directory = os.path.join(cache_dir, store_name)
        if not os.path.isdir(directory):
            continue
        entries = DiskCache(directory).entries()
        report[store_name] = {
            "entries": len(entries),
            "bytes": sum(e.size for e in entries),
            "oldest_age": round(max((e.age for e in entries),
                                    default=0.0), 3),
            "newest_age": round(min((e.age for e in entries),
                                    default=0.0), 3),
        }
    return report


def prune_stores(cache_dir: str,
                 max_age: Optional[float] = None,
                 max_bytes: Optional[int] = None
                 ) -> Dict[str, PruneReport]:
    """Prune every on-disk store under ``cache_dir``.

    ``max_bytes`` is a *per-store* budget (the stores have
    independent churn profiles; a byte of taint certificate and a
    byte of result are not interchangeable).
    """
    reports: Dict[str, PruneReport] = {}
    for store_name in ENGINE_STORES:
        directory = os.path.join(cache_dir, store_name)
        if not os.path.isdir(directory):
            continue
        reports[store_name] = DiskCache(directory).prune(
            max_age=max_age, max_bytes=max_bytes)
    return reports
