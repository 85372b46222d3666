"""LRU result cache keyed on the parsed query's exact values.

The key is :meth:`~repro.observe.explain.Query.key`, the parsed query's
exact values (op, files, window and point coordinates, k): the same query
spelled differently hits, two windows differing in any bit never share
an entry, and a lookup plans nothing.

Invalidation is by file version: every entry records the
:meth:`~repro.mapreduce.fs.FileSystem.version` of each input file at
insert time, and a lookup whose recorded versions no longer match the
namespace is discarded (counted as an invalidation, not a miss-only).
Deleting and re-creating a file bumps its version twice, so stale
answers can never be served across a mutation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple


class ResultCache:
    """A bounded LRU of query results with version-stamped entries."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        #: key -> (versions {file: version}, value)
        self._entries: "OrderedDict[Hashable, Tuple[Dict[str, int], Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, fs: Any) -> Optional[Any]:
        """The cached value for ``key``, or None (miss or invalidated)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        versions, value = entry
        if any(fs.version(name) != v for name, v in versions.items()):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(
        self, key: Hashable, files: List[str], fs: Any, value: Any
    ) -> None:
        """Insert ``value`` stamped with the current versions of ``files``."""
        self._entries[key] = (
            {name: fs.version(name) for name in files},
            value,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 6),
        }
