"""An embedded log-structured key-value store (the YCSB target).

The paper benchmarks YCSB on RocksDB inside the protected VM.  This
module implements a real (small) LSM-tree storage engine in Python —
memtable, write-ahead accounting, sorted-run flushes, k-way compaction,
tombstoned deletes, range scans — so the YCSB workload executes genuine
storage operations, and its write-amplification/byte counters come from
real behaviour rather than constants.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

#: Flush the memtable once it holds this many bytes (RocksDB-ish 4 MB
#: scaled down so tests exercise flushes quickly).
DEFAULT_MEMTABLE_LIMIT = 512 * 1024
#: Compact once this many sorted runs accumulate.
DEFAULT_COMPACTION_FANIN = 4

#: Sentinel marking deleted keys inside runs.
_TOMBSTONE = object()


class SSTable:
    """An immutable sorted run of (key, value) pairs."""

    __slots__ = ("keys", "values", "size_bytes")

    def __init__(self, items: List[Tuple[str, object]]):
        # items must be sorted by key and free of duplicate keys.
        self.keys = [key for key, _value in items]
        self.values = [value for _key, value in items]
        self.size_bytes = sum(
            len(key) + (len(value) if isinstance(value, (str, bytes)) else 8)
            for key, value in items
        )

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key: str):
        """The stored value, ``_TOMBSTONE``, or None when absent."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return self.values[index]
        return None

    def range_from(self, start_key: str) -> Iterator[Tuple[str, object]]:
        """Iterate (key, value) pairs with key >= start_key, in order."""
        index = bisect.bisect_left(self.keys, start_key)
        while index < len(self.keys):
            yield self.keys[index], self.values[index]
            index += 1


class MiniLSM:
    """A log-structured merge-tree store with real byte accounting."""

    def __init__(
        self,
        memtable_limit_bytes: int = DEFAULT_MEMTABLE_LIMIT,
        compaction_fanin: int = DEFAULT_COMPACTION_FANIN,
    ):
        if memtable_limit_bytes <= 0:
            raise ValueError(
                f"memtable limit must be positive: {memtable_limit_bytes}"
            )
        if compaction_fanin < 2:
            raise ValueError(f"compaction fan-in must be >= 2: {compaction_fanin}")
        self.memtable_limit_bytes = memtable_limit_bytes
        self.compaction_fanin = compaction_fanin
        self._memtable: Dict[str, object] = {}
        self._memtable_bytes = 0
        #: Newest run last.
        self._runs: List[SSTable] = []
        # -- statistics --
        self.bytes_written_wal = 0
        self.bytes_written_flush = 0
        self.bytes_written_compaction = 0
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.scans = 0
        self.flushes = 0
        self.compactions = 0

    # -- sizing ------------------------------------------------------------
    @staticmethod
    def _entry_bytes(key: str, value) -> int:
        return len(key) + (len(value) if isinstance(value, (str, bytes)) else 8)

    def __len__(self) -> int:
        """Approximate live-key count (tombstones excluded, newest wins)."""
        live = {}
        for run in self._runs:
            for key, value in zip(run.keys, run.values):
                live[key] = value
        live.update(self._memtable)
        return sum(1 for value in live.values() if value is not _TOMBSTONE)

    # -- write path ------------------------------------------------------------
    def put(self, key: str, value) -> None:
        """Insert or update ``key``."""
        if not isinstance(key, str) or not key:
            raise ValueError(f"keys must be non-empty strings: {key!r}")
        entry = self._entry_bytes(key, value)
        self.bytes_written_wal += entry
        if key in self._memtable:
            self._memtable_bytes -= self._entry_bytes(key, self._memtable[key])
        self._memtable[key] = value
        self._memtable_bytes += entry
        self.writes += 1
        if self._memtable_bytes >= self.memtable_limit_bytes:
            self._flush()

    def delete(self, key: str) -> None:
        """Delete ``key`` (a tombstone write)."""
        self.bytes_written_wal += len(key) + 1
        if key in self._memtable:
            self._memtable_bytes -= self._entry_bytes(key, self._memtable[key])
        self._memtable[key] = _TOMBSTONE
        self._memtable_bytes += len(key) + 1
        self.deletes += 1
        if self._memtable_bytes >= self.memtable_limit_bytes:
            self._flush()

    # -- read path --------------------------------------------------------------
    def get(self, key: str):
        """The current value of ``key``, or None."""
        self.reads += 1
        if key in self._memtable:
            value = self._memtable[key]
            return None if value is _TOMBSTONE else value
        for run in reversed(self._runs):  # newest first
            value = run.get(key)
            if value is not None:
                return None if value is _TOMBSTONE else value
        return None

    def scan(self, start_key: str, count: int) -> List[Tuple[str, object]]:
        """Up to ``count`` live entries with key >= start_key, in order."""
        if count < 0:
            raise ValueError(f"negative scan count: {count}")
        self.scans += 1
        # Merge the memtable and every run; newest source wins per key.
        sources: List[Iterator[Tuple[str, object]]] = []
        memtable_items = sorted(
            (key, value)
            for key, value in self._memtable.items()
            if key >= start_key
        )
        sources.append(iter(memtable_items))
        for run in reversed(self._runs):
            sources.append(run.range_from(start_key))
        merged: Dict[str, object] = {}
        # Newest-first insertion: keep the first value seen per key.
        for source in sources:
            for key, value in source:
                if key not in merged:
                    merged[key] = value
        result = []
        for key in sorted(merged):
            value = merged[key]
            if value is _TOMBSTONE:
                continue
            result.append((key, value))
            if len(result) >= count:
                break
        return result

    def read_modify_write(self, key: str, update) -> object:
        """YCSB workload F's op: read the value, apply ``update``, write."""
        value = self.get(key)
        new_value = update(value)
        self.put(key, new_value)
        return new_value

    # -- maintenance ---------------------------------------------------------------
    def _flush(self) -> None:
        """Freeze the memtable into a new sorted run."""
        if not self._memtable:
            return
        items = sorted(self._memtable.items())
        run = SSTable(items)
        self.bytes_written_flush += run.size_bytes
        self._runs.append(run)
        self._memtable = {}
        self._memtable_bytes = 0
        self.flushes += 1
        if len(self._runs) >= self.compaction_fanin:
            self._compact()

    def flush(self) -> None:
        """Force a memtable flush (tests and shutdown)."""
        self._flush()

    def _compact(self) -> None:
        """Merge every run into one, dropping shadowed values and
        tombstones (single-level full compaction)."""
        merged: Dict[str, object] = {}
        for run in self._runs:  # oldest first; later runs overwrite
            for key, value in zip(run.keys, run.values):
                merged[key] = value
        items = sorted(
            (key, value)
            for key, value in merged.items()
            if value is not _TOMBSTONE
        )
        compacted = SSTable(items)
        self.bytes_written_compaction += compacted.size_bytes
        self._runs = [compacted] if items else []
        self.compactions += 1


def load_records(
    store: MiniLSM, record_count: int, value_bytes: int = 1000
) -> None:
    """YCSB's load phase: insert ``record_count`` synthetic records."""
    if record_count < 0:
        raise ValueError(f"negative record count: {record_count}")
    payload = "x" * value_bytes
    for index in range(record_count):
        store.put(record_key(index), payload)


def record_key(index: int) -> str:
    """YCSB-style key for record ``index`` (zero-padded, sortable)."""
    return f"user{index:012d}"
