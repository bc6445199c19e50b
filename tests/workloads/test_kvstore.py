"""The embedded LSM store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import MiniLSM, SSTable, load_records, record_key


class TestBasicOperations:
    def test_put_get(self):
        store = MiniLSM()
        store.put("k1", "v1")
        assert store.get("k1") == "v1"

    def test_get_missing(self):
        assert MiniLSM().get("ghost") is None

    def test_update_overwrites(self):
        store = MiniLSM()
        store.put("k", "old")
        store.put("k", "new")
        assert store.get("k") == "new"

    def test_delete(self):
        store = MiniLSM()
        store.put("k", "v")
        store.delete("k")
        assert store.get("k") is None

    def test_delete_survives_flush(self):
        store = MiniLSM(memtable_limit_bytes=64)
        store.put("k", "v" * 100)  # forces a flush
        store.delete("k")
        store.flush()
        assert store.get("k") is None

    def test_key_validation(self):
        with pytest.raises(ValueError):
            MiniLSM().put("", "v")


class TestFlushAndCompaction:
    def test_flush_moves_data_to_runs(self):
        store = MiniLSM(memtable_limit_bytes=128)
        for i in range(20):
            store.put(f"key{i:04d}", "x" * 20)
        assert store.flushes > 0
        assert store.get("key0001") == "x" * 20

    def test_compaction_bounds_run_count(self):
        store = MiniLSM(memtable_limit_bytes=64, compaction_fanin=3)
        for i in range(200):
            store.put(f"key{i:04d}", "x" * 30)
        assert len(store._runs) < 3
        assert store.compactions > 0

    def test_compaction_preserves_newest_value(self):
        store = MiniLSM(memtable_limit_bytes=64, compaction_fanin=2)
        store.put("k", "v1")
        store.flush()
        store.put("k", "v2")
        store.flush()  # triggers compaction at fanin 2
        assert store.get("k") == "v2"

    def test_compaction_drops_tombstones(self):
        store = MiniLSM(memtable_limit_bytes=1024, compaction_fanin=2)
        store.put("k", "v")
        store.flush()
        store.delete("k")
        store.flush()
        assert store.compactions >= 1
        assert store.get("k") is None
        assert len(store) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MiniLSM(memtable_limit_bytes=0)
        with pytest.raises(ValueError):
            MiniLSM(compaction_fanin=1)


class TestScan:
    def test_scan_merges_memtable_and_runs(self):
        store = MiniLSM(memtable_limit_bytes=64)
        store.put("a", "1")
        store.flush()
        store.put("b", "2")  # stays in the memtable
        result = store.scan("a", 10)
        assert result == [("a", "1"), ("b", "2")]

    def test_scan_respects_count_and_start(self):
        store = MiniLSM()
        for i in range(10):
            store.put(f"key{i}", str(i))
        result = store.scan("key3", 4)
        assert [k for k, _v in result] == ["key3", "key4", "key5", "key6"]

    def test_scan_newest_value_wins(self):
        store = MiniLSM(memtable_limit_bytes=64)
        store.put("k", "old")
        store.flush()
        store.put("k", "new")
        assert store.scan("k", 1) == [("k", "new")]

    def test_scan_skips_tombstones(self):
        store = MiniLSM()
        store.put("a", "1")
        store.put("b", "2")
        store.delete("a")
        assert store.scan("a", 5) == [("b", "2")]

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            MiniLSM().scan("a", -1)


class TestReadModifyWrite:
    def test_rmw_applies_update(self):
        store = MiniLSM()
        store.put("counter", 1)
        result = store.read_modify_write(
            "counter", lambda value: (value or 0) + 1
        )
        assert result == 2
        assert store.get("counter") == 2


class TestSSTable:
    def test_binary_search_get(self):
        table = SSTable([("a", "1"), ("c", "3"), ("e", "5")])
        assert table.get("c") == "3"
        assert table.get("b") is None

    def test_range_iteration(self):
        table = SSTable([("a", "1"), ("c", "3"), ("e", "5")])
        assert list(table.range_from("b")) == [("c", "3"), ("e", "5")]


class TestLoader:
    def test_load_records(self):
        store = MiniLSM()
        load_records(store, 100, value_bytes=10)
        assert store.get(record_key(0)) == "x" * 10
        assert store.get(record_key(99)) == "x" * 10
        assert len(store) == 100

    def test_record_key_sortable(self):
        assert record_key(2) < record_key(10)


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get"]),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_store_matches_dict_reference(operations):
    """Whatever the op sequence, MiniLSM behaves like a plain dict."""
    store = MiniLSM(memtable_limit_bytes=256, compaction_fanin=3)
    reference = {}
    for op, key_index in operations:
        key = f"key{key_index:03d}"
        if op == "put":
            store.put(key, key_index)
            reference[key] = key_index
        elif op == "delete":
            store.delete(key)
            reference.pop(key, None)
        else:
            assert store.get(key) == reference.get(key)
    for key, value in reference.items():
        assert store.get(key) == value
    assert len(store) == len(reference)
    # Scan agrees with the reference too.
    scanned = dict(store.scan("key000", 1000))
    assert scanned == reference
