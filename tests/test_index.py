"""Tests for repro.storage.index."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Schema, Table


def make_table(values) -> Table:
    table = Table("t", Schema.of(("k", "int"), ("v", "str")))
    for i, value in enumerate(values):
        table.rows.append((value, f"row{i}"))
    return table


class TestHashIndex:
    def test_lookup_finds_all_duplicates(self):
        table = make_table([5, 3, 5, 7, 5])
        index = HashIndex("ix", table, "k")
        assert list(index.lookup(5)) == [0, 2, 4]
        assert list(index.lookup(3)) == [1]

    def test_lookup_missing_key(self):
        index = HashIndex("ix", make_table([1, 2]), "k")
        assert index.lookup(99) == []

    def test_null_keys_not_indexed(self):
        index = HashIndex("ix", make_table([1, None, None, 2]), "k")
        assert index.lookup(None) == []
        assert index.distinct_keys() == 2
        assert index.max_rids_per_key() == 1

    def test_rebuild_after_append(self):
        table = make_table([1])
        index = HashIndex("ix", table, "k")
        table.rows.append((1, "new"))
        index.rebuild()
        assert list(index.lookup(1)) == [0, 1]

    def test_leaf_pages_positive(self):
        index = HashIndex("ix", make_table([1]), "k")
        assert index.leaf_pages >= 1

    def test_does_not_support_range(self):
        index = HashIndex("ix", make_table([1]), "k")
        assert not index.supports_range


class TestSortedIndex:
    def test_lookup_equality(self):
        index = SortedIndex("ix", make_table([5, 3, 5, 7]), "k")
        assert sorted(index.lookup(5)) == [0, 2]

    def test_range_scan_inclusive(self):
        table = make_table([10, 20, 30, 40, 50])
        index = SortedIndex("ix", table, "k")
        assert list(index.range_scan(low=20, high=40)) == [1, 2, 3]

    def test_range_scan_exclusive_bounds(self):
        table = make_table([10, 20, 30, 40, 50])
        index = SortedIndex("ix", table, "k")
        assert list(index.range_scan(low=20, high=40, low_inclusive=False)) == [2, 3]
        assert list(index.range_scan(low=20, high=40, high_inclusive=False)) == [1, 2]

    def test_open_ended_ranges(self):
        table = make_table([10, 20, 30])
        index = SortedIndex("ix", table, "k")
        assert list(index.range_scan(low=20)) == [1, 2]
        assert list(index.range_scan(high=20)) == [0, 1]
        assert list(index.range_scan()) == [0, 1, 2]

    def test_rids_returned_in_key_order(self):
        table = make_table([30, 10, 20])
        index = SortedIndex("ix", table, "k")
        assert list(index.range_scan()) == [1, 2, 0]

    def test_nulls_excluded(self):
        index = SortedIndex("ix", make_table([None, 5, None]), "k")
        assert list(index.range_scan()) == [1]
        assert index.lookup(None) == []

    def test_max_rids_per_key_follows_rebuild(self):
        table = make_table([7, 3, 7, 9])
        index = SortedIndex("ix", table, "k")
        assert index.max_rids_per_key() == 2
        table.rows.extend([(9, "new"), (9, "new")])
        assert index.max_rids_per_key() == 2  # not republished yet
        index.rebuild()
        assert index.max_rids_per_key() == 3

    def test_max_rids_per_key_of_empty_index(self):
        assert SortedIndex("ix", make_table([]), "k").max_rids_per_key() == 0
        assert HashIndex("ix", make_table([None]), "k").max_rids_per_key() == 0

    @given(st.lists(st.integers(-20, 20), max_size=60), st.integers(-20, 20), st.integers(-20, 20))
    def test_range_scan_matches_filter(self, values, a, b):
        low, high = min(a, b), max(a, b)
        table = make_table(values)
        index = SortedIndex("ix", table, "k")
        got = sorted(index.range_scan(low=low, high=high))
        expected = sorted(
            rid for rid, (k, _) in enumerate(table.rows) if k is not None and low <= k <= high
        )
        assert got == expected

    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_equality_matches_hash_index(self, values):
        table = make_table(values)
        sorted_ix = SortedIndex("s", table, "k")
        hash_ix = HashIndex("h", table, "k")
        for key in set(values) | {999}:
            assert sorted(sorted_ix.lookup(key)) == sorted(hash_ix.lookup(key))
        longest = max(map(values.count, set(values)), default=0)
        assert sorted_ix.max_rids_per_key() == hash_ix.max_rids_per_key() == longest


@pytest.mark.parametrize("kind", [HashIndex, SortedIndex])
def test_fan_is_computed_once_per_published_structure(kind, monkeypatch):
    """Lazily, never in ``rebuild``; and a fan computed from a structure
    that a rebuild replaced meanwhile is not served for the new one."""
    table = make_table([0, 1])
    index = kind("ix", table, "k")
    computed = []
    longest = index._longest_rid_list

    def racing(published):
        computed.append(published)
        if len(computed) == 1:  # a writer publishes mid-computation
            table.rows.append((0, "new"))
            index.rebuild()
        return longest(published)

    monkeypatch.setattr(index, "_longest_rid_list", racing)
    index.rebuild()
    assert computed == []
    assert index.max_rids_per_key() == 1  # of the structure it started from
    assert index.max_rids_per_key() == 2
    assert index.max_rids_per_key() == 2
    assert len(computed) == 2


@pytest.mark.parametrize("kind", [HashIndex, SortedIndex])
def test_a_fan_read_before_a_pinned_lookup_bounds_it(kind):
    """Readers race a writer that grows key 0's rid list, republishes, then
    raises the committed watermark.  In the index NLJN's order — pin the
    watermark, read the fan, look the key up — the rids below the pin
    never outnumber the fan, whichever reader filled the cache for
    whichever structure."""
    table = make_table([0, 1])
    index = kind("ix", table, "k")
    committed = [len(table.rows)]
    stop = threading.Event()
    failures = []

    def read():
        while not stop.is_set():
            visible = committed[0]
            fan = index.max_rids_per_key()
            seen = sum(rid < visible for rid in index.lookup(0))
            if fan < seen:
                failures.append((seen, fan))

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for _ in range(300):
            table.rows.append((0, "new"))
            index.rebuild()
            committed[0] = len(table.rows)
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert index.max_rids_per_key() == 301
