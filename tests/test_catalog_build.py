"""The catalog builds against their full-sort references (``tests/reference.py``).

``SortedIndex.rebuild`` sorts rids with the column as the key and must equal
the sort of every ``(key, rid)`` pair; ``ColumnStatistics.collect`` and
``EquiDepthHistogram.build`` cut buckets from the distinct-value counts and
must equal cutting the sorted column.  Equality is on ``repr``, so an int
never stands in for an equal float, with one stated exception: in a run of
equal values of different kinds (``5`` and ``5.0``, ``0.0`` and ``-0.0``)
a bucket's upper bound is the run's first value in row order, where the
full sort took its last one.  The two bounds still compare equal.

NaN is excluded: it is not ordered, so neither sort defines where it goes,
and no generator or coercion puts one in a column.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.column_stats import ColumnStatistics
from repro.stats.histogram import EquiDepthHistogram
from repro.storage.index import SortedIndex
from repro.storage.table import Schema, Table
from repro.workloads.dmv.generator import make_dmv_db
from repro.workloads.tpch.generator import make_tpch_db
from tests.reference import (
    reference_column_statistics,
    reference_histogram,
    reference_sorted_index,
)

#: Value kinds whose equal values are also identical in ``repr``.
EXACT_KINDS = {
    "int": st.integers(-4, 4) | st.integers(),
    "float": st.integers(-4, 4).map(float)
    | st.floats(allow_nan=False, allow_infinity=True).filter(lambda f: f != 0.0),
    "str": st.text(alphabet="abc", max_size=3),
}
#: Equal ints and floats (``5`` and ``5.0``) in one column.
MIXED = st.integers(-3, 3) | st.integers(-3, 3).map(float)


def columns(values, nulls: bool = True):
    element = st.none() | values if nulls else values
    return st.lists(element, max_size=60)


def sorted_index_over(column: list) -> SortedIndex:
    table = Table("t", Schema.of(("k", "int"), ("rid", "int")))
    table.load_raw([(key, rid) for rid, key in enumerate(column)])
    return SortedIndex("t_k", table, "k")


def published_view(index: SortedIndex) -> tuple[list, list[int]]:
    """The published ``(keys, rids)`` with the rid array read as a list."""
    keys, rids = index._published
    return keys, list(rids)


def histogram_view(histogram: EquiDepthHistogram) -> tuple:
    return (
        histogram.total,
        [(b.lower, b.upper, b.count, b.distinct) for b in histogram.buckets],
    )


def stats_view(stats: ColumnStatistics) -> tuple:
    return (
        stats.column, stats.row_count, stats.null_count, stats.ndv,
        stats.min_value, stats.max_value, stats.mcvs,
        None if stats.histogram is None else histogram_view(stats.histogram),
    )


class TestSortedIndexRebuild:
    @pytest.mark.parametrize("kind", [*EXACT_KINDS, "mixed"])
    def test_equals_the_sort_of_key_rid_pairs(self, kind):
        values = EXACT_KINDS.get(kind, MIXED)

        @settings(max_examples=150, deadline=None)
        @given(columns(values))
        def check(column):
            index = sorted_index_over(column)
            expected = reference_sorted_index(index.table.rows, 0)
            assert repr(published_view(index)) == repr(expected)
            for key in set(column) - {None}:
                assert list(index.lookup(key)) == [rid for rid, k in enumerate(column) if k == key]

        check()

    @pytest.mark.parametrize(
        "column", [[], [None, None], [7] * 6, [None, 3, None, 3, 1], [5, 5.0, 5, 4.0]]
    )
    def test_edge_columns(self, column):
        index = sorted_index_over(column)
        assert repr(published_view(index)) == repr(reference_sorted_index(index.table.rows, 0))


class TestHistogramBuild:
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_equals_cutting_the_sorted_column(self, kind):
        @settings(max_examples=150, deadline=None)
        @given(columns(EXACT_KINDS[kind], nulls=False), st.integers(1, 80))
        def check(values, num_buckets):
            built = EquiDepthHistogram.build(values, num_buckets)
            expected = reference_histogram(values, num_buckets)
            assert repr(histogram_view(built)) == repr(histogram_view(expected))

        check()

    @settings(max_examples=150, deadline=None)
    @given(columns(MIXED, nulls=False), st.integers(1, 80))
    def test_mixed_int_and_float_runs_compare_equal(self, values, num_buckets):
        built = EquiDepthHistogram.build(values, num_buckets)
        assert histogram_view(built) == histogram_view(reference_histogram(values, num_buckets))

    def test_upper_bound_of_a_mixed_run_is_its_first_value(self):
        built = EquiDepthHistogram.build([5, 1, 5.0], num_buckets=1)
        expected = reference_histogram([5, 1, 5.0], num_buckets=1)
        assert repr(built.buckets[0].upper) == "5"
        assert repr(expected.buckets[0].upper) == "5.0"
        assert histogram_view(built) == histogram_view(expected)

    @pytest.mark.parametrize(
        "values, num_buckets",
        [([], 5), ([4] * 9, 3), ([1, 2], 50), (list(range(7)), 7), (["b", "a"] * 4, 3)],
    )
    def test_edge_columns(self, values, num_buckets):
        built = EquiDepthHistogram.build(values, num_buckets)
        expected = reference_histogram(values, num_buckets)
        assert repr(histogram_view(built)) == repr(histogram_view(expected))


class TestColumnStatisticsCollect:
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_equals_sorting_every_value(self, kind):
        @settings(max_examples=150, deadline=None)
        @given(columns(EXACT_KINDS[kind]), st.integers(1, 80), st.integers(0, 6))
        def check(values, num_buckets, num_mcvs):
            built = ColumnStatistics.collect("c", values, num_buckets, num_mcvs)
            expected = reference_column_statistics("c", values, num_buckets, num_mcvs)
            assert repr(stats_view(built)) == repr(stats_view(expected))

        check()

    @settings(max_examples=150, deadline=None)
    @given(columns(MIXED), st.integers(1, 80), st.integers(0, 6))
    def test_mixed_int_and_float_columns_compare_equal(self, values, num_buckets, num_mcvs):
        built = ColumnStatistics.collect("c", values, num_buckets, num_mcvs)
        expected = reference_column_statistics("c", values, num_buckets, num_mcvs)
        assert stats_view(built) == stats_view(expected)
        # min and max are each run's first value, as min() and max() return.
        assert repr((built.min_value, built.max_value)) == repr(
            (expected.min_value, expected.max_value)
        )

    @pytest.mark.parametrize(
        "values", [[], [None] * 4, [3] * 5, [None, 2, None, 2], [1, 2, 3]]
    )
    def test_edge_columns(self, values):
        built = ColumnStatistics.collect("c", values, num_buckets=10, num_mcvs=3)
        expected = reference_column_statistics("c", values, num_buckets=10, num_mcvs=3)
        assert repr(stats_view(built)) == repr(stats_view(expected))


@pytest.mark.parametrize(
    "make, runstats",
    [
        (make_tpch_db, {"num_buckets": 20, "num_mcvs": 10}),
        (make_dmv_db, {"num_buckets": 8, "num_mcvs": 2}),
    ],
    ids=["tpch", "dmv"],
)
def test_whole_catalog_equals_the_reference(make, runstats):
    """RUNSTATS and every sorted index of the default-scale TPC-H and DMV
    databases, column by column and bucket by bucket."""
    db = make()
    checked = 0
    for table in db.catalog.tables():
        stats = db.catalog.statistics(table.name)
        for name in table.schema.names():
            expected = reference_column_statistics(
                name, table.column_values(name), **runstats
            )
            assert repr(stats_view(stats.columns[name])) == repr(stats_view(expected)), (
                table.name, name,
            )
        for index in db.catalog.indexes_on(table.name):
            if isinstance(index, SortedIndex):
                expected = reference_sorted_index(table.rows, index._col_pos)
                assert published_view(index) == expected, index.name
                checked += 1
    assert checked > 0


def test_tpch_indexes_store_rids_as_machine_words():
    """Every index of the default TPC-H catalog publishes its rids as one
    8-byte ``array`` equal to the reference, and a build retains at most 24
    bytes per entry: a key pointer and an 8-byte rid.  A list of ``int``
    objects held about 48 (a list slot plus a 32-byte ``int``)."""
    db = make_tpch_db()
    indexes = [ix for t in db.catalog.tables() for ix in db.catalog.indexes_on(t.name)]
    assert len(indexes) == 17
    for index in indexes:
        assert isinstance(index, SortedIndex), index.name
        rids = index._published[1]
        assert rids.typecode == "q" and rids.itemsize == 8, index.name
        assert published_view(index) == reference_sorted_index(
            index.table.rows, index._col_pos
        ), index.name
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = [SortedIndex(ix.name, ix.table, ix.column) for ix in indexes]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(ix._published[1]) for ix in built)
    assert entries > 250_000
    assert retained / entries <= 24, retained / entries
