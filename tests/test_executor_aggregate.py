"""Tests for aggregation, DISTINCT, projection, RETURN, and the ECDC
anti-join compensation operator."""

from collections import Counter

import pytest

from repro import Database
from tests.conftest import canonical, pull_all


@pytest.fixture
def agg_db():
    db = Database()
    db.create_table("t", [("g", "str"), ("v", "int"), ("f", "float")])
    db.insert(
        "t",
        [
            ("a", 1, 1.0),
            ("a", 2, 2.0),
            ("a", None, 4.0),
            ("b", 5, None),
            ("b", 7, 3.0),
            ("c", None, None),
        ],
    )
    db.runstats()
    return db


class TestAggregates:
    def test_count_star_counts_all_rows(self, agg_db):
        rows = agg_db.execute("SELECT count(*) AS n FROM t").rows
        assert rows == [(6,)]

    def test_count_column_skips_nulls(self, agg_db):
        rows = agg_db.execute("SELECT count(t.v) AS n FROM t").rows
        assert rows == [(4,)]

    def test_sum_avg_min_max(self, agg_db):
        rows = agg_db.execute(
            "SELECT sum(t.v) s, avg(t.v) a, min(t.v) mn, max(t.v) mx FROM t"
        ).rows
        assert rows == [(15, 15 / 4, 1, 7)]

    def test_group_by(self, agg_db):
        rows = agg_db.execute(
            "SELECT t.g, count(*) AS n, sum(t.v) AS s FROM t GROUP BY t.g ORDER BY t.g"
        ).rows
        assert rows == [("a", 3, 3), ("b", 2, 12), ("c", 1, None)]

    def test_scalar_aggregate_on_empty_input(self, agg_db):
        rows = agg_db.execute(
            "SELECT count(*) AS n, sum(t.v) AS s FROM t WHERE t.g = 'zzz'"
        ).rows
        assert rows == [(0, None)]

    def test_group_by_on_empty_input_yields_no_groups(self, agg_db):
        rows = agg_db.execute(
            "SELECT t.g, count(*) AS n FROM t WHERE t.g = 'zzz' GROUP BY t.g"
        ).rows
        assert rows == []

    def test_all_null_group_aggregates_to_none(self, agg_db):
        rows = agg_db.execute(
            "SELECT sum(t.f) s, avg(t.f) a FROM t WHERE t.g = 'c'"
        ).rows
        assert rows == [(None, None)]


class TestDistinct:
    def test_distinct_removes_duplicates(self, agg_db):
        rows = agg_db.execute("SELECT DISTINCT t.g FROM t").rows
        assert canonical(rows) == [("a",), ("b",), ("c",)]

    def test_distinct_preserves_distinct_rows(self, agg_db):
        rows = agg_db.execute("SELECT DISTINCT t.g, t.v FROM t").rows
        assert len(rows) == 6  # all (g, v) pairs are distinct here


class TestReturnLimit:
    def test_limit_cuts_stream(self, agg_db):
        result = agg_db.execute("SELECT t.v FROM t LIMIT 2")
        assert len(result.rows) == 2

    def test_limit_zero(self, agg_db):
        assert agg_db.execute("SELECT t.v FROM t LIMIT 0").rows == []

    def test_limit_larger_than_result(self, agg_db):
        assert len(agg_db.execute("SELECT t.v FROM t LIMIT 100").rows) == 6

    def test_order_by_with_limit_is_topk(self, agg_db):
        rows = agg_db.execute(
            "SELECT t.v FROM t WHERE t.v > 0 ORDER BY t.v DESC LIMIT 2"
        ).rows
        assert rows == [(7,), (5,)]


class TestAntiJoinCompensation:
    def test_multiset_difference(self):
        from repro.executor.base import ExecutionContext
        from repro.executor.runtime import build_executor
        from repro.expr.evaluate import RowLayout
        from repro.plan.physical import AntiJoin, TableScan
        from repro.plan.properties import PlanProperties
        from repro.storage.catalog import Catalog
        from repro.storage.table import Schema

        cat = Catalog()
        table = cat.create_table("t", Schema.of(("a", "int")))
        table.load_raw([(1,), (1,), (2,), (3,)])
        scan = TableScan(
            "t", "t", [],
            PlanProperties(frozenset({"t"}), frozenset()),
            RowLayout(["t.a"]), 4, 1,
        )
        plan = AntiJoin(scan, compensation_key="test")
        ctx = ExecutionContext(cat)
        ctx.compensation = Counter({(1,): 1, (3,): 1})
        op = build_executor(plan, ctx)
        op.open()
        rows = pull_all(op)
        # One of the two (1,) rows and the (3,) row are compensated away.
        assert sorted(rows) == [(1,), (2,)]
