"""Tests for partitioned execution with local checking (§7 extension)."""

import pytest

from repro import Database, PopConfig
from repro.common.errors import ExecutionError
from repro.parallel import PartitionedExecutor
from tests.conftest import canonical


@pytest.fixture
def db(star_db):
    return star_db


def merged_equals_global(db, sql, partition_table, params=None, partitions=3):
    executor = PartitionedExecutor(db, partitions=partitions)
    partitioned = executor.run(sql, partition_table, params=params)
    reference = db.execute_without_pop(sql, params=params)
    assert canonical(partitioned.rows) == canonical(reference.rows)
    return partitioned


class TestCorrectness:
    def test_spj_join(self, db):
        merged_equals_global(
            db,
            "SELECT c.c_id, o.o_id FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey WHERE c.c_segment = 'MID'",
            "orders",
        )

    def test_partition_the_probe_side(self, db):
        merged_equals_global(
            db,
            "SELECT c.c_id, o.o_id FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey WHERE c.c_segment = 'RARE'",
            "cust",
        )

    def test_group_by_reaggregation(self, db):
        result = merged_equals_global(
            db,
            "SELECT c.c_segment, count(*) AS n, sum(o.o_total) AS total, "
            "min(o.o_total) AS lo, max(o.o_total) AS hi "
            "FROM cust c JOIN orders o ON c.c_id = o.o_custkey "
            "GROUP BY c.c_segment ORDER BY c.c_segment",
            "orders",
        )
        assert result.partitions == 3

    def test_scalar_aggregate(self, db):
        merged_equals_global(
            db,
            "SELECT count(*) AS n FROM orders o WHERE o.o_total > 250.0",
            "orders",
        )

    def test_scalar_aggregate_empty(self, db):
        result = merged_equals_global(
            db,
            "SELECT count(*) AS n FROM orders o WHERE o.o_total > 1e9",
            "orders",
        )
        assert result.rows == [(0,)]

    def test_order_and_limit_applied_globally(self, db):
        executor = PartitionedExecutor(db, partitions=4)
        sql = (
            "SELECT o.o_total, o.o_id FROM orders o "
            "ORDER BY o.o_total DESC, o.o_id LIMIT 5"
        )
        partitioned = executor.run(sql, "orders")
        reference = db.execute_without_pop(sql)
        assert partitioned.rows == reference.rows  # exact order, not just set

    def test_having_applied_after_merge(self, db):
        merged_equals_global(
            db,
            "SELECT c.c_segment, count(*) AS n FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey "
            "GROUP BY c.c_segment HAVING n > 1000",
            "orders",
        )

    def test_distinct_deduplicated_globally(self, db):
        merged_equals_global(
            db,
            "SELECT DISTINCT c.c_segment FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey",
            "orders",
        )

    def test_fragments_cleaned_up(self, db):
        executor = PartitionedExecutor(db, partitions=3)
        executor.run("SELECT o.o_id FROM orders o LIMIT 1", "orders")
        leftovers = [
            t.name for t in db.catalog.tables() if t.name.startswith("__frag")
        ]
        assert leftovers == []

    def test_fragments_cleaned_up_on_error(self, db):
        executor = PartitionedExecutor(db, partitions=3)
        with pytest.raises(ExecutionError):
            executor.run(
                "SELECT o.o_id FROM orders o WHERE o.o_total > ?", "orders"
            )  # unbound parameter
        leftovers = [
            t.name for t in db.catalog.tables() if t.name.startswith("__frag")
        ]
        assert leftovers == []


class TestValidation:
    def test_avg_rejected(self, db):
        executor = PartitionedExecutor(db, partitions=2)
        with pytest.raises(ExecutionError, match="AVG is not decomposable"):
            executor.run(
                "SELECT avg(o.o_total) AS a FROM orders o", "orders"
            )

    def test_unknown_partition_table(self, db):
        executor = PartitionedExecutor(db, partitions=2)
        with pytest.raises(ExecutionError, match="exactly once"):
            executor.run("SELECT c.c_id FROM cust c", "orders")

    def test_min_partitions(self, db):
        with pytest.raises(ValueError):
            PartitionedExecutor(db, partitions=1)


class TestLocalChecking:
    def test_fragments_reoptimize_independently(self, db):
        """The §7 scenario: a misestimate makes fragments re-optimize
        locally; accounting is per fragment."""
        executor = PartitionedExecutor(db, partitions=3)
        result = executor.run(
            "SELECT c.c_id, o.o_id FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey WHERE c.c_segment = ?",
            "orders",
            params={"p1": "COMMON"},
            pop=PopConfig(min_cost_for_checkpoints=0.0),
        )
        assert len(result.local_reoptimizations) == 3
        assert sum(result.local_reoptimizations) >= 1
        assert result.total_units == pytest.approx(
            sum(report.total_units for report in result.fragment_reports)
        )
        reference = db.execute_without_pop(
            "SELECT c.c_id, o.o_id FROM cust c "
            "JOIN orders o ON c.c_id = o.o_custkey WHERE c.c_segment = ?",
            params={"p1": "COMMON"},
        )
        assert canonical(result.rows) == canonical(reference.rows)

    def test_each_fragment_is_one_database_execute(self, db, monkeypatch):
        """Fragments enter through the front door like any statement."""
        entered = []
        real_execute = Database.execute

        def spy(self, statement, *args, **kwargs):
            entered.append(statement)
            return real_execute(self, statement, *args, **kwargs)

        monkeypatch.setattr(Database, "execute", spy)
        result = PartitionedExecutor(db, partitions=3).run(
            "SELECT o.o_id FROM orders o WHERE o.o_total > 100.0", "orders"
        )
        assert len(entered) == result.partitions == 3
        assert [q.tables[0].table for q in entered] == [
            f"__frag{i}_orders" for i in range(3)
        ]

    def test_distinct_final_plans_counted(self, db):
        executor = PartitionedExecutor(db, partitions=2)
        result = executor.run(
            "SELECT o.o_id FROM orders o WHERE o.o_total > 100.0", "orders"
        )
        assert 1 <= result.distinct_final_plans <= 2
