"""Failure-injection and edge-condition tests: the engine must stay correct
when statistics are missing, tables are empty, keys are NULL-heavy, or
re-optimization keeps firing."""

import pytest

from repro import Database, PopConfig
from repro.common.errors import OptimizerError
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.logical import Query, TableRef
from tests.conftest import canonical


def join_query(local=None):
    return Query(
        tables=[TableRef("a", "a"), TableRef("b", "b")],
        select=[ColumnRef("a", "k"), ColumnRef("b", "v")],
        local_predicates=local or [],
        join_predicates=[JoinPredicate(ColumnRef("a", "k"), ColumnRef("b", "k"))],
    )


def two_tables(a_rows, b_rows, runstats=True, index=True):
    db = Database()
    db.create_table("a", [("k", "int"), ("x", "str")])
    db.create_table("b", [("k", "int"), ("v", "int")])
    db.catalog.table("a").load_raw(a_rows)
    db.catalog.table("b").load_raw(b_rows)
    if index:
        db.create_index("ix_b_k", "b", "k")
    if runstats:
        db.runstats()
    return db


class TestMissingStatistics:
    def test_query_without_runstats_is_correct(self):
        db = two_tables(
            [(i, "s") for i in range(50)],
            [(i % 50, i) for i in range(300)],
            runstats=False,
        )
        result = db.execute(join_query())
        assert len(result.rows) == 300

    def test_partial_runstats(self):
        db = two_tables(
            [(i, "s") for i in range(50)],
            [(i % 50, i) for i in range(300)],
            runstats=False,
        )
        db.runstats(tables=["a"])  # b has no stats
        result = db.execute(join_query())
        assert len(result.rows) == 300

    def test_no_indexes_at_all(self):
        db = two_tables(
            [(i, "s") for i in range(30)],
            [(i % 30, i) for i in range(100)],
            index=False,
        )
        result = db.execute(join_query())
        assert len(result.rows) == 100


class TestDegenerateData:
    def test_both_tables_empty(self):
        db = two_tables([], [])
        assert db.execute(join_query()).rows == []

    def test_one_table_empty(self):
        db = two_tables([(1, "s")], [])
        assert db.execute(join_query()).rows == []

    def test_all_null_join_keys(self):
        db = two_tables(
            [(None, "s")] * 20,
            [(None, 1)] * 30,
        )
        assert db.execute(join_query()).rows == []

    def test_single_row_tables(self):
        db = two_tables([(7, "s")], [(7, 42)])
        assert db.execute(join_query()).rows == [(7, 42)]

    def test_predicate_matching_nothing(self):
        db = two_tables([(i, "s") for i in range(10)], [(i, i) for i in range(10)])
        query = join_query(
            local=[Comparison(ColumnRef("a", "k"), "=", Literal(-1))]
        )
        assert db.execute(query).rows == []


class TestOptimizerFailures:
    def test_all_join_methods_disabled(self):
        db = two_tables([(1, "s")], [(1, 1)])
        options = OptimizerOptions(
            enable_hash_join=False,
            enable_merge_join=False,
            enable_index_nljn=False,
            enable_rescan_nljn=False,
        )
        with pytest.raises(OptimizerError, match="no plan"):
            db.execute(join_query(), optimizer_options=options)

    def test_query_with_no_tables_rejected(self):
        db = Database()
        with pytest.raises(OptimizerError, match="no tables"):
            db.optimizer.optimize(Query(tables=[], select=[]))


class TestRepeatedReoptimization:
    def test_persistently_wrong_estimates_terminate(self):
        """Every attempt discovers a new violated range; the reopt cap must
        stop the oscillation (paper §7)."""
        import random

        rng = random.Random(5)
        db = two_tables(
            [(i % 10, "s") for i in range(3000)],
            [(rng.randrange(10), i) for i in range(9000)],
        )
        query = join_query(
            local=[Comparison(ColumnRef("a", "x"), "=", ParameterMarker("p"))]
        )
        config = PopConfig(max_reoptimizations=3, min_cost_for_checkpoints=0.0)
        result = db.execute(query, params={"p": "s"}, pop=config)
        assert len(result.report.attempts) <= 4
        baseline = db.execute_without_pop(query, params={"p": "s"})
        assert canonical(result.rows) == canonical(baseline.rows)

    def test_stale_temp_mvs_never_leak_between_statements(self, star_db):
        marker = Query(
            tables=[TableRef("c", "cust"), TableRef("o", "orders")],
            select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
            local_predicates=[
                Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
            ],
            join_predicates=[
                JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
            ],
        )
        first = star_db.execute(marker, params={"p": "COMMON"})
        assert first.report.reoptimizations >= 1
        # Re-running with a different bind must not see stale rows.
        second = star_db.execute(marker, params={"p": "RARE"})
        baseline = star_db.execute_without_pop(marker, params={"p": "RARE"})
        assert canonical(second.rows) == canonical(baseline.rows)


class TestLimitsAndCompensationInteraction:
    def test_limit_with_ecdc_reopt(self, star_db):
        from repro.core.flavors import ECDC

        query = Query(
            tables=[TableRef("c", "cust"), TableRef("o", "orders")],
            select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
            local_predicates=[
                Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
            ],
            join_predicates=[
                JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
            ],
            limit=25,
        )
        config = PopConfig(flavors=frozenset({ECDC}), min_cost_for_checkpoints=0.0)
        result = star_db.execute(query, params={"p": "COMMON"}, pop=config)
        assert len(result.rows) <= 25
        # All returned rows are genuine join results.
        cust = {r[0] for r in star_db.catalog.table("cust").rows if r[1] == "COMMON"}
        orders = {
            (r[1], r[0]) for r in star_db.catalog.table("orders").rows
        }
        for c_id, o_id in result.rows:
            assert c_id in cust and (c_id, o_id) in orders
