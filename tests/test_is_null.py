"""Tests for IS [NOT] NULL across the stack."""

import pytest

from repro import Database
from repro.expr.evaluate import RowLayout, compile_filter
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import IsNull
from repro.stats.collect import collect_table_statistics
from repro.stats.selectivity import SelectivityEstimator
from repro.storage.table import Schema, Table


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", "int"), ("s", "str")])
    database.insert(
        "t", [(1, "x"), (None, "y"), (3, None), (None, None), (5, "z")]
    )
    database.runstats()
    return database


class TestPredicate:
    def test_pred_ids_distinguish_negation(self):
        plain = IsNull(ColumnRef("t", "a"))
        negated = IsNull(ColumnRef("t", "a"), negated=True)
        assert plain.pred_id != negated.pred_id

    def test_compiled_evaluation(self):
        layout = RowLayout(["t.a"])
        is_null = compile_filter([IsNull(ColumnRef("t", "a"))], layout, {})
        not_null = compile_filter(
            [IsNull(ColumnRef("t", "a"), negated=True)], layout, {}
        )
        assert is_null([(None,), (1,)]) == [(None,)]
        assert not_null([(None,), (1,)]) == [(1,)]


class TestSelectivity:
    def test_tracks_null_fraction(self):
        table = Table("t", Schema.of(("a", "int")))
        table.insert_many([(None,)] * 3 + [(1,)] * 7)
        stats = collect_table_statistics(table)
        estimator = SelectivityEstimator()
        s_null = estimator.local_selectivity(IsNull(ColumnRef("t", "a")), stats)
        s_not = estimator.local_selectivity(
            IsNull(ColumnRef("t", "a"), negated=True), stats
        )
        assert s_null == pytest.approx(0.3)
        assert s_not == pytest.approx(0.7)

    def test_default_without_stats(self):
        estimator = SelectivityEstimator()
        s = estimator.local_selectivity(IsNull(ColumnRef("t", "a")), None)
        assert 0.0 < s < 0.5


class TestSql:
    def test_is_null(self, db):
        rows = db.execute("SELECT t.s FROM t WHERE t.a IS NULL").rows
        assert sorted(rows, key=repr) == sorted([(None,), ("y",)], key=repr)

    def test_is_not_null(self, db):
        rows = db.execute("SELECT t.a FROM t WHERE t.s IS NOT NULL ORDER BY t.a").rows
        assert rows == [(1,), (5,), (None,)]  # NULLs sort last

    def test_combined_with_other_predicates(self, db):
        rows = db.execute(
            "SELECT t.a FROM t WHERE t.a IS NOT NULL AND t.a > 1"
        ).rows
        assert sorted(rows) == [(3,), (5,)]

    def test_in_or_group(self, db):
        rows = db.execute(
            "SELECT t.a FROM t WHERE t.a IS NULL OR t.a > 3"
        ).rows
        assert len(rows) == 3

    def test_pop_agrees_with_static(self, db):
        sql = "SELECT t.a, t.s FROM t WHERE t.s IS NOT NULL"
        assert sorted(db.execute(sql).rows, key=repr) == sorted(
            db.execute_without_pop(sql).rows, key=repr
        )
