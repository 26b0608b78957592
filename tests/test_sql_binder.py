"""Tests for SQL binding against the catalog."""

import pytest

from repro.common.errors import BindError
from repro.common.values import date_to_days
from repro.expr.expressions import Literal, ParameterMarker
from repro.expr.predicates import Between, Comparison, InList, Or
from repro.sql.binder import bind_sql
from repro.storage.catalog import Catalog
from repro.storage.table import Schema


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.create_table(
        "emp", Schema.of(("id", "int"), ("name", "str"), ("hired", "date"), ("pay", "float"))
    )
    cat.create_table("dept", Schema.of(("id", "int"), ("title", "str")))
    return cat


class TestResolution:
    def test_qualified_columns(self, catalog):
        query = bind_sql("SELECT e.name FROM emp e", catalog)
        assert query.output_names == ["e.name"]

    def test_unqualified_unique_column(self, catalog):
        query = bind_sql("SELECT name FROM emp", catalog)
        assert query.output_names == ["emp.name"]

    def test_ambiguous_column_rejected(self, catalog):
        with pytest.raises(BindError, match="ambiguous"):
            bind_sql("SELECT id FROM emp, dept", catalog)

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError, match="unknown table"):
            bind_sql("SELECT x FROM ghost", catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError, match="no column"):
            bind_sql("SELECT e.ghost FROM emp e", catalog)

    def test_unknown_alias(self, catalog):
        with pytest.raises(BindError, match="unknown table alias"):
            bind_sql("SELECT z.name FROM emp e", catalog)

    def test_duplicate_alias(self, catalog):
        with pytest.raises(BindError, match="duplicate"):
            bind_sql("SELECT e.name FROM emp e, dept e", catalog)


class TestPredicateClassification:
    def test_local_vs_join_split(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.id = d.id AND e.pay > 10",
            catalog,
        )
        assert len(query.join_predicates) == 1
        assert len(query.local_predicates) == 1

    def test_non_equi_join_rejected(self, catalog):
        with pytest.raises(BindError, match="equi-join"):
            bind_sql("SELECT e.name FROM emp e, dept d WHERE e.id < d.id", catalog)

    def test_same_table_column_comparison_rejected(self, catalog):
        with pytest.raises(BindError, match="within one table"):
            bind_sql("SELECT e.name FROM emp e WHERE e.id = e.pay", catalog)

    def test_or_bound(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.pay > 5 OR e.pay < 1", catalog
        )
        assert isinstance(query.local_predicates[0], Or)

    def test_or_across_tables_rejected(self, catalog):
        with pytest.raises(BindError, match="one table"):
            bind_sql(
                "SELECT e.name FROM emp e, dept d "
                "WHERE (e.pay > 5 OR d.id = 1) AND e.id = d.id",
                catalog,
            )

    def test_reversed_comparison_normalized(self, catalog):
        query = bind_sql("SELECT e.name FROM emp e WHERE 10 < e.pay", catalog)
        pred = query.local_predicates[0]
        assert isinstance(pred, Comparison)
        assert pred.op == ">"
        assert pred.operand == Literal(10.0)


class TestCoercion:
    def test_date_literal_converted(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.hired >= '2001-05-20'", catalog
        )
        pred = query.local_predicates[0]
        assert pred.operand == Literal(date_to_days("2001-05-20"))

    def test_invalid_date_literal(self, catalog):
        with pytest.raises(BindError, match="invalid date"):
            bind_sql("SELECT e.name FROM emp e WHERE e.hired = 'yesterday'", catalog)

    def test_int_literal_widened_for_float_column(self, catalog):
        query = bind_sql("SELECT e.name FROM emp e WHERE e.pay = 5", catalog)
        assert isinstance(query.local_predicates[0].operand.value, float)

    def test_between_dates(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e "
            "WHERE e.hired BETWEEN '2000-01-01' AND '2001-01-01'",
            catalog,
        )
        pred = query.local_predicates[0]
        assert isinstance(pred, Between)
        assert pred.low.value == date_to_days("2000-01-01")

    def test_in_list_coerced(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.hired IN ('2000-01-01', '2001-01-01')",
            catalog,
        )
        pred = query.local_predicates[0]
        assert isinstance(pred, InList)
        assert all(isinstance(v, int) for v in pred.values)

    def test_like_requires_string_column(self, catalog):
        with pytest.raises(BindError, match="string column"):
            bind_sql("SELECT e.name FROM emp e WHERE e.id LIKE '5%'", catalog)


class TestTypeMismatch:
    """A string compared with a number or a date (or the other way round)
    is a bind error, whatever plan would run it: a hash join found no
    match, an index nested loop raised ``TypeError`` from its bisect and a
    histogram ``TypeError`` while estimating."""

    @pytest.mark.parametrize("where", [
        "e.name = d.id",
        "d.id = e.name",
        "e.hired = d.title",
        "e.pay = d.title",
    ])
    def test_join_of_string_and_non_string_columns(self, catalog, where):
        with pytest.raises(BindError, match="cannot join"):
            bind_sql(f"SELECT e.name FROM emp e, dept d WHERE {where}", catalog)

    def test_join_of_number_and_date_columns_binds(self, catalog):
        query = bind_sql("SELECT e.name FROM emp e, dept d WHERE e.hired = d.id", catalog)
        assert len(query.join_predicates) == 1

    @pytest.mark.parametrize("where", [
        "e.id = '5'",
        "'5' = e.id",
        "e.pay < '5'",
        "e.name = 5",
        "e.name = 2.5",
        "e.id BETWEEN '1' AND '5'",
        "e.name BETWEEN 1 AND 5",
        "e.id IN ('1', '2')",
        "e.name IN (1, 2)",
        "e.id = 1 OR e.id = '2'",
    ])
    def test_literal_of_the_wrong_type(self, catalog, where):
        with pytest.raises(BindError, match="cannot compare"):
            bind_sql(f"SELECT e.name FROM emp e WHERE {where}", catalog)

    def test_null_and_numbers_still_bind(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.id = 2.5 AND e.hired > 11000 "
            "AND e.name IN ('a', 'b')",
            catalog,
        )
        assert len(query.local_predicates) == 3

    @pytest.fixture
    def db(self):
        from repro import Database

        db = Database()
        db.create_table("a", [("x", "str"), ("y", "int")])
        db.create_table("b", [("k", "int"), ("v", "int")])
        db.insert("a", [(str(i), i) for i in range(20)])
        db.insert("b", [(i, 10 * i) for i in range(20)])
        db.create_index("b_k", "b", "k")
        db.runstats()
        return db

    @pytest.mark.parametrize("sql", [
        "SELECT a.y, b.v FROM a, b WHERE a.x = b.k",
        "SELECT b.v FROM b WHERE b.k = '5'",
        "SELECT b.v FROM b WHERE b.k BETWEEN '1' AND '5'",
        "SELECT b.v FROM b WHERE b.k IN ('1', '5')",
    ])
    @pytest.mark.parametrize("cached", [False, True])
    def test_database_rejects_before_planning(self, db, sql, cached):
        if cached:
            db.enable_plan_cache()
        with pytest.raises(BindError):
            db.execute(sql)
        assert db.execute("SELECT b.v FROM b WHERE b.k = 5").rows == [(50,)]


class TestMarkers:
    def test_positional_markers_named_in_order(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.pay > ? AND e.id = ?", catalog
        )
        assert [p.operand.name for p in query.local_predicates] == ["p1", "p2"]

    def test_named_markers(self, catalog):
        query = bind_sql(
            "SELECT e.name FROM emp e WHERE e.pay > :floor", catalog
        )
        assert query.local_predicates[0].operand == ParameterMarker("floor")


class TestOrderAndAggregates:
    def test_order_by_select_alias(self, catalog):
        query = bind_sql(
            "SELECT e.name AS who FROM emp e ORDER BY who", catalog
        )
        assert query.order_by[0].column == "e.name"

    def test_order_by_aggregate_alias(self, catalog):
        query = bind_sql(
            "SELECT e.name, sum(e.pay) AS total FROM emp e "
            "GROUP BY e.name ORDER BY total DESC",
            catalog,
        )
        assert query.order_by[0].column == "total"
        assert not query.order_by[0].ascending

    def test_default_aggregate_alias(self, catalog):
        query = bind_sql("SELECT sum(e.pay) FROM emp e", catalog)
        assert query.output_names == ["sum_pay"]

    def test_count_star_alias(self, catalog):
        query = bind_sql("SELECT count(*) FROM emp e", catalog)
        assert query.output_names == ["count_star"]

    def test_order_by_missing_column_rejected(self, catalog):
        with pytest.raises(BindError, match="not in the select list"):
            bind_sql("SELECT e.name FROM emp e ORDER BY e.pay", catalog)
