"""Tests for cross-query learning, the paper's §7 "Learning for the
Future" extension."""

import sys
import threading

import pytest

from repro import Database
from repro.core.feedback import CardinalityFeedback
from repro.core.learning import LearnedCardinalities
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate, predicate_set_id
from repro.plan.logical import Query, TableRef
from repro.workloads.dmv.generator import make_dmv_db
from repro.workloads.dmv.queries import dmv_queries
from tests.conftest import canonical

#: The DMV statements that re-optimize at the default (1x) scale.
DMV_REOPTIMIZING = (
    "six_table_deep_0",
    "zip_accident_rescan_0",
    "zip_accident_rescan_1",
    "zip_accident_rescan_2",
    "zip_inspection_rescan_1",
    "zip_inspection_rescan_2",
)


@pytest.fixture(scope="module")
def learning_dmv_db():
    """A DMV database of its own with learning on, and its statements."""
    db = make_dmv_db()
    db.enable_learning()
    yield db, dict(dmv_queries())
    db.disable_learning()


def marker_query():
    return Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=[
            Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
        ],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )


def literal_query(value="COMMON"):
    return Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=[
            Comparison(ColumnRef("c", "c_segment"), "=", Literal(value))
        ],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )


class TestLearning:
    def test_learns_from_completed_statements(self, star_db):
        learning = star_db.enable_learning()
        try:
            star_db.execute(literal_query())
            assert len(learning) > 0
            assert learning.statements_learned_from == 1
        finally:
            star_db.disable_learning()

    def test_learned_cardinality_corrects_future_estimates(self, star_db):
        learning = star_db.enable_learning()
        try:
            star_db.execute(literal_query())
            query = literal_query()
            feedback = learning.seed(query)
            signature = (
                frozenset({"c"}), predicate_set_id(query.local_predicates)
            )
            entry = feedback.lookup(signature)
            assert entry is not None and entry.exact
            actual = sum(
                1 for r in star_db.catalog.table("cust").rows if r[1] == "COMMON"
            )
            assert entry.cardinality == actual
        finally:
            star_db.disable_learning()

    def test_marker_edges_never_learned(self, star_db):
        learning = star_db.enable_learning()
        try:
            star_db.execute(marker_query(), params={"p": "COMMON"})
            assert len(learning) > 0
            for _aliases, pred_ids in learning.seed(marker_query()).snapshot():
                assert not any("?" in p for p in pred_ids)
        finally:
            star_db.disable_learning()

    def test_results_unchanged_with_learning(self, star_db):
        baseline = star_db.execute_without_pop(literal_query())
        star_db.enable_learning()
        try:
            star_db.execute(literal_query())  # learn
            second = star_db.execute(literal_query())  # use learned stats
            assert canonical(second.rows) == canonical(baseline.rows)
        finally:
            star_db.disable_learning()

    def test_forget(self):
        learning = LearnedCardinalities()
        fb = CardinalityFeedback()
        fb.record((frozenset({"c"}), frozenset()), 5, exact=True)
        fb.record((frozenset({"o"}), frozenset()), 7, exact=True)
        fb.record((frozenset({"c", "o"}), frozenset()), 9, exact=True)
        learning.absorb(literal_query(), fb)
        assert len(learning) == 3
        learning.forget(["orders"])
        assert set(learning.seed(literal_query()).snapshot()) == {
            (frozenset({"c"}), frozenset())
        }
        learning.forget()
        assert len(learning) == 0

    def test_lower_bounds_not_absorbed(self):
        learning = LearnedCardinalities()
        fb = CardinalityFeedback()
        fb.record((frozenset({"c"}), frozenset()), 5, exact=False)
        assert learning.absorb(literal_query(), fb) == 0

    def test_an_alias_seeds_only_the_table_it_was_learned_on(self):
        learning = LearnedCardinalities()
        fb = CardinalityFeedback()
        fb.record((frozenset({"c"}), frozenset()), 5, exact=True)
        learning.absorb(literal_query(), fb)
        renamed = Query(
            tables=[TableRef("c", "orders")], select=[ColumnRef("c", "o_id")]
        )
        assert len(learning.seed(renamed)) == 0
        assert len(learning.seed(literal_query())) == 1

    def test_concurrent_absorb_and_forget_lose_no_update(self):
        """Commits forget on their own thread while statements absorb."""
        learning = LearnedCardinalities()
        query = literal_query()

        def absorb(worker):
            for i in range(200):
                fb = CardinalityFeedback()
                fb.record(
                    (frozenset({"c"}), frozenset({f"w{worker}.{i}"})), i, exact=True
                )
                learning.absorb(query, fb)

        def forget():
            for _ in range(200):
                learning.forget(["orders"])

        threads = [threading.Thread(target=absorb, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=forget) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(learning) == 4 * 200

    @pytest.mark.parametrize("name", DMV_REOPTIMIZING)
    def test_second_run_needs_no_reoptimization(self, learning_dmv_db, name):
        """Learning's measured win on the DMV workload: a statement that
        re-optimized once runs its second time with no CHECK firing, the
        same rows and no more work."""
        db, sql = learning_dmv_db
        db.learning.forget()
        first = db.execute(sql[name])
        second = db.execute(sql[name])
        assert first.report.reoptimizations == 1
        assert not [
            e for a in second.report.attempts
            for e in a.checkpoint_events if e.triggered
        ]
        assert second.rows == first.rows
        assert second.report.total_units <= first.report.total_units


RANGE_SQL = "SELECT a.k FROM big a WHERE a.k < 100 AND a.k > 50"
SMALL_SQL = "SELECT a.k FROM small a WHERE a.k < 5 AND a.k > 1"


def big_small_db(transactions: bool = False) -> Database:
    """``big`` (5,000 rows) and ``small`` (10 rows), both keyed 0..n-1,
    with learning on."""
    db = Database()
    db.create_table("big", [("k", "int")])
    db.create_table("small", [("k", "int")])
    if transactions:
        db.enable_transactions()
    db.insert("big", [(i,) for i in range(5000)])
    db.insert("small", [(i,) for i in range(10)])
    db.runstats()
    db.enable_learning()
    return db


def scan_card(plan, alias: str) -> float:
    """The estimate of ``alias``'s access (table or index scan)."""
    (scan,) = [
        op for op in plan.walk()
        if not op.children and getattr(op, "alias", None) == alias
    ]
    return scan.est_card


def planned_card(db: Database, sql: str) -> float:
    """The scan estimate ``sql`` starts with, learned counts included."""
    return scan_card(db.plan(sql)[1].plan, "a")


def model_card(db: Database, sql: str) -> float:
    """The statistical model's scan estimate, no feedback."""
    return scan_card(db.optimizer.optimize(db._to_query(sql)).plan, "a")


class TestLearningAcrossStatements:
    def test_an_alias_learned_on_one_table_does_not_seed_another(self):
        db = big_small_db()
        join_sql = "SELECT a.k FROM small a, big b WHERE a.k = b.k"
        before = db.explain(join_sql)
        db.execute("SELECT a.k FROM big a")
        assert planned_card(db, join_sql) == 10.0
        assert db.explain(join_sql) == before

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.insert("big", [(5000,)]),
            lambda db: db.load_raw("big", [(5000,)]),
            lambda db: db.runstats(["big"]),
            lambda db: db.create_index("ix_big", "big", "k"),
        ],
        ids=["insert", "load_raw", "runstats", "create_index"],
    )
    def test_a_table_change_drops_its_learned_counts(self, change):
        db = big_small_db()
        db.execute(RANGE_SQL)
        db.execute(SMALL_SQL)
        assert planned_card(db, RANGE_SQL) == 49.0 != model_card(db, RANGE_SQL)
        assert planned_card(db, SMALL_SQL) == 3.0 != model_card(db, SMALL_SQL)
        change(db)
        assert planned_card(db, RANGE_SQL) == model_card(db, RANGE_SQL)
        assert planned_card(db, SMALL_SQL) == 3.0

    def test_a_commit_drops_learned_counts_without_a_plan_cache(self):
        db = big_small_db(transactions=True)
        assert db.plan_cache is None
        db.execute(RANGE_SQL)
        assert planned_card(db, RANGE_SQL) == 49.0
        db.begin()
        db.insert("big", [(5000,)])
        assert planned_card(db, RANGE_SQL) == 49.0  # not committed yet
        db.commit()
        assert planned_card(db, RANGE_SQL) == model_card(db, RANGE_SQL)

    def test_a_change_drops_learned_counts_and_cached_plans_together(self):
        db = big_small_db()
        db.execute(RANGE_SQL)
        # The cached path lifts literals into markers, which are never
        # learned: learn first, then cache.
        cache = db.enable_plan_cache()
        db.execute(RANGE_SQL)
        assert cache.entries()
        assert planned_card(db, RANGE_SQL) == 49.0
        db.insert("big", [(5000,)])
        assert not cache.entries()
        assert planned_card(db, RANGE_SQL) == model_card(db, RANGE_SQL)
