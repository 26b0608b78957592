"""Tests for cross-query learning, the paper's §7 "Learning for the
Future" extension."""

import pytest

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
            feedback = learning.seed()
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
            for signature in learning._store.snapshot():
                _, pred_ids = signature
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
        from repro.core.feedback import CardinalityFeedback

        fb = CardinalityFeedback()
        fb.record((frozenset({"t"}), frozenset()), 5, exact=True)
        learning.absorb(fb)
        assert len(learning) == 1
        learning.forget()
        assert len(learning) == 0

    def test_lower_bounds_not_absorbed(self):
        learning = LearnedCardinalities()
        from repro.core.feedback import CardinalityFeedback

        fb = CardinalityFeedback()
        fb.record((frozenset({"t"}), frozenset()), 5, exact=False)
        assert learning.absorb(fb) == 0

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
