"""Operators above an aggregate never stand for the join edge below it.

``_finalize`` passes the join's properties up through GROUP BY, HAVING,
DISTINCT, the ORDER BY sort and RETURN, so those operators carry the
join's edge signature while emitting different rows.  One predicate,
``relational_edge``, decides which operators may feed feedback, temp-MV
promotion and the plan cache's range re-estimation, and which edges may
carry a CHECK.
"""

from repro import Database, PopConfig
from repro.core.config import NO_POP
from repro.core.feedback import CardinalityFeedback
from repro.core.intermediates import harvest_execution_state
from repro.core.learning import LearnedCardinalities
from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.plan.physical import (
    Check,
    GroupBy,
    HavingFilter,
    MVScan,
    NLJoin,
    Sort,
    find_ops,
    relational_edge,
)
from repro.plan.properties import ValidityRange

AGG_SQL = (
    "SELECT b.aid, count(*) AS n FROM a, b WHERE a.id = b.aid AND a.g = 2 "
    "GROUP BY b.aid ORDER BY b.aid"
)
#: ``AGG_SQL`` with a misestimated outer (86 rows, not 43): its CHECK fires
#: below the aggregate.  Only the group count of ``AGG_SQL`` is misestimated,
#: and no CHECK is placed above an aggregate.
REOPT_SQL = AGG_SQL.replace("a.g = 2", "a.g < 2")
#: The ablation bench's trigger mode: a CHECK on nearly every edge.
ADHOC = PopConfig(adhoc_threshold_factor=1.01, require_alternatives=False)


def two_table_db() -> Database:
    db = Database()
    db.create_table("a", [("id", "int"), ("g", "int")])
    db.create_table("b", [("aid", "int"), ("v", "int")])
    db.insert("a", [(i, i % 7) for i in range(300)])
    db.insert("b", [(i % 300, i) for i in range(3000)])
    db.create_index("ix_b_aid", "b", "aid")
    db.runstats(num_buckets=2, num_mcvs=0)
    return db


def test_reoptimized_aggregate_returns_the_static_rows():
    db = two_table_db()
    expected = db.execute(REOPT_SQL, pop=NO_POP).rows
    assert expected[:2] == [(0, 10), (1, 10)]
    result = db.execute(REOPT_SQL, pop=ADHOC)
    assert len(result.report.attempts) > 1  # a CHECK fired and re-planned
    assert result.rows == expected


def test_learning_never_takes_a_group_count_for_a_join():
    db = two_table_db()
    db.enable_learning()
    db.execute(
        "SELECT a.g, count(*) AS n FROM a, b WHERE a.id = b.aid "
        "GROUP BY a.g ORDER BY a.g"
    )
    result = db.execute("SELECT a.id, b.v FROM a, b WHERE a.id = b.aid")
    assert len(result.rows) == 3000
    assert result.report.attempts[0].plan.est_card == 3000.0


def test_the_predicate_covers_the_subtree():
    db = two_table_db()
    _, placed = db.plan(
        "SELECT b.aid, count(*) AS n FROM a, b WHERE a.id = b.aid "
        "GROUP BY b.aid HAVING n > 1 ORDER BY b.aid",
        pop=NO_POP,
    )
    plan = placed.plan
    (group_by,) = find_ops(plan, GroupBy)
    (having,) = find_ops(plan, HavingFilter)
    (sort,) = find_ops(plan, Sort)
    assert relational_edge(group_by.children[0])
    for op in (group_by, having, sort, plan):
        assert not relational_edge(op)


def test_edges_above_an_mv_scan_stay_relational():
    # Later re-optimization rounds harvest the join above a reused MV.
    result = two_table_db().execute(REOPT_SQL, pop=ADHOC)
    above_mv = [
        op
        for attempt in result.report.attempts
        for op in attempt.plan.walk()
        if any(isinstance(child, MVScan) for child in op.children)
    ]
    assert above_mv, "the re-optimized plan should reuse a temp MV"
    assert all(relational_edge(op) for op in above_mv)


def test_a_check_above_the_aggregate_records_no_join_feedback():
    """A CHECK above GROUP BY's sort would count 43 groups, not the join's
    430 rows: its signal must not be recorded under the join signature,
    in the statement's feedback or in the learned store."""
    db = two_table_db()
    _, placed = db.plan(AGG_SQL, pop=ADHOC)
    (group_by,) = find_ops(placed.plan, GroupBy)
    (sort,) = find_ops(placed.plan, Sort)
    check = Check(sort, ValidityRange(0.0, 1.0), "LC")
    join_signature = group_by.children[0].properties.signature
    assert check.properties.signature == join_signature
    feedback = CardinalityFeedback()
    signal = ReoptimizationSignal(check, observed=43, complete=True)
    harvest_execution_state(
        ExecutionContext(db.catalog), signal, feedback, promote=True
    )
    assert feedback.lookup(join_signature) is None
    learned = LearnedCardinalities()
    assert learned.absorb(db._to_query(AGG_SQL), feedback) == 0
    assert len(learned) == 0


def test_no_check_is_placed_above_the_aggregate():
    """Such a CHECK tells a re-optimization nothing, so it would fire again
    in every round.  Placement skips non-relational edges: with only the
    group count misestimated, the statement runs once and the learned
    store keeps the join's own exact count."""
    db = two_table_db()
    db.enable_learning()
    _, placed = db.plan(AGG_SQL, pop=ADHOC)
    assert placed.checkpoints
    assert all(relational_edge(check) for check in placed.checkpoints)
    result = db.execute(AGG_SQL, pop=ADHOC)
    (attempt,) = result.report.attempts
    (join,) = find_ops(attempt.plan, NLJoin)
    learned = db.learning.seed(db._to_query(AGG_SQL)).lookup(
        join.properties.signature
    )
    assert (learned.cardinality, learned.exact) == (430.0, True)
