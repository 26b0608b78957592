"""Operators above an aggregate never stand for the join edge below it.

``_finalize`` passes the join's properties up through GROUP BY, HAVING,
DISTINCT, the ORDER BY sort and RETURN, so those operators carry the
join's edge signature while emitting different rows.  One predicate,
``relational_edge``, decides which operators may feed feedback, temp-MV
promotion and the plan cache's range re-estimation.
"""

from repro import Database, PopConfig
from repro.core.config import NO_POP
from repro.plan.physical import (
    GroupBy,
    HavingFilter,
    MVScan,
    Sort,
    find_ops,
    relational_edge,
)

AGG_SQL = (
    "SELECT b.aid, count(*) AS n FROM a, b WHERE a.id = b.aid AND a.g = 2 "
    "GROUP BY b.aid ORDER BY b.aid"
)
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
    expected = db.execute(AGG_SQL, pop=NO_POP).rows
    assert expected[:2] == [(2, 10), (9, 10)]
    result = db.execute(AGG_SQL, pop=ADHOC)
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
    result = two_table_db().execute(AGG_SQL, pop=ADHOC)
    above_mv = [
        op
        for attempt in result.report.attempts
        for op in attempt.plan.walk()
        if any(isinstance(child, MVScan) for child in op.children)
    ]
    assert above_mv, "the re-optimized plan should reuse a temp MV"
    assert all(relational_edge(op) for op in above_mv)
