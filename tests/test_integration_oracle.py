"""Engine-vs-oracle integration tests.

Every query here is executed three ways — brute-force reference evaluator,
engine without POP, engine with POP — and all three must agree.  Generated
statements over the workload schemas, against sqlite and across every
feature axis, are ``test_matrix``'s.
"""

import random

import pytest

from repro import Database, PopConfig
from repro.core.flavors import ECB, ECDC, LC, LCEM
from repro.expr.expressions import ColumnRef, Literal
from repro.expr.predicates import Comparison, JoinPredicate
from repro.plan.logical import Aggregate, OrderItem, Query, TableRef
from tests.conftest import canonical
from tests.reference import evaluate_reference


def make_three_table_db(seed: int, sizes=(60, 200, 400)) -> Database:
    db = Database()
    db.create_table("a", [("id", "int"), ("grp", "int"), ("s", "str")])
    db.create_table("b", [("id", "int"), ("a_id", "int"), ("v", "int")])
    db.create_table("c", [("id", "int"), ("b_id", "int"), ("f", "float")])
    rng = random.Random(seed)
    na, nb, nc = sizes
    db.catalog.table("a").load_raw(
        [(i, rng.randrange(5), rng.choice("xyz")) for i in range(na)]
    )
    db.catalog.table("b").load_raw(
        [(i, rng.randrange(na), rng.randrange(50)) for i in range(nb)]
    )
    db.catalog.table("c").load_raw(
        [(i, rng.randrange(nb), round(rng.uniform(0, 10), 2)) for i in range(nc)]
    )
    db.create_index("ix_a", "a", "id")
    db.create_index("ix_b", "b", "a_id")
    db.create_index("ix_b_id", "b", "id")
    db.create_index("ix_c", "c", "b_id")
    db.runstats()
    return db


FIXED_QUERIES = [
    # Two-way join with a filter.
    Query(
        tables=[TableRef("a", "a"), TableRef("b", "b")],
        select=[ColumnRef("a", "id"), ColumnRef("b", "v")],
        local_predicates=[Comparison(ColumnRef("a", "s"), "=", Literal("x"))],
        join_predicates=[JoinPredicate(ColumnRef("b", "a_id"), ColumnRef("a", "id"))],
    ),
    # Three-way chain join.
    Query(
        tables=[TableRef("a", "a"), TableRef("b", "b"), TableRef("c", "c")],
        select=[ColumnRef("a", "grp"), ColumnRef("c", "f")],
        join_predicates=[
            JoinPredicate(ColumnRef("b", "a_id"), ColumnRef("a", "id")),
            JoinPredicate(ColumnRef("c", "b_id"), ColumnRef("b", "id")),
        ],
    ),
    # Aggregation over a join.
    Query(
        tables=[TableRef("a", "a"), TableRef("b", "b")],
        select=[
            ColumnRef("a", "grp"),
            Aggregate("count", None, "n"),
            Aggregate("sum", ColumnRef("b", "v"), "total"),
            Aggregate("avg", ColumnRef("b", "v"), "mean"),
            Aggregate("min", ColumnRef("b", "v"), "lo"),
            Aggregate("max", ColumnRef("b", "v"), "hi"),
        ],
        join_predicates=[JoinPredicate(ColumnRef("b", "a_id"), ColumnRef("a", "id"))],
        group_by=[ColumnRef("a", "grp")],
        order_by=[OrderItem("a.grp")],
    ),
    # Distinct projection.
    Query(
        tables=[TableRef("a", "a"), TableRef("b", "b")],
        select=[ColumnRef("a", "grp"), ColumnRef("a", "s")],
        join_predicates=[JoinPredicate(ColumnRef("b", "a_id"), ColumnRef("a", "id"))],
        distinct=True,
    ),
    # Order by + limit (with unique tiebreak).
    Query(
        tables=[TableRef("b", "b")],
        select=[ColumnRef("b", "v"), ColumnRef("b", "id")],
        local_predicates=[Comparison(ColumnRef("b", "v"), ">=", Literal(25))],
        order_by=[OrderItem("b.v", ascending=False), OrderItem("b.id")],
        limit=7,
    ),
]


@pytest.mark.parametrize("idx", range(len(FIXED_QUERIES)))
def test_fixed_queries_match_oracle(idx):
    db = make_three_table_db(seed=idx)
    query = FIXED_QUERIES[idx]
    expected = canonical(evaluate_reference(db.catalog, query))
    assert canonical(db.execute_without_pop(query).rows) == expected
    assert canonical(db.execute(query).rows) == expected


@pytest.mark.parametrize(
    "flavors",
    [frozenset({LC, LCEM}), frozenset({LC, ECB}), frozenset({ECDC})],
    ids=lambda f: "+".join(sorted(f)),
)
def test_flavor_mixes_match_oracle(flavors):
    db = make_three_table_db(seed=99)
    config = PopConfig(flavors=flavors, min_cost_for_checkpoints=0.0)
    for query in FIXED_QUERIES[:2]:
        expected = canonical(evaluate_reference(db.catalog, query))
        assert canonical(db.execute(query, pop=config).rows) == expected
