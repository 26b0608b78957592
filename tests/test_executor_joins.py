"""Tests for join executors: all three methods must agree with each other
and with a brute-force oracle, including NULL and duplicate keys."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.config import NO_POP
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.logical import Query, TableRef
from tests.conftest import canonical


def join_db(left_keys, right_keys) -> Database:
    db = Database()
    db.create_table("l", [("k", "int"), ("tag", "int")])
    db.create_table("r", [("k", "int"), ("tag", "int")])
    db.catalog.table("l").load_raw([(k, i) for i, k in enumerate(left_keys)])
    db.catalog.table("r").load_raw([(k, i) for i, k in enumerate(right_keys)])
    db.create_index("ix_l", "l", "k")
    db.create_index("ix_r", "r", "k")
    db.runstats()
    return db


def join_query() -> Query:
    return Query(
        tables=[TableRef("l", "l"), TableRef("r", "r")],
        select=[
            ColumnRef("l", "k"),
            ColumnRef("l", "tag"),
            ColumnRef("r", "tag"),
        ],
        join_predicates=[JoinPredicate(ColumnRef("l", "k"), ColumnRef("r", "k"))],
    )


def oracle(left_keys, right_keys):
    return canonical(
        (lk, i, j)
        for i, lk in enumerate(left_keys)
        for j, rk in enumerate(right_keys)
        if lk is not None and lk == rk
    )


METHOD_OPTIONS = {
    "hash": OptimizerOptions(
        enable_merge_join=False, enable_index_nljn=False, enable_rescan_nljn=False
    ),
    "merge": OptimizerOptions(
        enable_hash_join=False, enable_index_nljn=False, enable_rescan_nljn=False
    ),
    "index_nljn": OptimizerOptions(
        enable_hash_join=False, enable_merge_join=False, enable_rescan_nljn=False
    ),
    "rescan_nljn": OptimizerOptions(
        enable_hash_join=False, enable_merge_join=False, enable_index_nljn=False
    ),
}


def run(db, query, options):
    """Static optimization under ``options``, no checkpoints."""
    return db.execute(query, pop=NO_POP, optimizer_options=options)


@pytest.mark.parametrize("method", sorted(METHOD_OPTIONS))
class TestEachMethod:
    def test_simple_join(self, method):
        left = [1, 2, 3, 4, 5]
        right = [3, 4, 5, 6, 7]
        db = join_db(left, right)
        result = run(db, join_query(), METHOD_OPTIONS[method])
        assert canonical(result.rows) == oracle(left, right)

    def test_duplicate_keys_cross_within_group(self, method):
        left = [1, 1, 2]
        right = [1, 1, 1, 2]
        db = join_db(left, right)
        result = run(db, join_query(), METHOD_OPTIONS[method])
        assert len(result.rows) == 2 * 3 + 1
        assert canonical(result.rows) == oracle(left, right)

    def test_null_keys_never_match(self, method):
        left = [None, 1, None, 2]
        right = [None, 2, 3]
        db = join_db(left, right)
        result = run(db, join_query(), METHOD_OPTIONS[method])
        assert canonical(result.rows) == oracle(left, right)

    def test_empty_side(self, method):
        db = join_db([], [1, 2, 3])
        assert run(db, join_query(), METHOD_OPTIONS[method]).rows == []

    def test_no_matches(self, method):
        db = join_db([1, 2], [3, 4])
        assert run(db, join_query(), METHOD_OPTIONS[method]).rows == []


class TestJoinEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=25),
        st.lists(st.one_of(st.none(), st.integers(0, 8)), max_size=25),
    )
    def test_all_methods_agree(self, left, right):
        expected = oracle(left, right)
        for method, options in METHOD_OPTIONS.items():
            db = join_db(left, right)
            result = run(db, join_query(), options)
            assert canonical(result.rows) == expected, method


class TestMultiPredicateJoin:
    def test_two_column_equi_join(self):
        db = Database()
        db.create_table("l", [("a", "int"), ("b", "int")])
        db.create_table("r", [("a", "int"), ("b", "int")])
        rng = random.Random(3)
        db.catalog.table("l").load_raw(
            [(rng.randrange(4), rng.randrange(4)) for _ in range(40)]
        )
        db.catalog.table("r").load_raw(
            [(rng.randrange(4), rng.randrange(4)) for _ in range(40)]
        )
        db.create_index("ix_ra", "r", "a")
        db.runstats()
        query = Query(
            tables=[TableRef("l", "l"), TableRef("r", "r")],
            select=[ColumnRef("l", "a"), ColumnRef("l", "b")],
            join_predicates=[
                JoinPredicate(ColumnRef("l", "a"), ColumnRef("r", "a")),
                JoinPredicate(ColumnRef("l", "b"), ColumnRef("r", "b")),
            ],
        )
        expected = canonical(
            (la, lb)
            for la, lb in db.catalog.table("l").rows
            for ra, rb in db.catalog.table("r").rows
            if la == ra and lb == rb
        )
        for method, options in METHOD_OPTIONS.items():
            result = run(db, query, options)
            assert canonical(result.rows) == expected, method
