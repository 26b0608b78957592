"""Tests for the DP plan enumerator: access paths, join methods, interesting
orders, MV reuse candidates, and validity-range narrowing during pruning."""

from collections import Counter

import pytest

from repro.executor.base import ExecutionContext
from repro.executor.runtime import run_plan
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate, predicate_set_id
from repro.optimizer import enumeration
from repro.optimizer.costmodel import CostModel
from repro.optimizer.enumeration import OptimizerOptions, PlanEnumerator, order_satisfies
from repro.plan.explain import join_order
from repro.plan.logical import Query, TableRef
from repro.plan.physical import (
    HashJoin,
    IndexScan,
    JoinOp,
    MergeJoin,
    MVScan,
    NLJoin,
    Sort,
    TableScan,
    find_ops,
)
from repro.storage.catalog import TempMVRegistry
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES


def two_table_query(local=None):
    return Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=local or [],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )


MERGE_ONLY = OptimizerOptions(
    enable_hash_join=False, enable_index_nljn=False, enable_rescan_nljn=False
)


class TestOrderSatisfies:
    def test_prefix_semantics(self):
        assert order_satisfies(("a", "b"), ("a",))
        assert order_satisfies(("a", "b"), ("a", "b"))
        assert order_satisfies(("a",), ())
        assert not order_satisfies(("a",), ("b",))
        assert not order_satisfies((), ("a",))


class TestAccessPaths:
    def test_index_scan_chosen_for_selective_sarg(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_id"), "=", Literal(5))]
        )
        plan = star_db.optimizer.optimize(query).plan
        scans = find_ops(plan, IndexScan)
        assert any(s.alias == "c" and s.sarg is not None for s in scans)

    def test_table_scan_for_unselective_predicate(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("o", "o_total"), ">", Literal(0.0))]
        )
        plan = star_db.optimizer.optimize(query).plan
        assert any(
            isinstance(op, TableScan) and op.alias == "o" for op in plan.walk()
        )

    def test_marker_sarg_allowed(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_id"), "=", ParameterMarker("p"))]
        )
        plan = star_db.optimizer.optimize(query).plan  # must not raise
        assert plan is not None


class TestJoinMethods:
    def test_small_outer_uses_index_nljn(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))]
        )
        plan = star_db.optimizer.optimize(query).plan
        joins = find_ops(plan, NLJoin)
        assert joins and joins[0].method == "index"

    def test_large_join_uses_hash(self, star_db):
        query = two_table_query()
        plan = star_db.optimizer.optimize(query).plan
        assert find_ops(plan, HashJoin)

    def test_disabling_methods_respected(self, star_db):
        plan = star_db.optimizer.optimize(two_table_query(), options=MERGE_ONLY).plan
        joins = [op for op in plan.walk() if isinstance(op, JoinOp)]
        assert all(isinstance(j, MergeJoin) for j in joins)

    def test_merge_join_adds_sort_enforcers(self, star_db):
        plan = star_db.optimizer.optimize(two_table_query(), options=MERGE_ONLY).plan
        assert find_ops(plan, Sort)
        merge = find_ops(plan, MergeJoin)[0]
        assert merge.properties.order  # output ordered on join keys

    def test_validity_ranges_narrowed_on_final_join(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))]
        )
        plan = star_db.optimizer.optimize(query).plan
        joins = [op for op in plan.walk() if isinstance(op, JoinOp)]
        assert any(
            not r.is_trivial for j in joins for r in j.validity_ranges
        ), "pruning must narrow at least one validity range"


class TestEnumerationModes:
    def test_leftdeep_and_bushy_same_results(self, tpch_db, monkeypatch):
        from repro.workloads.tpch.queries import Q5

        query = tpch_db._to_query(Q5)
        bushy = tpch_db.execute_without_pop(query)
        monkeypatch.setattr(enumeration, "AUTO_BUSHY_LIMIT", 0)
        leftdeep = tpch_db.execute_without_pop(query)
        from tests.conftest import canonical

        assert canonical(bushy.rows) == canonical(leftdeep.rows)

    def test_cross_product_when_disconnected(self, star_db):
        query = Query(
            tables=[TableRef("c", "cust"), TableRef("o", "orders")],
            select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
            local_predicates=[
                Comparison(ColumnRef("c", "c_id"), "=", Literal(1)),
                Comparison(ColumnRef("o", "o_id"), "=", Literal(2)),
            ],
        )
        result = star_db.execute_without_pop(query)
        assert len(result.rows) == 1

    def test_plans_enumerated_counter(self, star_db):
        result = star_db.optimizer.optimize(two_table_query())
        assert result.plans_enumerated > 3


class TestMVCandidates:
    def test_exact_mv_match_is_used(self, star_db):
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))]
        )
        # Manually promote the filtered customers as a temp MV.
        cust = star_db.catalog.table("cust")
        rows = [r for r in cust.rows if r[1] == "RARE"]
        temp_mvs = TempMVRegistry()
        temp_mvs.register(
            tables=frozenset({"c"}),
            predicate_ids=predicate_set_id(query.local_predicates),
            columns=("c.c_id", "c.c_segment", "c.c_nation"),
            rows=rows,
        )
        plan = star_db.optimizer.optimize(query, temp_mvs=temp_mvs).plan
        mv_scans = find_ops(plan, MVScan)
        assert mv_scans, "optimizer should pick the free intermediate result"
        assert mv_scans[0].est_card == len(rows)
        # Another statement's optimization never sees them.
        assert not find_ops(star_db.optimizer.optimize(query).plan, MVScan)

    def test_mv_with_residual_predicates(self, star_db):
        seg = Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))
        extra = Comparison(ColumnRef("c", "c_nation"), "=", Literal(3))
        query = two_table_query(local=[seg, extra])
        cust = star_db.catalog.table("cust")
        rows = [r for r in cust.rows if r[1] == "RARE"]
        temp_mvs = TempMVRegistry()
        temp_mvs.register(
            tables=frozenset({"c"}),
            predicate_ids=predicate_set_id([seg]),
            columns=("c.c_id", "c.c_segment", "c.c_nation"),
            rows=rows,
        )
        plan = star_db.optimizer.optimize(query, temp_mvs=temp_mvs).plan
        mv_scans = find_ops(plan, MVScan)
        assert mv_scans and mv_scans[0].filters  # residual applied on scan
        result = run_plan(
            plan, ExecutionContext(star_db.catalog, temp_mvs=temp_mvs)
        )
        joined = sum(
            1
            for row in star_db.catalog.table("orders").rows
            if any(r[0] == row[1] and r[2] == 3 for r in rows)
        )
        assert len(result) == joined

    def test_mv_filtered_beyond_the_query_is_not_reused(self, star_db):
        """An MV that applied a predicate the query does not have holds too
        few rows for it, so it is no candidate (catch-table mutant 15 drops
        this guard; no plan of the engine's own registers such an MV)."""
        seg = Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))
        extra = Comparison(ColumnRef("c", "c_nation"), "=", Literal(3))
        query = two_table_query(local=[seg])
        temp_mvs = TempMVRegistry()
        temp_mvs.register(
            tables=frozenset({"c"}),
            predicate_ids=predicate_set_id([seg, extra]),
            columns=("c.c_id", "c.c_segment", "c.c_nation"),
            rows=[],
        )
        plan = star_db.optimizer.optimize(query, temp_mvs=temp_mvs).plan
        assert not find_ops(plan, MVScan)

    def test_mvs_come_only_from_the_registry_passed(self, star_db):
        """The safe plan ignores temp MVs by passing no registry."""
        query = two_table_query(
            local=[Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))]
        )
        temp_mvs = TempMVRegistry()
        temp_mvs.register(
            tables=frozenset({"c"}),
            predicate_ids=predicate_set_id(query.local_predicates),
            columns=("c.c_id", "c.c_segment", "c.c_nation"),
            rows=[],
        )
        optimize = star_db.optimizer.optimize
        assert find_ops(optimize(query, temp_mvs=temp_mvs).plan, MVScan)
        assert not find_ops(optimize(query).plan, MVScan)


PLAN_HEAVY = ("Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10")


class TestAlternativeBookkeeping:
    """Pruning sees a subset's candidates grouped by input edges, and a kept
    join keeps them.  Its alternatives are, once each, the cost functions
    that a scan of every candidate of the subset finds — not cheaper, the
    same or the commuted edge pair, not the winner.  Only the joins of the
    returned plan are built (once each) and probed, and the probe makes one
    edge kernel per edge for the winner and for each alternative."""

    @pytest.fixture
    def audit(self, monkeypatch):
        tally = Counter()
        kernels = Counter()
        real_keep_best = PlanEnumerator._keep_best
        real_narrow = PlanEnumerator._narrow_against
        real_build = PlanEnumerator._build_join
        real_kernel = CostModel.edge_kernel

        def keep_best(self, groups):
            candidates = [c for group in groups.values() for c in group]
            kept = real_keep_best(self, groups)
            for winner in kept:
                if winner.part is None:
                    continue
                assert winner.plan is None
                edges = winner.part.edge_subsets
                (entry,) = [c for c in candidates if c[2] is winner.cost_desc]
                scanned = [
                    (alt[2], alt[4].edge_subsets != edges)
                    for alt in candidates
                    if len(alt) == 6
                    and alt[0] >= winner.cost
                    and alt[4].edge_subsets in (edges, edges[::-1])
                    and alt is not entry
                ]
                alternatives = self._alternatives(winner)
                assert set(alternatives) == set(scanned)
                assert len(set(alternatives)) == len(alternatives)
                tally["winners"] += 1
                tally["scanned"] += len(scanned)
                tally["recorded"] += len(alternatives)
            return kept

        def edge_kernel(self, *args):
            kernels["calls"] += 1
            return real_kernel(self, *args)

        def narrow_against(self, winner):
            before = kernels["calls"]
            real_narrow(self, winner)
            made = kernels["calls"] - before
            assert made <= 2 * (1 + len(self._alternatives(winner)))
            tally["probed"] += bool(made)

        def build_join(self, cand):
            tally["built"] += 1
            return real_build(self, cand)

        monkeypatch.setattr(PlanEnumerator, "_keep_best", keep_best)
        monkeypatch.setattr(PlanEnumerator, "_narrow_against", narrow_against)
        monkeypatch.setattr(PlanEnumerator, "_build_join", build_join)
        monkeypatch.setattr(CostModel, "edge_kernel", edge_kernel)
        return tally

    @pytest.mark.parametrize("mode", ["auto", "leftdeep"])
    def test_tpch_plan_heavy(self, tpch_db, audit, mode, monkeypatch):
        if mode == "leftdeep":
            monkeypatch.setattr(enumeration, "AUTO_BUSHY_LIMIT", 0)
        joins = 0
        for name in PLAN_HEAVY:
            plan = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name])).plan
            joins += len(find_ops(plan, JoinOp))
        assert audit["probed"] > 0
        # One operator tree per join of the returned plans, none for the
        # joins pruning kept elsewhere.
        assert audit["built"] == joins
        if mode == "auto":
            assert joins == 31
        # The same cost function reaches a winner more than once; it is
        # recorded once.
        assert audit["winners"] > audit["built"]
        assert audit["recorded"] < audit["scanned"]

    def test_dmv_statements(self, dmv_db, audit):
        """Every optimize of the 39 statements, re-optimization rounds (with
        their feedback and temp MVs) included."""
        for _, sql in dmv_queries():
            dmv_db.execute(sql)
        assert audit["probed"] > 0
        assert audit["recorded"] < audit["scanned"]


#: Tables in the chain: wider than ``AUTO_BUSHY_LIMIT``, the only input
#: that selects the left-deep path.
CHAIN = 10


@pytest.fixture(scope="module")
def chain_db():
    """``t0 … t9`` of 20, 35, … 155 rows, each ``(k, v)`` with ``k = v % 3``;
    every third one indexed on ``k``."""
    from repro import Database

    db = Database()
    for i in range(CHAIN):
        db.create_table(f"t{i}", [("k", "int"), ("v", "int")])
        db.insert(f"t{i}", [(j % 3, j) for j in range(20 + 15 * i)])
        if i % 3 == 0:
            db.create_index(f"ix_t{i}", f"t{i}", "k")
    db.runstats()
    return db


CHAIN_SQL = (
    "SELECT " + ", ".join(f"x{i}.v" for i in range(CHAIN))
    + " FROM " + ", ".join(f"t{i} x{i}" for i in range(CHAIN))
    + " WHERE " + " AND ".join(f"x{i}.k = x{i + 1}.k" for i in range(CHAIN - 1))
    + " AND " + " AND ".join(f"x{i}.v < 3" for i in range(CHAIN))
)


class TestWideChain:
    """A ten-table chain join is planned by the left-deep path: each join
    adds one table, as its inner.  Its plan walks alias bitmasks only, so
    it must not depend on string-hash order (CI runs this class under two
    ``PYTHONHASHSEED`` values)."""

    def test_every_inner_is_a_single_table_access(self, chain_db):
        query = chain_db._to_query(CHAIN_SQL)
        assert len(query.tables) > enumeration.AUTO_BUSHY_LIMIT
        opt = chain_db.optimizer.optimize(query)
        joins = find_ops(opt.plan, JoinOp)
        assert len(joins) == CHAIN - 1
        for join in joins:
            assert len(join.inner.properties.tables) == 1, join
        assert opt.plans_enumerated == 1876
        assert join_order(opt.plan) == (
            "(((((((((x3 NLJOIN x2) NLJOIN x1) NLJOIN x4) NLJOIN x5) NLJOIN x6)"
            " NLJOIN x7) NLJOIN x8) NLJOIN x9) NLJOIN x0)"
        )

    def test_rows_match_the_static_plan_and_the_reference(self, chain_db):
        from tests.conftest import canonical
        from tests.reference import evaluate_reference

        rows = canonical(chain_db.execute(CHAIN_SQL).rows)
        assert rows == canonical(chain_db.execute_without_pop(CHAIN_SQL).rows)
        assert rows == canonical(
            evaluate_reference(chain_db.catalog, chain_db._to_query(CHAIN_SQL))
        )
        assert len(rows) == 3
