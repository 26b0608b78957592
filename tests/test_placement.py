"""Tests for checkpoint placement (paper §4 rules)."""

import pytest

from repro import PopConfig
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.core.placement import place_checkpoints
from repro.expr.expressions import ColumnRef, Literal
from repro.expr.predicates import Comparison, JoinPredicate
from repro.optimizer.enumeration import OptimizerOptions, PlanEnumerator
from repro.plan.logical import Query, TableRef
from repro.plan.physical import BufCheck, Check, NLJoin, Sort, Temp, find_ops


def nljn_query():
    return Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=[
            Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))
        ],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )


def optimize(db, query, **options):
    return db.optimizer.optimize(query, options=OptimizerOptions(**options)).plan


@pytest.fixture
def no_ranges(monkeypatch):
    """The optimizer narrows no validity range."""
    monkeypatch.setattr(PlanEnumerator, "_narrow_against", lambda self, winner: None)


def place(db, plan, **config):
    return place_checkpoints(
        plan, PopConfig(**config), db.optimizer.cost_model, is_spj=True
    )


def merge_join_plan(db):
    """A hand-built MSJOIN(SORT, SORT) plan with narrowed validity ranges —
    the Fig. 7 shape, independent of what the optimizer would pick."""
    from repro.expr.evaluate import RowLayout
    from repro.plan.physical import MergeJoin, Return, TableScan
    from repro.plan.properties import PlanProperties

    def scan(alias, table, cols, card):
        return TableScan(
            alias, table, [],
            PlanProperties(frozenset({alias}), frozenset()),
            RowLayout([f"{alias}.{c}" for c in cols]),
            est_card=card, est_cost=card * 0.02,
        )

    c = scan("c", "cust", ("c_id", "c_segment", "c_nation"), 1200)
    o = scan("o", "orders", ("o_id", "o_custkey", "o_total"), 12000)
    sort_c = Sort(c, ("c.c_id",), c.properties.with_order(("c.c_id",)), 40.0)
    sort_o = Sort(o, ("o.o_custkey",), o.properties.with_order(("o.o_custkey",)), 900.0)
    pred = JoinPredicate(ColumnRef("c", "c_id"), ColumnRef("o", "o_custkey"))
    join = MergeJoin(
        sort_c, sort_o, [pred],
        c.properties.merge(o.properties, {pred.pred_id}),
        sort_c.layout.concat(sort_o.layout),
        est_card=12000, est_cost=2000,
        cost_desc=("merge", c.est_cost + o.est_cost, 1 / 1200, True, True),
    )
    join.validity_ranges[0].narrow_high(5000)
    join.validity_ranges[1].narrow_high(60000)
    return Return(join)


class TestDefaults:
    def test_lcem_on_nljn_outer(self, star_db):
        plan = optimize(star_db, nljn_query())
        assert find_ops(plan, NLJoin), "test premise: NLJN plan expected"
        result = place(star_db, plan)
        checks = find_ops(result.plan, Check)
        assert any(c.flavor == LCEM for c in checks)
        # The LCEM pair: CHECK directly above a TEMP.
        lcem = next(c for c in checks if c.flavor == LCEM)
        assert isinstance(lcem.children[0], Temp)

    def test_lc_above_existing_sorts(self, star_db):
        plan = merge_join_plan(star_db)
        assert find_ops(plan, Sort)
        result = place(star_db, plan)
        checks = find_ops(result.plan, Check)
        lcs = [c for c in checks if c.flavor == LC]
        assert lcs and all(isinstance(c.children[0], Sort) for c in lcs)

    def test_cheap_queries_get_no_checkpoints(self, star_db):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan, min_cost_for_checkpoints=1e12)
        assert result.count == 0

    def test_disabled_pop_places_nothing(self, star_db):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan, enabled=False)
        assert result.count == 0

    def test_ops_renumbered_after_placement(self, star_db):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan)
        ids = [op.op_id for op in result.plan.walk()]
        assert ids == list(range(len(ids)))

    def test_check_range_comes_from_validity_range(self, star_db):
        plan = optimize(star_db, nljn_query())
        nljn = find_ops(plan, NLJoin)[0]
        expected = nljn.validity_ranges[0]
        result = place(star_db, plan)
        lcem = next(c for c in find_ops(result.plan, Check) if c.flavor == LCEM)
        assert lcem.check_range.low == expected.low
        assert lcem.check_range.high == expected.high


class TestFlavorSelection:
    def test_ecb_replaces_lcem(self, star_db):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan, flavors=frozenset({LC, ECB}))
        assert find_ops(result.plan, BufCheck)
        assert not any(c.flavor == LCEM for c in find_ops(result.plan, Check))

    def test_ecwc_below_materializations(self, star_db):
        plan = merge_join_plan(star_db)
        result = place(star_db, plan, flavors=frozenset({ECWC}))
        checks = find_ops(result.plan, Check)
        ecwcs = [c for c in checks if c.flavor == ECWC]
        assert ecwcs
        # An ECWC's parent chain includes a materialization above it.
        for op in result.plan.walk():
            for child in op.children:
                if child in ecwcs:
                    assert op.IS_MATERIALIZATION

    def test_ecdc_on_pipelined_edges(self, star_db):
        plan = optimize(star_db, nljn_query(), enable_index_nljn=False,
                        enable_merge_join=False, enable_rescan_nljn=False)
        result = place_checkpoints(
            plan, PopConfig(flavors=frozenset({ECDC})),
            star_db.optimizer.cost_model, is_spj=True,
        )
        assert any(c.flavor == ECDC for c in find_ops(result.plan, Check))

    def test_ecdc_skipped_for_non_spj(self, star_db):
        plan = optimize(star_db, nljn_query(), enable_index_nljn=False,
                        enable_merge_join=False, enable_rescan_nljn=False)
        result = place_checkpoints(
            plan, PopConfig(flavors=frozenset({ECDC})),
            star_db.optimizer.cost_model, is_spj=False,
        )
        assert result.count == 0


class TestGuards:
    def test_require_alternatives_skips_trivial_ranges(self, star_db, no_ranges):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan, require_alternatives=True)
        assert result.count == 0

    def test_adhoc_threshold_mode(self, star_db, no_ranges):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan, adhoc_threshold_factor=5.0)
        checks = find_ops(result.plan, Check)
        assert checks
        for check in checks:
            est = max(check.children[0].est_card, 1.0)
            assert check.check_range.low == pytest.approx(est / 5.0)
            assert check.check_range.high == pytest.approx(est * 5.0)

    def test_no_double_checking_same_edge(self, star_db):
        plan = optimize(star_db, nljn_query())
        result = place(star_db, plan)
        for op in result.plan.walk():
            if isinstance(op, Check):
                assert not isinstance(op.children[0], Check)
