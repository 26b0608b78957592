"""``CostModel.recost``: one function re-prices a plan at any cardinalities.

Join nodes carry the enumerator's cost description (``JoinOp.cost_desc``),
and every other operator's formula follows from its kind, so ``recost``
replays the optimizer's own arithmetic.  The robustness map prices plans
through it.

* (a) At the estimates every node recosts to its ``est_cost`` with ``==``:
  every node of the TPC-H and DMV optimizer plans, and every node of each
  placed plan that has no LCEM CHECK below it.  Placement charges an LCEM
  TEMP's cost to the TEMP only; the join that reads it keeps the cost the
  optimizer gave it.  So nodes above an LCEM CHECK recost higher, by that
  TEMP's cost.  The gap is pinned here, not closed.
* (b) At random per-edge cardinalities a join recosts to the two-variable
  formula of :func:`tests.reference.two_variable_cost`, with ``base`` set to
  its recosted inputs.
* Regressions of the map's old private recost: index-NLJN probes scale with
  the outer, and the map prices a plan at its estimate at ``est_cost``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PopConfig
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.obs import RobustnessMap
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.physical import BufCheck, Check, JoinOp, NLJoin
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES
from tests.reference import two_variable_cost

#: Fig. 12's configuration: merge joins instead of hash joins.
NO_HASH = OptimizerOptions(enable_hash_join=False)
#: Without index NLJNs the marker query's plan is all hash joins.
NO_INDEX_NLJN = OptimizerOptions(enable_index_nljn=False)
MARKER_SQL = (
    "SELECT c.c_custkey, o.o_orderkey, l.l_quantity "
    "FROM customer c, orders o, lineitem l "
    "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
    "AND c.c_mktsegment = ?"
)
DISTINCT_SQL = (
    "SELECT DISTINCT c.c_mktsegment FROM customer c, orders o "
    "WHERE c.c_custkey = o.o_custkey"
)
#: Every flavor but LCEM, so a placed plan has no gap at all.
EAGER = PopConfig(flavors=frozenset({LC, ECB, ECWC, ECDC}))


def workload(tpch_db, dmv_db):
    """(database, sql) of every TPC-H and DMV statement, plus DISTINCT."""
    return (
        [(tpch_db, sql) for sql in TPCH_QUERIES.values()]
        + [(tpch_db, DISTINCT_SQL)]
        + [(dmv_db, sql) for _name, sql in dmv_queries()]
    )


def optimizer_plans(tpch_db, dmv_db):
    """(cost model, plan) of every statement under the default options and
    Fig. 12's."""
    return [
        (db.optimizer.cost_model, db.optimizer.optimize(db._to_query(sql), options=opts).plan)
        for db, sql in workload(tpch_db, dmv_db)
        for opts in (None, NO_HASH)
    ]


def mismatches(cm, plan, skip=lambda op: False):
    """Nodes (not skipped) whose recost at the estimates is not ``est_cost``."""
    cost = cm.recost(plan)
    return [
        (op.describe(), cost[op], op.est_cost)
        for op in plan.walk()
        if not skip(op) and cost[op] != op.est_cost
    ]


def lcem_below(op) -> bool:
    return any(
        isinstance(node, Check) and node.flavor == LCEM
        for child in op.children
        for node in child.walk()
    )


@pytest.fixture(scope="module")
def plans(tpch_db, dmv_db):
    return optimizer_plans(tpch_db, dmv_db)


# ------------------------------------------------ (a) exact at the estimates


def test_optimizer_plans_recost_to_est_cost(plans):
    assert [m for cm, plan in plans for m in mismatches(cm, plan)] == []
    kinds = {op.KIND for _, plan in plans for op in plan.walk()}
    assert kinds >= {
        "HSJOIN", "MSJOIN", "NLJOIN", "SORT", "TEMP", "GRPBY", "HAVING",
        "DISTINCT", "PROJECT", "IXSCAN", "TBSCAN",
    }


def test_placed_plans_recost_to_est_cost_outside_lcem(tpch_db, dmv_db):
    """Each attempt's placed plan under the default flavors, and every
    statement placed with every flavor but LCEM (ECDC needs an SPJ query
    with hash joins: the marker query without index NLJNs)."""
    placed = []
    for db, sql in workload(tpch_db, dmv_db):
        cm = db.optimizer.cost_model
        placed += [(cm, a.plan) for a in db.execute(sql).report.attempts]
        placed.append((cm, db.plan(sql, pop=EAGER)[1].plan))
    marker = tpch_db.plan(MARKER_SQL, pop=EAGER, optimizer_options=NO_INDEX_NLJN)[1].plan
    placed.append((tpch_db.optimizer.cost_model, marker))
    assert [m for cm, plan in placed for m in mismatches(cm, plan, lcem_below)] == []
    kinds = {(op.KIND, getattr(op, "flavor", None)) for _, p in placed for op in p.walk()}
    assert kinds >= {
        ("CHECK", LCEM), ("CHECK", LC), ("CHECK", ECWC), ("CHECK", ECDC),
        ("BUFCHECK", ECB), ("MVSCAN", None),
    }


def test_lcem_gap_is_the_temp_cost(tpch_db):
    """The documented gap: a node recosts higher than its ``est_cost`` by
    the own cost of the LCEM TEMPs below it, and by nothing else."""
    _opt, placement = tpch_db.plan(TPCH_QUERIES["Q3"])
    cm = tpch_db.optimizer.cost_model
    cost = cm.recost(placement.plan)
    gaps = 0
    for op in placement.plan.walk():
        lcem_temps = sum(
            cm.temp_cost(node.est_card)
            for child in op.children
            for node in child.walk()
            if isinstance(node, Check) and node.flavor == LCEM
        )
        assert cost[op] - op.est_cost == pytest.approx(lcem_temps, rel=1e-9, abs=1e-9)
        gaps += lcem_temps > 0.0
    assert gaps >= 2


# ---------------------------------------- (b) the two-variable formula holds


def below_enforcer(op):
    while isinstance(op, (Check, BufCheck)):
        op = op.children[0]
    return op.children[0]


def recosted_base(join, cost) -> float:
    """``base`` of the join's description, read off the recosted inputs the
    way the enumerator summed them."""
    kind, _base, *consts = join.cost_desc
    outer, inner = join.children
    if kind == "index":
        return cost[outer]
    if kind == "merge":
        _sel, sort_outer, sort_inner = consts
        return (
            cost[below_enforcer(outer) if sort_outer else outer]
            + cost[below_enforcer(inner) if sort_inner else inner]
        )
    if kind == "rescan":
        return cost[outer] + cost[below_enforcer(inner)]
    return cost[outer] + cost[inner]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(1 / 64, 64.0),
    st.floats(1 / 64, 64.0),
)
def test_join_recost_is_the_two_variable_formula(plans, pick, f_outer, f_inner):
    joins = [
        (cm, plan, op) for cm, plan in plans for op in plan.walk()
        if isinstance(op, JoinOp)
    ]
    cm, plan, join = joins[pick % len(joins)]
    outer, inner = join.children
    rows_outer = outer.est_card * f_outer
    rows_inner = inner.est_card * f_inner
    cost = cm.recost(plan, {outer.op_id: rows_outer, inner.op_id: rows_inner})
    kind, _base, *consts = join.cost_desc
    card_inner = rows_inner
    if kind == "index":
        # The correlated IXSCAN estimates the join's rows; the formula's
        # inner is the filtered table, which ``sel`` was derived from.
        card_inner = join.est_card / (outer.est_card * consts[-1]) * f_inner
    formula = two_variable_cost(cm, (kind, recosted_base(join, cost), *consts))
    assert cost[join] == pytest.approx(formula(rows_outer, card_inner), rel=1e-12)


# ----------------------------------------------------------- regressions


def test_index_nljn_probes_scale_with_the_outer(tpch_db):
    """Q3: with an index NLJN's outer at 10x its estimate, the inner IXSCAN
    is charged exactly 10x its ``est_cost`` and the plan rises by at least
    9x it; so does the map's point at its largest factor (the old map
    charged the probes as a constant)."""
    cm = tpch_db.optimizer.cost_model
    plan = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES["Q3"])).plan
    nljns = [op for op in plan.walk() if isinstance(op, NLJoin) and op.method == "index"]
    assert nljns
    for join in nljns:
        outer, inner = join.children
        cost = cm.recost(plan, {outer.op_id: 10 * outer.est_card})
        assert cost[inner] == 10 * inner.est_cost
        assert cost[plan] - plan.est_cost >= 9 * inner.est_cost

    surface = RobustnessMap(plan, cm).compute()
    edge = surface["edges"][0]
    (join,) = [op for op in nljns if op.children[0].op_id == edge["edge_op_id"]]
    factors = surface["factors"][0]
    top = factors[-1]
    at_estimate_row = surface["cost"][surface["factors"][1].index(1.0)]
    assert at_estimate_row[factors.index(1.0)] == plan.est_cost
    rise = at_estimate_row[-1] - plan.est_cost
    assert rise >= (top - 1.0) * join.inner.est_cost


def test_the_map_prices_each_plan_at_its_estimate(plans):
    """Every optimizer plan's map costs ``est_cost`` at the estimate; the
    old map double-counted a rescan NLJN's TEMP."""
    for cm, plan in plans:
        assert RobustnessMap(plan, cm).compute()["base_cost"] == plan.est_cost
