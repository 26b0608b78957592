"""The one-variable cost kernels of the Fig. 5 probe, and the DP's
once-per-partition costing.

``CostModel.edge_kernel`` restricts a join's total cost to one input edge
with the fixed side's terms precomputed; the probe's bounds are frozen in
``tests/fixtures/validity_ranges_golden.json`` with ``repr`` precision, so
"close" is not good enough: every kernel value must be *equal* to the
two-variable formula's (:func:`tests.reference.two_variable_cost`, the
closures the enumerator used to carry).

Three layers: (i) kernel ``==`` formula at random points and around every
spill step; (ii) on generated join graphs, an optimizer narrowing through
the kernels returns the plans, ranges and iteration counts of one narrowing
through the reference; (iii) counts — not wall clock — that keep the DP's
per-partition hoisting from rotting.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.expr.expressions import ColumnRef, Literal
from repro.expr.predicates import Comparison, JoinPredicate
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostModel
from repro.optimizer.enumeration import PlanEnumerator
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.optimizer import Optimizer
from repro.plan.explain import explain_plan
from repro.plan.logical import Query, TableRef
from repro.plan.physical import JoinOp
from repro.stats.column_stats import ColumnStatistics
from repro.stats.table_stats import TableStatistics
from repro.workloads.tpch.queries import TPCH_QUERIES
from tests.reference import reference_edge_kernel

PARAM_SETS = (DEFAULT_COST_PARAMS, DEFAULT_COST_PARAMS.scaled_memory(0.01))


def descriptions(base: float, sel: float, probe_cost: float) -> list[tuple]:
    """Every kind × sort flags."""
    return [
        ("hash", base, sel),
        ("rescan", base, sel),
        ("index", base, probe_cost, sel),
        *(
            ("merge", base, sel, sort_outer, sort_inner)
            for sort_outer in (False, True)
            for sort_inner in (False, True)
        ),
    ]


def step_cardinalities(params) -> list[float]:
    """Cardinalities at, just around and well beyond every spill step of the
    cost model (hash build, sort, TEMP, the sort's merge passes), plus the
    degenerate ones the clamps exist for."""
    steps = {
        pages * params.rows_per_page
        for mem in (params.hash_mem_pages, params.sort_mem_pages, params.temp_mem_pages)
        for pages in (1, mem, 2 * mem, 8 * mem, 64 * mem)
    }
    cards = [0.0, -0.0, -1.0, -1e9, 1e-6, 1.0]
    for step in sorted(steps):
        cards += [
            step, math.nextafter(step, math.inf), math.nextafter(step, -math.inf),
            step - 1.0, step + 1.0, step * 1.1, step / 1.1, step * 10.0,
        ]
    return cards


class TestKernelEqualsFormula:
    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 1e7),               # cost of the two inputs
        st.floats(1e-12, 1.0),             # effective join selectivity
        st.floats(0.01, 50.0),             # cost of one index probe
        st.integers(0, 2**32 - 1),         # picks the fixed edge's cardinality
        st.lists(st.floats(-10.0, 1e9), min_size=1, max_size=8),
    )
    def test_every_kind_position_and_flag(self, base, sel, probe_cost, pick, drawn):
        for params in PARAM_SETS:
            cm = CostModel(params)
            steps = step_cardinalities(params)
            other = (steps + drawn)[pick % (len(steps) + len(drawn))]
            for description in descriptions(base, sel, probe_cost):
                for position in (0, 1):
                    kernel = cm.edge_kernel(description, position, other)
                    reference = reference_edge_kernel(cm, description, position, other)
                    for card in steps + drawn:
                        assert kernel(card) == reference(card), (
                            description, position, other, card
                        )

    def test_the_steps_are_exercised(self):
        """The step list above does reach both sides of every branch."""
        for params in PARAM_SETS:
            cm = CostModel(params)
            cards = step_cardinalities(params)
            assert any(cm.pages_for(c) > params.hash_mem_pages for c in cards)
            assert any(cm.pages_for(c) <= params.hash_mem_pages for c in cards)
            passes = {
                math.ceil(math.log(cm.pages_for(c) / params.sort_mem_pages, 8))
                for c in cards
                if cm.pages_for(c) > params.sort_mem_pages
            }
            assert len(passes) >= 2  # the external sort's merge-pass step too


# ------------------------------------------------ (ii) generated join graphs


class ReferenceKernelModel(CostModel):
    """Narrows through the two-variable formulas, as the enumerator did."""

    def edge_kernel(self, description, position, other_card):
        return reference_edge_kernel(self, description, position, other_card)


def generated_case(seed: int, n: int, shape: str) -> tuple[Database, Query]:
    """``n`` empty tables with random statistics (the optimizer reads nothing
    else), some indexed, joined as a chain, a star or a chain closed into one
    cycle, with a few local predicates."""
    rng = random.Random(seed)
    db = Database()
    for i in range(n):
        name = f"t{i}"
        db.create_table(name, [("k", "int"), ("f", "int"), ("v", "int")])
        for column in ("k", "f"):
            if rng.random() < 0.5:
                db.create_index(f"ix_{name}_{column}", name, column)
        rows = int(10 ** rng.uniform(1.0, 6.5))
        db.catalog.set_statistics(
            name,
            TableStatistics(
                name, rows, max(1, rows // rng.randint(20, 200)),
                {
                    column: ColumnStatistics(
                        column, rows, 0, max(1, int(rows * rng.choice((1.0, 0.1, 0.001)))),
                        min_value=0, max_value=rows,
                    )
                    for column in ("k", "f", "v")
                },
            ),
        )
    if shape == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        if shape == "cycle":
            edges.append((n - 1, 0))
    locals_ = [
        Comparison(
            ColumnRef(f"t{i}", rng.choice(("k", "v"))),
            rng.choice(("=", "<", ">")),
            Literal(rng.randint(0, 1000)),
        )
        for i in range(n)
        if rng.random() < 0.5
    ]
    query = Query(
        tables=[TableRef(f"t{i}", f"t{i}") for i in range(n)],
        select=[ColumnRef("t0", "k")],
        local_predicates=locals_,
        join_predicates=[
            JoinPredicate(ColumnRef(f"t{a}", "f"), ColumnRef(f"t{b}", "k"))
            for a, b in edges
        ],
    )
    return db, query


def optimized(db: Database, query: Query, cost_model: CostModel):
    optimizer = Optimizer(db.catalog)
    optimizer.cost_model = cost_model
    result = optimizer.optimize(query)
    ranges = [
        (op.op_id, [(r.low, r.high) for r in op.validity_ranges])
        for op in result.plan.walk()
        if isinstance(op, JoinOp)
    ]
    return (
        explain_plan(result.plan), ranges,
        result.newton_iterations, result.plans_enumerated,
    )


class TestGeneratedJoinGraphs:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 6),
        st.sampled_from(("chain", "star", "cycle")),
        st.sampled_from(PARAM_SETS),
    )
    def test_plans_ranges_and_iterations_equal_the_reference(
        self, seed, n, shape, params
    ):
        db, query = generated_case(seed, n, shape)
        assert optimized(db, query, CostModel(params)) == optimized(
            db, query, ReferenceKernelModel(params)
        )

    def test_generated_cases_do_narrow(self):
        """The property above is not vacuous: these cases spend Newton
        iterations and commit finite bounds."""
        iterations = narrowed = 0
        for seed in range(12):
            db, query = generated_case(seed, 3 + seed % 4, ("chain", "star", "cycle")[seed % 3])
            _, ranges, spent, _ = optimized(db, query, CostModel())
            iterations += spent
            narrowed += sum(
                high < math.inf or low > 0.0 for _, edges in ranges for low, high in edges
            )
        assert iterations > 500 and narrowed > 20


# ------------------------------------------------------------- (iii) counts


class CountingModel(CostModel):
    """Counts two-variable join costings per partition of the DP."""

    def __init__(self):
        super().__init__()
        self.partition = None
        self.costed: Counter = Counter()

    def _count(self, method: str, *args) -> None:
        self.costed[(self.partition, method, args)] += 1

    def hash_join_cost(self, *args):
        self._count("hash", *args)
        return super().hash_join_cost(*args)

    def merge_join_cost(self, *args):
        self._count("merge", *args)
        return super().merge_join_cost(*args)

    def nljn_rescan_cost(self, *args):
        self._count("rescan", *args)
        return super().nljn_rescan_cost(*args)


def test_q8_costs_each_partition_once(tpch_db, monkeypatch):
    """TPC-H Q8: a two-variable join cost is evaluated at most once per
    (partition, input-cardinality pair, sort flags) — and never by the
    probe — and the join predicates of an ordered partition are looked up
    once."""
    model = CountingModel()
    pairs = Counter()
    between = Counter()
    real_partition = PlanEnumerator._partition
    real_candidates = PlanEnumerator._join_candidates
    real_between = JoinGraph.predicates_between

    def entering(self, left_tables, right_tables, *rest):
        model.partition = (left_tables, right_tables)
        return real_partition(self, left_tables, right_tables, *rest)

    def counting_pairs(self, left, right, part):
        pairs[part.edge_subsets] += 1
        return real_candidates(self, left, right, part)

    def counting_between(self, left, right):
        between[(frozenset(left), frozenset(right))] += 1
        return real_between(self, left, right)

    monkeypatch.setattr(PlanEnumerator, "_partition", entering)
    monkeypatch.setattr(PlanEnumerator, "_join_candidates", counting_pairs)
    monkeypatch.setattr(JoinGraph, "predicates_between", counting_between)

    optimizer = Optimizer(tpch_db.catalog)
    optimizer.cost_model = model
    result = optimizer.optimize(tpch_db._to_query(TPCH_QUERIES["Q8"]))

    assert result.newton_iterations > 0
    assert set(model.costed.values()) == {1}
    assert set(between.values()) == {1}
    # The hoisting bites: most partitions are entered by several pairs of
    # kept plans, which share their cardinalities.
    assert max(pairs.values()) > 4
    costed = Counter(method for _, method, _ in model.costed)
    assert costed["hash"] == costed["rescan"] < sum(pairs.values())
    assert costed["merge"] < sum(pairs.values())
