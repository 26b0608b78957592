"""Property tests of the paper's §2.2 guarantee.

Definition: a validity range is constructed so that "if the range is
violated at run-time, we can guarantee P is suboptimal with respect to the
optimizer's cost model" (against a structurally equivalent alternative).
These tests verify that guarantee mechanically: whenever a committed bound
came from a genuine cost inversion, the alternative plan really is no more
expensive at and beyond that bound.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.costmodel import CostModel
from repro.optimizer.enumeration import PlanEnumerator, _Partition
from repro.optimizer.validity import _probe, narrow_validity_range
from repro.plan.properties import ValidityRange


CM = CostModel()


def nljn_cost_fn(probe_cost: float):
    """Index NLJN total as a function of the outer cardinality."""
    return lambda c: c * probe_cost + c * CM.params.cpu_emit


def hsjn_cost_fn(inner_card: float, inner_scan: float):
    """Hash join (build on the inner) as a function of the outer card."""
    return lambda c: inner_scan + CM.hash_join_cost(c, inner_card, c)


class TestRealCostFunctions:
    """The guarantee over the engine's actual cost model (with its spill
    discontinuities), not toy linear functions."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(10, 5_000),      # estimated outer cardinality
        st.floats(0.05, 2.0),      # per-probe cost
        st.floats(1_000, 100_000), # inner cardinality
    )
    def test_upper_bound_violation_implies_better_alternative(
        self, est, probe, inner
    ):
        inner_scan = CM.table_scan_cost(inner / 64.0, inner)
        nljn = nljn_cost_fn(probe)
        hsjn = hsjn_cost_fn(inner, inner_scan)
        if nljn(est) >= hsjn(est):
            return  # NLJN would not be the chosen plan at this estimate
        rng = ValidityRange()
        narrow_validity_range(rng, est, nljn, hsjn)
        if math.isinf(rng.high):
            return
        result = _probe(est, nljn, hsjn, upward=True, max_iterations=3)
        if result.inversion_found:
            # Violated bound => the alternative is genuinely no worse there.
            assert hsjn(rng.high) <= nljn(rng.high) * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(10, 5_000),
        st.floats(0.05, 2.0),
        st.floats(1_000, 100_000),
    )
    def test_bounds_bracket_the_estimate(self, est, probe, inner):
        inner_scan = CM.table_scan_cost(inner / 64.0, inner)
        nljn = nljn_cost_fn(probe)
        hsjn = hsjn_cost_fn(inner, inner_scan)
        if nljn(est) >= hsjn(est):
            return
        rng = ValidityRange()
        narrow_validity_range(rng, est, nljn, hsjn)
        # The estimate itself always stays valid: POP never re-optimizes a
        # plan whose estimate was exactly right.
        assert rng.contains(est)


class TestEndToEndGuarantee:
    def test_fired_check_leads_to_cheaper_plan(self, star_db):
        """When a checkpoint fires, the re-optimized attempt's estimated
        cost under the *corrected* cardinalities must be below the original
        plan's cost under those same cardinalities — and measured work of
        the re-optimized portion confirms it end to end."""
        from repro.expr.expressions import ColumnRef, ParameterMarker
        from repro.expr.predicates import Comparison, JoinPredicate
        from repro.plan.logical import Query, TableRef

        query = Query(
            tables=[TableRef("c", "cust"), TableRef("o", "orders")],
            select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
            local_predicates=[
                Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
            ],
            join_predicates=[
                JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
            ],
        )
        pop = star_db.execute(query, params={"p": "COMMON"})
        assert pop.report.reoptimizations >= 1
        static = star_db.execute_without_pop(query, params={"p": "COMMON"})
        assert pop.report.total_units < static.report.total_units

    def test_different_edge_sets_never_narrow(self):
        """The paper's conservatism rule: a comparison against a plan with a
        *different* set of input edges (a join-order change) must not narrow
        validity ranges — only structurally equivalent plans (same edges,
        commutations included) may."""
        winner = _join_tuple(
            10.0, ({"a"}, {"b"}),
            ("merge", 0.0, 0.0, False, False),  # (cl + cr) · cpu_row
        )
        # Alternative joins a different pair of subsets: join-order change.
        # 0.0 everywhere: would narrow instantly if compared.
        alt = _join_tuple(100.0, ({"a", "b"}, {"c"}), ("index", 0.0, 0.0, 0.0))
        kept, fake = _prune_then_narrow(winner, alt)
        assert PlanEnumerator._alternatives(fake, kept) == []
        assert all(r.is_trivial for r in kept.plan.validity_ranges)

    def test_commuted_edge_sets_do_narrow(self):
        """Commutations share the edge set and therefore do narrow."""
        winner = _join_tuple(
            10.0, ({"a"}, {"b"}), ("index", 0.0, 1.0, 0.0),  # cl · 1.0
        )
        alt = _join_tuple(
            100.0, ({"b"}, {"a"}),  # commuted
            # 100 + cl · cr · 2.5 · cpu_emit = 100 + cr · 0.1 at cl = 10
            ("index", 100.0, 0.0, 2.5),
        )
        kept, fake = _prune_then_narrow(winner, alt)
        assert PlanEnumerator._alternatives(fake, kept) == [(alt[2], True)]
        assert any(not r.is_trivial for r in kept.plan.validity_ranges)


def _join_tuple(cost, edges, cost_desc):
    """A join candidate as the DP makes it: ``(cost, order, cost_desc,
    inputs, part, probe)``, for a split of ``edges`` (outer, inner)."""
    outer, inner = frozenset(edges[0]), frozenset(edges[1])
    part = _Partition(
        (outer, inner), outer | inner, [], 10.0, frozenset(), ((), ()), None,
    )
    return (cost, (), cost_desc, (), part, None)


def _prune_then_narrow(winner, alt):
    """Pruning keeps the winner with its subset's candidates; narrowing —
    run for the chosen plan only, once its tree is built — derives the
    structurally equivalent alternatives from them.  Returns the kept
    candidate and the enumerator stand-in."""
    fake = _FakeEnumerator()
    # The DP hands pruning a subset's candidates grouped by input edges.
    groups: dict = {}
    for cand in (winner, alt):
        groups.setdefault(cand[4].edge_subsets, []).append(cand)
    (kept,) = PlanEnumerator._keep_best(fake, groups)
    assert kept.cost_desc is winner[2] and kept.plan is None
    kept.plan = _dummy_join()
    PlanEnumerator._narrow_against(fake, kept)
    return kept, fake


class _FakeEnumerator:
    """Just enough of PlanEnumerator for _keep_best and _narrow_against."""

    newton_iterations = 0
    cost_model = CM

    class _Estimator:
        @staticmethod
        def subset_cardinality(subset):
            return 10.0

    estimator = _Estimator()

    class _Options:
        validity_iterations = 3

    options = _Options()

    _alternatives = PlanEnumerator._alternatives


def _dummy_join():
    from repro.expr.evaluate import RowLayout
    from repro.expr.expressions import ColumnRef
    from repro.expr.predicates import JoinPredicate
    from repro.plan.physical import HashJoin, TableScan
    from repro.plan.properties import PlanProperties

    def scan(alias):
        return TableScan(
            alias, alias, [],
            PlanProperties(frozenset({alias}), frozenset()),
            RowLayout([f"{alias}.k"]), 10.0, 1.0,
        )

    left, right = scan("a"), scan("b")
    pred = JoinPredicate(ColumnRef("a", "k"), ColumnRef("b", "k"))
    return HashJoin(
        left, right, [pred],
        left.properties.merge(right.properties, {pred.pred_id}),
        left.layout.concat(right.layout), 10.0, 12.0,
        cost_desc=("hash", 2.0, 0.1),
    )
