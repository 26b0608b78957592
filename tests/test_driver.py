"""End-to-end tests of the POP driver loop (paper §2.1 architecture)."""

import pytest

from repro import PopConfig
from repro.core.flavors import ECB, ECDC, LC, LCEM
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate
from repro.plan.logical import Query, TableRef
from tests.conftest import canonical


def marker_query():
    """Join whose customer-side predicate carries a parameter marker, so the
    optimizer compiles with a default selectivity (paper §5.1)."""
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


class TestReoptimizationLoop:
    def test_misestimate_triggers_reopt_and_matches_baseline(self, star_db):
        query = marker_query()
        pop = star_db.execute(query, params={"p": "COMMON"})
        baseline = star_db.execute_without_pop(query, params={"p": "COMMON"})
        assert canonical(pop.rows) == canonical(baseline.rows)
        assert pop.report.reoptimizations >= 1
        assert pop.report.total_units < baseline.report.total_units

    def test_accurate_estimate_runs_once(self, star_db):
        query = Query(
            tables=[TableRef("c", "cust"), TableRef("o", "orders")],
            select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
            local_predicates=[
                Comparison(ColumnRef("c", "c_segment"), "=", Literal("RARE"))
            ],
            join_predicates=[
                JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
            ],
        )
        result = star_db.execute(query)
        assert result.report.reoptimizations == 0
        assert len(result.report.attempts) == 1

    def test_reopt_reuses_intermediate_result(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        assert result.report.reoptimizations == 1
        assert result.report.attempts[1].reused_mvs, (
            "re-optimized plan should scan the materialized outer"
        )

    def test_max_reoptimizations_bounds_attempts(self, star_db):
        config = PopConfig(max_reoptimizations=1)
        result = star_db.execute(
            marker_query(), params={"p": "COMMON"}, pop=config
        )
        assert result.report.reoptimizations <= 1
        assert len(result.report.attempts) <= 2

    def test_zero_reoptimizations_is_static(self, star_db):
        config = PopConfig(max_reoptimizations=0)
        result = star_db.execute(marker_query(), params={"p": "COMMON"}, pop=config)
        assert result.report.reoptimizations == 0

    def test_report_accounting(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        report = result.report
        assert report.total_units > 0
        assert report.wall_seconds >= 0
        total_parts = sum(
            a.execution_units + a.optimization_units for a in report.attempts
        )
        assert total_parts == pytest.approx(report.total_units, rel=0.01)
        assert "re-optimization" in report.summary()

    def test_lower_bound_trigger_on_overestimate(self, star_db):
        # RARE is far below the default-selectivity estimate: if a lower
        # validity bound was computed, POP may re-optimize; either way the
        # result must match the baseline.
        query = marker_query()
        pop = star_db.execute(query, params={"p": "RARE"})
        baseline = star_db.execute_without_pop(query, params={"p": "RARE"})
        assert canonical(pop.rows) == canonical(baseline.rows)


class TestReusePolicies:
    @pytest.mark.parametrize("policy", ["cost", "always", "never"])
    def test_policies_preserve_results(self, star_db, policy):
        config = PopConfig(reuse_policy=policy)
        pop = star_db.execute(marker_query(), params={"p": "COMMON"}, pop=config)
        base = star_db.execute_without_pop(marker_query(), params={"p": "COMMON"})
        assert canonical(pop.rows) == canonical(base.rows)

    def test_never_policy_never_scans_mvs(self, star_db):
        config = PopConfig(reuse_policy="never")
        result = star_db.execute(marker_query(), params={"p": "COMMON"}, pop=config)
        for attempt in result.report.attempts:
            assert attempt.reused_mvs == []

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            PopConfig(reuse_policy="sometimes")


class TestFlavorsEndToEnd:
    @pytest.mark.parametrize(
        "flavors",
        [
            frozenset({LC}),
            frozenset({LC, LCEM}),
            frozenset({LC, ECB}),
            frozenset({LC, LCEM, ECDC}),
        ],
        ids=lambda f: "+".join(sorted(f)),
    )
    def test_results_invariant_under_flavor_mix(self, star_db, flavors):
        config = PopConfig(flavors=flavors)
        pop = star_db.execute(marker_query(), params={"p": "COMMON"}, pop=config)
        base = star_db.execute_without_pop(marker_query(), params={"p": "COMMON"})
        assert canonical(pop.rows) == canonical(base.rows)

    def test_ecdc_compensation_no_duplicates(self, star_db):
        """Pipelined SPJ query with eager checks: rows returned before the
        trigger must not be returned again (paper §3.3)."""
        config = PopConfig(flavors=frozenset({ECDC}))
        query = marker_query()
        pop = star_db.execute(query, params={"p": "COMMON"}, pop=config)
        base = star_db.execute_without_pop(query, params={"p": "COMMON"})
        assert canonical(pop.rows) == canonical(base.rows)


class TestDummyReoptimization:
    def test_forced_trigger_keeps_results_and_counts_reopt(self, star_db):
        first = star_db.execute(marker_query(), params={"p": "RARE"})
        checks = [
            e.op_id for a in first.report.attempts for e in a.checkpoint_events
        ]
        if not checks:
            pytest.skip("no checkpoints placed for this plan")
        config = PopConfig(force_trigger_op_ids=frozenset({checks[0]}))
        forced = star_db.execute(marker_query(), params={"p": "RARE"}, pop=config)
        assert forced.report.reoptimizations >= 1
        assert canonical(forced.rows) == canonical(first.rows)
