"""Full-workload integration: every TPC-H and DMV query, POP vs static."""

import pytest

from repro import PopConfig
from repro.core.flavors import ECB, LC
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES
from tests.conftest import canonical


class TestTpchAllQueries:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_pop_matches_static(self, tpch_db, name):
        sql = TPCH_QUERIES[name]
        pop = tpch_db.execute(sql)
        static = tpch_db.execute_without_pop(sql)
        assert canonical(pop.rows) == canonical(static.rows), name

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_ecb_flavor_matches_static(self, tpch_db, name):
        config = PopConfig(flavors=frozenset({LC, ECB}))
        pop = tpch_db.execute(TPCH_QUERIES[name], pop=config)
        static = tpch_db.execute_without_pop(TPCH_QUERIES[name])
        assert canonical(pop.rows) == canonical(static.rows), name

    @pytest.mark.parametrize("mode", ["MODE00", "MODE05", "MODE27"])
    def test_q10_marker_sweep_points(self, tpch_db, mode):
        pop = tpch_db.execute(Q10_MARKER, params={"p1": mode})
        static = tpch_db.execute_without_pop(Q10_MARKER, params={"p1": mode})
        assert canonical(pop.rows) == canonical(static.rows)

    def test_results_deterministic_across_runs(self, tpch_db):
        first = tpch_db.execute(TPCH_QUERIES["Q3"])
        second = tpch_db.execute(TPCH_QUERIES["Q3"])
        assert first.rows == second.rows
        assert first.report.total_units == pytest.approx(
            second.report.total_units
        )


class TestDmvAllQueries:
    @pytest.mark.parametrize(
        "name,sql", dmv_queries(), ids=[n for n, _ in dmv_queries()]
    )
    def test_pop_matches_static(self, dmv_db, name, sql):
        pop = dmv_db.execute(sql)
        static = dmv_db.execute_without_pop(sql)
        assert canonical(pop.rows) == canonical(static.rows), name

    def test_workload_has_misestimates(self, dmv_db):
        """At least part of the workload must show large cardinality errors
        (the case study's premise), visible as checkpoint evaluations whose
        observed counts leave the estimate far behind."""
        worst_error = 1.0
        for _name, sql in dmv_queries()[:13]:
            result = dmv_db.execute(sql, pop=PopConfig(dry_run=True))
            for event in result.report.checkpoint_events:
                attempt = result.report.attempts[0]
                ops = {op.op_id: op for op in attempt.plan.walk()}
                check = ops.get(event.op_id)
                if check is None or check.est_card <= 0:
                    continue
                error = max(
                    event.observed / max(check.est_card, 0.001),
                    check.est_card / max(event.observed, 0.001),
                )
                worst_error = max(worst_error, error)
        assert worst_error > 10.0
