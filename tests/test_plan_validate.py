"""Runs the structural plan validator over every plan the optimizer and the
placement pass produce for both workloads and all checkpoint flavors."""

import pytest

from repro import PopConfig
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.core.placement import place_checkpoints
from repro.plan.validate import validate_plan
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES


class TestWorkloadPlans:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_tpch_optimizer_plans_valid(self, tpch_db, name):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name])).plan
        assert validate_plan(plan) == []

    @pytest.mark.parametrize("idx", range(0, 39, 3))
    def test_dmv_optimizer_plans_valid(self, dmv_db, idx):
        name, sql = dmv_queries()[idx]
        plan = dmv_db.optimizer.optimize(dmv_db._to_query(sql)).plan
        assert validate_plan(plan) == [], name

    @pytest.mark.parametrize(
        "flavors",
        [
            frozenset({LC, LCEM}),
            frozenset({LC, ECB}),
            frozenset({LC, LCEM, ECWC, ECDC}),
        ],
        ids=lambda f: "+".join(sorted(f)),
    )
    def test_plans_with_checkpoints_valid(self, tpch_db, flavors):
        for name in ("Q3", "Q5", "Q9", "Q18"):
            opt = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name]))
            placement = place_checkpoints(
                opt.plan,
                PopConfig(flavors=flavors, min_cost_for_checkpoints=0.0),
                tpch_db.optimizer.cost_model,
                is_spj=False,
            )
            assert validate_plan(placement.plan) == [], name

    def test_marker_plan_valid(self, tpch_db):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(Q10_MARKER)).plan
        assert validate_plan(plan) == []


class TestViolationsDetected:
    def test_broken_layout_detected(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query(
                "SELECT c.c_id, o.o_id FROM cust c "
                "JOIN orders o ON c.c_id = o.o_custkey"
            )
        ).plan
        # Sabotage: swap a join's layout with its outer child's.
        from repro.plan.physical import JoinOp, find_ops

        join = find_ops(plan, JoinOp)[0]
        join.layout = join.outer.layout
        # Depending on the plan shape this trips either the join-layout rule
        # or a parent's column-resolution rule — both are violations.
        assert validate_plan(plan) != []

    def test_negative_cardinality_detected(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        plan.est_card = -1.0
        assert any("negative cardinality" in v for v in validate_plan(plan))

    def test_inverted_check_range_detected(self, star_db):
        from repro.plan.physical import Check
        from repro.plan.properties import ValidityRange

        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        child = plan.children[0]
        bad = Check(child, ValidityRange(10, 5), "LC")
        plan.children[0] = bad
        assert any("inverted check range" in v for v in validate_plan(plan))


class TestCollectsEveryViolation:
    """validate_plan returns every violation: the linter's structural backend."""

    def test_clean_plan_collects_nothing(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        assert validate_plan(plan) == []

    def test_collect_gathers_every_violation_without_raising(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        plan.est_card = -1.0
        plan.est_cost = -10.0
        violations = validate_plan(plan)
        assert len(violations) == 2
        assert any("negative cardinality" in v for v in violations)
        assert any("negative cost" in v for v in violations)

    def test_collect_survives_malformed_join_arity(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query(
                "SELECT c.c_id, o.o_id FROM cust c "
                "JOIN orders o ON c.c_id = o.o_custkey"
            )
        ).plan
        from repro.plan.physical import JoinOp, find_ops

        join = find_ops(plan, JoinOp)[0]
        del join.children[1]
        join.validity_ranges.pop()
        violations = validate_plan(plan)
        assert any("exactly two children" in v for v in violations)
