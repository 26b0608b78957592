"""Plan well-formedness: the linter's ``structure`` rule (plus the two rules
that own the numeric checks) over every plan the optimizer and the placement
pass produce for both workloads and all checkpoint flavors, and over
sabotaged plans."""

import pytest

from repro import PopConfig
from repro.analysis import ERROR, PLAN_RULES, LintContext, lint_plan
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.core.placement import place_checkpoints
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

RULES = {rule_id: rule for rule_id, _ref, rule in PLAN_RULES}


def errors(plan):
    """Every error-severity finding of the full rule list."""
    return [f for f in lint_plan(plan) if f.severity == ERROR]


def messages(findings, rule):
    return [f.message for f in findings if f.rule == rule]


class TestWorkloadPlans:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_tpch_optimizer_plans_valid(self, tpch_db, name):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(TPCH_QUERIES[name])).plan
        assert errors(plan) == []

    @pytest.mark.parametrize("idx", range(0, 39, 3))
    def test_dmv_optimizer_plans_valid(self, dmv_db, idx):
        name, sql = dmv_queries()[idx]
        plan = dmv_db.optimizer.optimize(dmv_db._to_query(sql)).plan
        assert errors(plan) == [], name

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
            assert errors(placement.plan) == [], name

    def test_marker_plan_valid(self, tpch_db):
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(Q10_MARKER)).plan
        assert errors(plan) == []


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
        findings = errors(plan)
        assert "join layout must be outer ++ inner" in messages(findings, "structure")
        located = [f for f in findings if f.message.startswith("join layout")]
        assert (located[0].op_id, located[0].op_kind) == (join.op_id, join.KIND)

    def test_negative_cardinality_detected(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        plan.est_card = -1.0
        assert messages(errors(plan), "estimate-plausibility") == [
            "cardinality estimate -1.0 is not a finite non-negative number"
        ]

    def test_inverted_check_range_detected(self, star_db):
        from repro.plan.physical import Check
        from repro.plan.properties import ValidityRange

        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        child = plan.children[0]
        bad = Check(child, ValidityRange(10, 5), "LC")
        plan.children[0] = bad
        assert messages(errors(plan), "validity-range") == [
            f"check range {bad.check_range} is inverted"
        ]


class TestCollectsEveryViolation:
    """Rules report every violation, each at its operator."""

    def test_clean_plan_collects_nothing(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        assert errors(plan) == []

    def test_collect_gathers_every_violation_without_raising(self, star_db):
        plan = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        ).plan
        plan.est_card = -1.0
        plan.est_cost = -10.0
        violations = messages(errors(plan), "estimate-plausibility")
        assert len(violations) == 2
        assert any("cardinality estimate -1.0" in v for v in violations)
        assert any("cost estimate -10.0" in v for v in violations)

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
        # Rules that read a join's two inputs cannot run on a one-input
        # join; the structure rule reports it.
        findings = list(RULES["structure"](plan, LintContext()))
        assert "joins take exactly two children" in messages(findings, "structure")
