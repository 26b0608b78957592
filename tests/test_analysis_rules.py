"""Tests for the static-analysis subsystem (repro.analysis).

Covers all three faces of the subsystem:

* the plan-semantics linter — one crafted broken-plan fixture per rule,
  asserting the rule fires (and exactly once where the violation is single);
* the engine contract checker — inline source snippets through
  ``check_module`` plus a clean sweep of the live package;
* the gates — ``python -m repro.analysis`` exit codes, the optimizer and
  POP-driver strict modes, and the CLI ``\\lint`` meta command.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path

import pytest

from repro import Database, PopConfig
from repro.analysis import (
    ERROR,
    INFO,
    PLAN_RULES,
    WARN,
    Finding,
    LintContext,
    PlanLintError,
    assert_plan_clean,
    lint_plan,
    lint_statement,
    render_jsonl,
    render_text,
    sort_findings,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.contract import check_module, run_contract_checks
from repro.cli import Shell
from repro.core.feedback import CardinalityFeedback
from repro.core.flavors import ECB, ECDC, LC, LCEM
from repro.expr.evaluate import RowLayout
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostModel
from repro.plan.physical import (
    BufCheck,
    Check,
    Distinct,
    HashJoin,
    MergeJoin,
    MVScan,
    NLJoin,
    Return,
    Sort,
    TableScan,
    Temp,
    number_plan,
)
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog, TempMVRegistry
from repro.storage.table import Schema

# --------------------------------------------------------- plan builders


def props(*tables, preds=(), order=()):
    return PlanProperties(frozenset(tables), frozenset(preds), tuple(order))


def scan(alias="t", card=100.0, cost=10.0, order=()):
    layout = RowLayout([f"{alias}.a", f"{alias}.b"])
    return TableScan(
        alias, alias, [], props(alias, order=order), layout, card, cost
    )


def temp(child):
    return Temp(child, child.est_cost + 1.0)


def check(child, low=None, high=None, flavor=LC):
    rng = ValidityRange() if low is None else ValidityRange(low, high)
    return Check(child, rng, flavor)


def sorted_input(op):
    """Is ``op`` a sort enforcer, possibly under the CHECK placed above it?"""
    while isinstance(op, (Check, BufCheck)):
        op = op.children[0]
    return isinstance(op, Sort)


def join(cls, outer, inner, card=50.0, cost=100.0, **kwargs):
    """A structurally valid join of two single-table subplans; a merge
    join's sort flags follow its Sort children."""
    t_outer = next(iter(outer.properties.tables))
    t_inner = next(iter(inner.properties.tables))
    pred = JoinPredicate(ColumnRef(t_outer, "a"), ColumnRef(t_inner, "a"))
    properties = outer.properties.merge(inner.properties, [pred.pred_id])
    layout = outer.layout.concat(inner.layout)
    sel = card / (outer.est_card * inner.est_card)
    cost_desc = {
        HashJoin: ("hash", 0.0, sel),
        MergeJoin: ("merge", 0.0, sel, sorted_input(outer), sorted_input(inner)),
        NLJoin: ("rescan", 0.0, sel),
    }[cls]
    return cls(
        outer, inner, [pred], properties, layout, card, cost,
        cost_desc=cost_desc, **kwargs,
    )


def lint(root, ctx=None, number=True):
    if number:
        number_plan(root)
    return lint_plan(root, ctx)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ------------------------------------------------------------ clean plans


class TestCleanPlans:
    def test_clean_checkpointed_plan_has_no_findings(self):
        plan = Return(check(temp(scan("t")), 50.0, 200.0, LC))
        ctx = LintContext(cost_model=CostModel(DEFAULT_COST_PARAMS))
        assert lint(plan, ctx) == []

    def test_clean_merge_join_plan_has_no_findings(self):
        outer = scan("t", order=("t.a",))
        inner = scan("s", order=("s.a",))
        plan = Return(join(MergeJoin, outer, inner))
        ctx = LintContext(cost_model=CostModel(DEFAULT_COST_PARAMS))
        assert lint(plan, ctx) == []

    def test_assert_plan_clean_returns_findings(self):
        plan = Return(check(temp(scan("t")), 50.0, 200.0, LC))
        number_plan(plan)
        assert assert_plan_clean(plan) == []


# ----------------------------------------------------- one rule, one fixture


class TestStructureRule:
    def test_sort_key_missing_from_layout(self):
        child = scan("t")
        plan = Sort(
            child, ("t.zzz",), child.properties.with_order(("t.zzz",)), 20.0
        )
        findings = by_rule(lint(plan), "structure")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert "t.zzz" in findings[0].message


class TestValidityRangeRule:
    def test_negative_check_lower_bound(self):
        plan = check(temp(scan("t")), -5.0, 200.0, LC)
        findings = by_rule(lint(plan), "validity-range")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert "-5" in findings[0].message

    def test_negative_join_edge_bound(self):
        plan = join(HashJoin, scan("t"), scan("s"))
        plan.validity_ranges[0] = ValidityRange(-3.0, 200.0)
        findings = by_rule(lint(plan), "validity-range")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_inverted_ranges(self):
        """Validity-range alone reports an inverted range (structure no
        longer does)."""
        plan = join(HashJoin, scan("t"), check(temp(scan("s")), 300.0, 200.0))
        plan.validity_ranges[0] = ValidityRange(300.0, 200.0)
        findings = [f for f in lint(plan) if "inverted" in f.message]
        assert [(f.rule, f.severity) for f in findings] == [
            ("validity-range", ERROR), ("validity-range", ERROR)
        ]

    def test_bufcheck_valve_size(self):
        plan = BufCheck(scan("t"), ValidityRange(50.0, 200.0), buffer_size=0)
        findings = by_rule(lint(plan), "validity-range")
        assert len(findings) == 1
        assert "valve" in findings[0].message


class TestRangeBracketsEstimateRule:
    def test_check_range_excludes_estimate(self):
        plan = check(temp(scan("t", card=100.0)), 200.0, 400.0, LC)
        findings = by_rule(lint(plan), "range-brackets-estimate")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert findings[0].data["est_card"] == 100.0

    def test_join_edge_range_excludes_estimate(self):
        plan = join(HashJoin, scan("t", card=100.0), scan("s"))
        plan.validity_ranges[0] = ValidityRange(200.0, 400.0)
        findings = by_rule(lint(plan), "range-brackets-estimate")
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert findings[0].data["edge"] == 0


class TestCheckPlacementRule:
    def test_non_pipelined_check_on_pipelined_path(self):
        plan = Return(check(scan("t"), 50.0, 200.0, LC))
        findings = by_rule(lint(plan), "check-placement")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert "pipelined" in findings[0].message

    def test_blocking_ancestor_makes_check_safe(self):
        inner = check(scan("t", card=100.0), 50.0, 200.0, LCEM)
        plan = Distinct(inner, props("t"), 80.0, 120.0)
        assert by_rule(lint(plan), "check-placement") == []

    def test_ecdc_in_non_spj_plan_warns(self):
        inner = check(scan("t", card=100.0), 50.0, 200.0, ECDC)
        plan = Distinct(inner, props("t"), 80.0, 120.0)
        findings = by_rule(lint(plan), "check-placement")
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert "ECDC" in findings[0].message

    def test_check_over_exact_mv_scan_warns(self):
        mv = MVScan("__tempmv_9", props("t"), RowLayout(["t.a"]), 100.0, 5.0)
        plan = check(mv, 50.0, 200.0, ECDC)
        findings = by_rule(lint(plan), "check-placement")
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert "__tempmv_9" in findings[0].message


class ShrinkingSortModel(CostModel):
    def sort_cost(self, card):
        return max(0.0, 1000.0 - card)


class NanTempModel(CostModel):
    def temp_cost(self, card):
        return float("nan")


class TestCostMonotoneRule:
    def test_decreasing_cost_function(self):
        child = scan("t")
        plan = Sort(
            child, ("t.a",), child.properties.with_order(("t.a",)), 20.0
        )
        ctx = LintContext(cost_model=ShrinkingSortModel(DEFAULT_COST_PARAMS))
        findings = by_rule(lint(plan, ctx), "cost-monotone")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert "decreases" in findings[0].message

    def test_nan_cost_function(self):
        plan = temp(scan("t"))
        ctx = LintContext(cost_model=NanTempModel(DEFAULT_COST_PARAMS))
        findings = by_rule(lint(plan, ctx), "cost-monotone")
        assert len(findings) == 1
        assert "finite" in findings[0].message

    def test_merge_join_probe_includes_its_sort_enforcers(self):
        """A merge join is probed through the optimizer's own edge kernel
        with the plan's real sort flags, so a non-monotone enforcer shows on
        the join — through the CHECK placed above the Sort too — and only on
        the edges that have one."""
        from dataclasses import replace

        def sort(child):
            return Sort(
                child, (f"{child.alias}.a",),
                child.properties.with_order((f"{child.alias}.a",)), 20.0,
            )

        msjn = join(MergeJoin, check(sort(scan("t")), 50.0, 200.0), scan("s"))
        # A sort that spills beyond 64 rows and is paid for spilling: its
        # cost drops at the step, inside the probed neighbourhood (×0.25 …
        # ×10 around 100 rows).
        refunding = CostModel(
            replace(DEFAULT_COST_PARAMS, sort_mem_pages=1, io_page=-0.5)
        )
        findings = [
            f for f in by_rule(lint(msjn, LintContext(cost_model=refunding)), "cost-monotone")
            if f.op_id == msjn.op_id
        ]
        assert [f.data["edge"] for f in findings] == ["outer"]
        assert findings[0].severity == ERROR
        assert "decreases" in findings[0].message

    def test_real_cost_model_is_monotone_everywhere(self):
        plan = Return(
            Sort(
                join(HashJoin, scan("t"), temp(scan("s"))),
                ("t.a",),
                props("t", "s", order=("t.a",)),
                500.0,
            )
        )
        ctx = LintContext(cost_model=CostModel(DEFAULT_COST_PARAMS))
        assert by_rule(lint(plan, ctx), "cost-monotone") == []


class TestOrderingRule:
    def test_sort_claims_wrong_order(self):
        child = scan("t")
        plan = Sort(
            child, ("t.a",), child.properties.with_order(("t.b",)), 20.0
        )
        findings = by_rule(lint(plan), "ordering")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_merge_join_input_not_ordered_on_keys(self):
        outer = scan("t", order=("t.a",))
        inner = scan("s")  # unordered: cannot feed a merge join
        plan = join(MergeJoin, outer, inner)
        findings = by_rule(lint(plan), "ordering")
        assert len(findings) == 1
        assert findings[0].data["side"] == "inner"


class TestReuseConsistencyRule:
    def test_rescan_inner_must_be_materialized(self):
        plan = join(NLJoin, scan("t"), scan("s"), method="rescan")
        findings = by_rule(lint(plan), "reuse-consistency")
        assert len(findings) == 1
        assert findings[0].severity == ERROR
        assert "TEMP" in findings[0].message

    def test_rescan_inner_temp_is_fine(self):
        plan = join(NLJoin, scan("t"), temp(scan("s")), method="rescan")
        assert by_rule(lint(plan), "reuse-consistency") == []

    def test_unregistered_mv_warns(self):
        plan = MVScan("__tempmv_404", props("t"), RowLayout(["t.a"]), 3.0, 1.0)
        ctx = LintContext(temp_mvs=TempMVRegistry())
        findings = by_rule(lint(plan, ctx), "reuse-consistency")
        assert len(findings) == 1
        assert findings[0].severity == WARN

    def test_mv_table_set_mismatch(self):
        temp_mvs = TempMVRegistry()
        mv = temp_mvs.register(
            frozenset({"x"}), frozenset(), ("x.a",), [(1,)]
        )
        plan = MVScan(mv.name, props("t"), RowLayout(["t.a"]), 1.0, 1.0)
        findings = by_rule(
            lint(plan, LintContext(temp_mvs=temp_mvs)), "reuse-consistency"
        )
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_mv_cardinality_disagreement_warns(self):
        temp_mvs = TempMVRegistry()
        mv = temp_mvs.register(
            frozenset({"t"}), frozenset(), ("t.a",), [(1,), (2,), (3,)]
        )
        plan = MVScan(mv.name, props("t"), RowLayout(["t.a"]), 100.0, 1.0)
        findings = by_rule(
            lint(plan, LintContext(temp_mvs=temp_mvs)), "reuse-consistency"
        )
        assert len(findings) == 1
        assert findings[0].data["exact"] == 3


class TestEstimatePlausibilityRule:
    def test_nan_estimate(self):
        plan = scan("t", card=float("nan"))
        findings = by_rule(lint(plan), "estimate-plausibility")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_negative_estimate_and_cost(self):
        """Estimate-plausibility alone reports negative numbers (structure
        no longer does)."""
        plan = scan("t", card=-1.0, cost=-10.0)
        findings = lint(plan)
        assert {f.rule for f in findings} == {"estimate-plausibility"}
        assert [f.severity for f in findings] == [ERROR, ERROR]

    def test_join_above_cross_product_bound(self):
        plan = join(HashJoin, scan("t", card=10.0), scan("s", card=10.0), card=1e6)
        findings = by_rule(lint(plan), "estimate-plausibility")
        assert len(findings) == 1
        assert findings[0].data["bound"] == 100.0

    def test_scan_estimate_above_table_size(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("a", "int"), ("b", "int")))
        plan = scan("t", card=100.0)
        findings = by_rule(lint(plan, LintContext(catalog=catalog)), "estimate-plausibility")
        assert len(findings) == 1
        assert findings[0].severity == WARN

    def test_collapsing_op_estimate_above_input(self):
        plan = Distinct(scan("t", card=100.0), props("t"), 500.0, 20.0)
        findings = by_rule(lint(plan), "estimate-plausibility")
        assert len(findings) == 1
        assert "DISTINCT" in findings[0].message


class TestFlavorRule:
    def test_unknown_flavor(self):
        plan = check(scan("t"), 50.0, 200.0, "NOPE")
        findings = by_rule(lint(plan), "flavor")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_plain_check_may_not_carry_ecb(self):
        plan = check(scan("t"), 50.0, 200.0, ECB)
        findings = by_rule(lint(plan), "flavor")
        assert len(findings) == 1
        assert "BUFCHECK" in findings[0].message

    def test_bufcheck_must_stay_ecb(self):
        plan = BufCheck(scan("t"), ValidityRange(50.0, 200.0), buffer_size=10)
        plan.flavor = LC
        findings = by_rule(lint(plan), "flavor")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_disabled_flavor_warns(self):
        plan = check(temp(scan("t")), 50.0, 200.0, LCEM)
        ctx = LintContext(config=PopConfig(flavors=frozenset({LC})))
        findings = by_rule(lint(plan, ctx), "flavor")
        assert len(findings) == 1
        assert findings[0].severity == WARN

    def test_trivial_range_is_reported(self):
        plan = check(temp(scan("t")))  # [0, inf): can never trigger
        findings = by_rule(lint(plan), "flavor")
        assert len(findings) == 1
        assert findings[0].severity == INFO


class TestNumberingRule:
    def test_unnumbered_plan_is_info(self):
        plan = Return(scan("t"))
        findings = by_rule(lint(plan, number=False), "numbering")
        assert len(findings) == 1
        assert findings[0].severity == INFO

    def test_duplicate_op_id(self):
        plan = Return(scan("t"))
        number_plan(plan)
        plan.children[0].op_id = 0
        findings = by_rule(lint(plan, number=False), "numbering")
        assert len(findings) == 1
        assert findings[0].severity == ERROR

    def test_stale_numbering_warns(self):
        plan = Return(scan("t"))
        number_plan(plan)
        plan.children[0].op_id = 99
        findings = by_rule(lint(plan, number=False), "numbering")
        assert len(findings) == 1
        assert findings[0].severity == WARN


def _feedback(cardinality, exact=True):
    feedback = CardinalityFeedback()
    feedback.record((frozenset({"t"}), frozenset()), cardinality, exact)
    return feedback


class TestFeedbackConsistencyRule:
    def test_estimate_ignoring_exact_feedback(self):
        ctx = LintContext(feedback=_feedback(500.0))
        findings = by_rule(lint(Return(scan("t", card=100.0)), ctx), "feedback-consistency")
        assert len(findings) == 1
        assert findings[0].severity == WARN
        assert findings[0].data["feedback"] == 500.0

    def test_lower_bound_feedback_does_not_fire(self):
        ctx = LintContext(feedback=_feedback(500.0, exact=False))
        assert by_rule(lint(Return(scan("t", card=100.0)), ctx), "feedback-consistency") == []

    def test_small_qerror_tolerated(self):
        ctx = LintContext(feedback=_feedback(101.0))
        assert by_rule(lint(Return(scan("t", card=100.0)), ctx), "feedback-consistency") == []


# ----------------------------------------------------------- linter plumbing


#: One crafted violation per plan rule: rule id -> (plan, context).
RULE_FIXTURES = {
    "structure": lambda: (
        Sort(scan("t"), ("t.zzz",), props("t", order=("t.zzz",)), 20.0), None
    ),
    "validity-range": lambda: (check(temp(scan("t")), -5.0, 200.0), None),
    "range-brackets-estimate": lambda: (
        check(temp(scan("t", card=100.0)), 200.0, 400.0), None
    ),
    "check-placement": lambda: (Return(check(scan("t"), 50.0, 200.0, LC)), None),
    "cost-monotone": lambda: (
        temp(scan("t")), LintContext(cost_model=NanTempModel(DEFAULT_COST_PARAMS))
    ),
    "ordering": lambda: (
        Sort(scan("t"), ("t.a",), props("t", order=("t.b",)), 20.0), None
    ),
    "reuse-consistency": lambda: (
        join(NLJoin, scan("t"), scan("s"), method="rescan"), None
    ),
    "estimate-plausibility": lambda: (scan("t", card=float("nan")), None),
    "flavor": lambda: (check(scan("t"), 50.0, 200.0, "NOPE"), None),
    "numbering": lambda: (Return(scan("t")), None),
    "feedback-consistency": lambda: (
        Return(scan("t", card=100.0)), LintContext(feedback=_feedback(500.0))
    ),
}


@pytest.mark.parametrize("rule_id", [rule_id for rule_id, _ref, _fn in PLAN_RULES])
def test_every_rule_fires_on_its_fixture(rule_id):
    plan, ctx = RULE_FIXTURES[rule_id]()
    assert by_rule(lint(plan, ctx, number=rule_id != "numbering"), rule_id)


class TestLinterPlumbing:
    def test_assert_plan_clean_raises_with_rule_ids(self):
        plan = Return(check(scan("t"), 50.0, 200.0, LC))
        number_plan(plan)
        with pytest.raises(PlanLintError) as err:
            assert_plan_clean(plan, where="unit test plan")
        assert "unit test plan" in str(err.value)
        assert "[check-placement]" in str(err.value)
        assert any(f.rule == "check-placement" for f in err.value.findings)

    def test_findings_render_and_sort(self):
        plan = check(scan("t"), 50.0, 200.0, LC)
        number_plan(plan)
        findings = sort_findings(lint_plan(plan))
        assert findings and findings[0].severity == ERROR
        text = render_text(findings)
        assert "check-placement" in text and "finding" in text
        parsed = [json.loads(line) for line in render_jsonl(findings).splitlines()]
        assert parsed[0]["rule"] == findings[0].rule
        assert render_text([]) == "no findings"

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding(rule="x", severity="fatal", message="nope")


# ------------------------------------------------------- contract checker


class TestContractChecker:
    def test_unseeded_random_call_flagged(self):
        findings = check_module("import random\nx = random.random()\n")
        assert [f.rule for f in findings] == ["determinism"]

    def test_seeded_random_generator_allowed(self):
        assert check_module("import random\nr = random.Random(7)\n") == []

    def test_unseeded_random_generator_flagged(self):
        findings = check_module("import random\nr = random.Random()\n")
        assert [f.rule for f in findings] == ["determinism"]
        assert "seed it" in findings[0].message

    def test_time_call_flagged(self):
        findings = check_module("import time\nt = time.time()\n")
        assert [f.rule for f in findings] == ["determinism"]

    def test_from_import_of_random_functions_flagged(self):
        findings = check_module("from random import choice\n")
        assert [f.rule for f in findings] == ["determinism"]
        assert check_module("from random import Random\n") == []

    def test_allowlisted_modules_may_use_random(self):
        from repro.analysis.contract import check_confinement
        import ast

        tree = ast.parse("import random\nx = random.random()\n")
        assert list(check_confinement(tree, "common/rng.py")) == []
        assert list(check_confinement(tree, "obs/trace.py")) == []

    def test_bare_except_flagged(self):
        findings = check_module("try:\n    pass\nexcept:\n    pass\n")
        assert [f.rule for f in findings] == ["bare-except"]
        assert check_module("try:\n    pass\nexcept ValueError:\n    pass\n") == []

    def test_numeric_equality_flagged(self):
        findings = check_module("def f(a):\n    return a == 0\n")
        assert [f.rule for f in findings] == ["float-eq"]

    def test_string_equality_exempt(self):
        assert check_module("def f(a):\n    return a == 'x'\n") == []

    def test_operator_without_next_batch_flagged(self):
        source = (
            "class Broken(Operator):\n"
            "    def describe(self):\n"
            "        return 'broken'\n"
        )
        findings = check_module(source)
        assert [f.rule for f in findings] == ["iterator-contract"]
        assert "next_batch()" in findings[0].message

    def test_row_at_a_time_next_is_not_the_protocol(self):
        """An operator that only defines the retired per-row ``next`` can
        never be pulled: nothing in the engine calls it."""
        source = (
            "class RowOnly(Operator):\n"
            "    def next(self):\n"
            "        return None\n"
        )
        findings = check_module(source)
        assert [f.rule for f in findings] == ["iterator-contract"]
        assert "next_batch()" in findings[0].message

    def test_open_override_must_call_super(self):
        source = (
            "class Leaky(Operator):\n"
            "    def next_batch(self, max_rows):\n"
            "        return None\n"
            "    def open(self):\n"
            "        self.started = True\n"
        )
        findings = check_module(source)
        assert [f.rule for f in findings] == ["iterator-contract"]
        assert "super().open()" in findings[0].message

    def test_conforming_operator_is_clean(self):
        source = (
            "class Fine(Operator):\n"
            "    def open(self):\n"
            "        super().open()\n"
            "    def next_batch(self, max_rows):\n"
            "        return None\n"
            "    def close(self):\n"
            "        super().close()\n"
        )
        assert check_module(source) == []

    def test_wall_clock_call_flagged_outside_timing_sites(self):
        findings = check_module(
            "t0 = wall_clock()\n", filename="executor/sort.py"
        )
        assert [f.rule for f in findings] == ["profile-exclusive-time"]
        assert "exclusive-time" in findings[0].message

    def test_wall_clock_import_flagged_outside_timing_sites(self):
        findings = check_module(
            "from repro.obs import wall_clock\n",
            filename="optimizer/optimizer.py",
        )
        assert [f.rule for f in findings] == ["profile-exclusive-time"]

    def test_sanctioned_timing_sites_may_sample_wall_clock(self):
        import ast

        from repro.analysis.contract import check_confinement

        tree = ast.parse("t0 = wall_clock()\n")
        for rel in ("obs/trace.py", "core/driver.py", "governor/__init__.py"):
            assert list(check_confinement(tree, rel)) == []

    def test_statistics_written_only_by_the_catalog_and_runstats(self):
        import ast

        from repro.analysis.contract import check_confinement

        source = "catalog.set_statistics('t', None)\n"
        findings = check_module(source, filename="resilience/faults.py")
        assert [f.rule for f in findings] == ["catalog-statistics"]
        assert "stats_overrides" in findings[0].message
        tree = ast.parse(source)
        for rel in ("storage/catalog.py", "stats/collect.py"):
            assert list(check_confinement(tree, rel)) == []

    def test_live_package_has_no_contract_errors(self):
        findings = run_contract_checks()
        assert [f for f in findings if f.severity == ERROR] == []


# --------------------------------------------------------------- the gates


class TestAnalysisMain:
    def test_clean_tree_exits_zero(self, capsys):
        assert analysis_main([]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "check-placement" in out and "feedback-consistency" in out

    def test_docs_tables_list_exactly_the_printed_rules(self, capsys):
        """docs/static_analysis.md's plan-rule table and cc-* code table
        name exactly the rule ids ``--list-rules`` prints."""
        assert analysis_main(["--list-rules"]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        doc = (Path(__file__).parents[1] / "docs" / "static_analysis.md").read_text()
        plan_table = doc.split("## Plan-rule catalog")[1].split("\n## ")[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", plan_table, re.M)
        documented += re.findall(r"^\| `(cc-[a-z-]+)` \|", doc, re.M)
        assert documented == printed

    def test_error_findings_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "try:\n    pass\nexcept:\n    pass\n"
        )
        assert analysis_main(["--root", str(tmp_path)]) == 1
        assert "bare-except" in capsys.readouterr().out

    def test_fail_on_warn_threshold(self, monkeypatch, capsys):
        from repro.analysis import __main__ as gate

        warning = Finding(rule="x", severity=WARN, message="plausible")
        monkeypatch.setattr(gate, "run_contract_checks", lambda root: [warning])
        assert analysis_main([]) == 0
        assert analysis_main(["--fail-on", "warn"]) == 1
        capsys.readouterr()

    def test_jsonl_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = 1 == 1\n")  # parses; no contract hit
        (tmp_path / "worse.py").write_text("try:\n    pass\nexcept:\n    pass\n")
        assert analysis_main(["--root", str(tmp_path), "--format", "jsonl"]) == 1
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert any(obj["rule"] == "bare-except" for obj in lines)


def _tiny_db():
    db = Database()
    db.create_table("t", [("a", "int"), ("s", "str")])
    db.insert("t", [(1, "x"), (2, "y"), (3, "x")])
    db.runstats()
    return db


class TestStrictModes:
    def test_driver_strict_mode_passes_on_sound_plans(self):
        result = _tiny_db().execute(
            "SELECT t.a FROM t WHERE t.s = 'x'",
            pop=PopConfig(strict_analysis=True),
        )
        assert len(result) == 2

    def test_driver_strict_mode_matches_default_results(self):
        db = _tiny_db()
        strict = db.execute("SELECT t.a FROM t", pop=PopConfig(strict_analysis=True))
        default = db.execute("SELECT t.a FROM t")
        assert sorted(strict.rows) == sorted(default.rows)

    def test_driver_strict_mode_rejects_corrupt_plans(self, monkeypatch):
        db = _tiny_db()
        original = db.optimizer.optimize

        def corrupting(query, feedback=None, **kwargs):
            result = original(query, feedback=feedback, **kwargs)
            result.plan.est_card = float("nan")
            return result

        monkeypatch.setattr(db.optimizer, "optimize", corrupting)
        with pytest.raises(PlanLintError):
            db.execute("SELECT t.a FROM t", pop=PopConfig(strict_analysis=True))
        # Without strict mode the same corrupt estimate goes unnoticed.
        lax = PopConfig(strict_analysis=False)
        assert len(db.execute("SELECT t.a FROM t", pop=lax)) == 3


class TestCliLint:
    def _shell(self):
        out = io.StringIO()
        return Shell(db=_tiny_db(), out=out), out

    def test_lint_statement(self):
        shell, out = self._shell()
        shell.run(["\\lint SELECT t.a FROM t"])
        assert "no findings" in out.getvalue()

    def test_lint_rules(self):
        shell, out = self._shell()
        shell.run(["\\lint rules"])
        text = out.getvalue()
        assert "check-placement" in text and "cost-monotone" in text

    def test_lint_code(self):
        shell, out = self._shell()
        shell.run(["\\lint code"])
        assert "no findings" in out.getvalue()

    def test_lint_usage(self):
        shell, out = self._shell()
        shell.run(["\\lint"])
        assert "usage" in out.getvalue()


# ------------------------------------------------ full-workload acceptance


def _lint_workload(db, queries):
    config = PopConfig()
    return [
        (name, f)
        for name, sql in queries
        for f in lint_statement(db, sql, config)
        if f.severity == ERROR
    ]


def test_every_tpch_plan_lints_clean(tpch_db):
    from repro.workloads.tpch.queries import TPCH_QUERIES

    assert _lint_workload(tpch_db, list(TPCH_QUERIES.items())) == []


def test_every_dmv_plan_lints_clean(dmv_db):
    from repro.workloads.dmv.queries import dmv_queries

    assert _lint_workload(dmv_db, dmv_queries(7)) == []


def test_tpch_plans_lint_clean_without_hash_joins(tpch_db):
    """The Fig. 12 configuration (merge/NLJN-only plans, as run in CI's
    strict benchmark smoke) must also lint clean — regression test for
    joins dropping the outer's order claim from their plan properties."""
    from repro.optimizer.enumeration import OptimizerOptions
    from repro.workloads.tpch.queries import TPCH_QUERIES

    config = PopConfig()
    context = LintContext(
        catalog=tpch_db.catalog, cost_model=tpch_db.optimizer.cost_model,
        config=config,
    )
    no_hash = OptimizerOptions(enable_hash_join=False)
    findings = [
        (name, f)
        for name, sql in TPCH_QUERIES.items()
        for f in lint_plan(
            tpch_db.plan(sql, pop=config, optimizer_options=no_hash)[1].plan,
            context,
        )
        if f.severity == ERROR
    ]
    assert findings == []


def test_order_preserving_joins_claim_outer_order(tpch_db):
    """NLJN and hash join stream the outer, so their plan nodes must carry
    the outer's order claim (the enumerator relies on it for merge-join
    admission and final-sort elision)."""
    from repro.plan.physical import HashJoin, NLJoin
    from repro.workloads.tpch.queries import TPCH_QUERIES

    for sql in TPCH_QUERIES.values():
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(sql)).plan
        for op in plan.walk():
            if isinstance(op, (NLJoin, HashJoin)):
                outer_order = op.children[0].properties.order
                assert op.properties.order == outer_order


class TestBatchContractRule:
    """``next_batch`` implementations must funnel rows through
    ``emit_batch`` — the one place rows are counted."""

    def test_raw_list_return_flagged(self):
        source = (
            "class Vec(Operator):\n"
            "    def next_batch(self, max_rows):\n"
            "        return [(1,)]\n"
        )
        findings = check_module(source)
        assert [f.rule for f in findings] == ["batch-contract"]
        assert "emit_batch" in findings[0].message

    def test_builtin_next_over_iterator_is_fine(self):
        source = (
            "class Vec(Operator):\n"
            "    def next_batch(self, max_rows):\n"
            "        out = [next(self._merge, None)]\n"
            "        if out[0] is None:\n"
            "            return None\n"
            "        return self.emit_batch(out)\n"
        )
        assert check_module(source) == []

    def test_eof_and_emit_batch_returns_are_fine(self):
        source = (
            "class Vec(Operator):\n"
            "    def next_batch(self, max_rows):\n"
            "        batch = self.child.next_batch(max_rows)\n"
            "        if batch is None:\n"
            "            self.finish()\n"
            "            return None\n"
            "        return self.emit_batch(batch)\n"
        )
        assert check_module(source) == []

    def test_non_operator_class_ignored(self):
        source = (
            "class Reader:\n"
            "    def next_batch(self, max_rows):\n"
            "        return [(1,)]\n"
        )
        assert check_module(source) == []

    PROBE = (
        "class Inner(Operator):\n"
        "    def next_batch(self, max_rows):\n"
        "        return None\n"
        "    def probe(self, keys, room):\n"
        "        groups = [self._lookup(key) for key in keys]\n"
        "{count}"
        "        return groups\n"
    )

    @pytest.mark.parametrize("count", [
        "",  # never counted
        "        for group in groups:\n            self.emit_batch(group)\n",
        "        if groups:\n            self.emit_batch(groups[0])\n",
    ])
    def test_probe_counting_per_key_or_never_flagged(self, count):
        findings = check_module(self.PROBE.format(count=count))
        assert [f.rule for f in findings] == ["batch-contract"]
        assert "probe()" in findings[0].message

    def test_probe_counting_once_per_call_is_fine(self):
        count = "        self.emit_batch([r for g in groups for r in g])\n"
        assert check_module(self.PROBE.format(count=count)) == []

    MATCHES = (
        "class Join(Operator):\n"
        "    def next_batch(self, max_rows):\n"
        "        return None\n"
        "    def next_matches(self, max_rows):\n"
        "        pairs, n = self._probe(max_rows)\n"
        "{count}"
    )

    @pytest.mark.parametrize("count", [
        "        return pairs, n\n",  # never counted
        "        self.rows_out += n\n        return pairs, n\n",  # no cancel poll
        "        for orow, matches in pairs:\n"
        "            self.emit_count(len(matches))\n        return pairs, n\n",
        "        if n:\n            return pairs, self.emit_count(n)\n",
        "        return pairs, self.emit_batch(pairs)\n",  # the wrong funnel
    ])
    def test_next_matches_not_counted_once_flagged(self, count):
        findings = check_module(self.MATCHES.format(count=count))
        assert [f.rule for f in findings] == ["batch-contract"]
        assert "next_matches()" in findings[0].message
        assert "emit_count" in findings[0].message

    def test_next_matches_counting_once_per_call_is_fine(self):
        count = "        return pairs, self.emit_count(n)\n"
        assert check_module(self.MATCHES.format(count=count)) == []

    def test_live_tree_is_clean(self):
        assert [
            f for f in run_contract_checks() if f.rule == "batch-contract"
        ] == []
