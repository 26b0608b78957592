"""Tests for the static-analysis subsystem (repro.analysis).

Covers the plan linter and the engine contract checker (the concurrency
analyzer has ``tests/test_concurrency_analysis.py``):

* the plan-semantics linter — one crafted broken-plan fixture per rule,
  asserting the rule fires (and exactly once where the violation is single);
* the engine contract checker — inline source snippets through
  ``check_module`` (each seeded defect of the catch table that one check
  alone catches is a named test here or in ``tests/test_resilience.py``)
  plus a clean sweep of the live package;
* the gates — ``python -m repro.analysis`` exit codes, the POP driver's
  strict mode, and the CLI ``\\lint`` meta command;
* ``docs/static_analysis.md`` — its rule, lock and catch tables against
  what the code runs.
"""

from __future__ import annotations

import ast
import io
import re
from pathlib import Path

import pytest

from repro import Database, PopConfig
from repro.analysis import (
    CONCURRENCY_RULES,
    PLAN_RULES,
    Finding,
    PlanLintError,
    assert_plan_clean,
    contract,
    lint_plan,
    lint_statement,
    render_text,
    sort_findings,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.contract import check_module, run_contract_checks
from repro.cli import Shell
from repro.common.locking import LOCK_ORDER
from repro.expr.evaluate import RowLayout
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.physical import MergeJoin, Return, Sort, TableScan, number_plan
from repro.plan.properties import PlanProperties
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES

DOC = Path(__file__).parents[1] / "docs" / "static_analysis.md"

# --------------------------------------------------------- plan builders


def props(*tables, preds=(), order=()):
    return PlanProperties(frozenset(tables), frozenset(preds), tuple(order))


def scan(alias="t", card=100.0, cost=10.0, order=()):
    layout = RowLayout([f"{alias}.a", f"{alias}.b"])
    return TableScan(
        alias, alias, [], props(alias, order=order), layout, card, cost
    )


def merge_join(outer, inner, card=50.0, cost=100.0):
    """A structurally valid merge join of two single-table subplans."""
    t_outer = next(iter(outer.properties.tables))
    t_inner = next(iter(inner.properties.tables))
    pred = JoinPredicate(ColumnRef(t_outer, "a"), ColumnRef(t_inner, "a"))
    properties = outer.properties.merge(inner.properties, [pred.pred_id])
    sel = card / (outer.est_card * inner.est_card)
    return MergeJoin(
        outer, inner, [pred], properties, outer.layout.concat(inner.layout),
        card, cost, cost_desc=("merge", 0.0, sel, False, False),
    )


def wrong_sort():
    """A SORT on ``t.a`` that claims ``t.b`` order."""
    child = scan("t")
    return Sort(child, ("t.a",), child.properties.with_order(("t.b",)), 20.0)


def lint(root):
    number_plan(root)
    return lint_plan(root)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


#: One crafted violation per plan rule: rule id -> plan.
RULE_FIXTURES = {"ordering": wrong_sort}


@pytest.mark.parametrize("rule_id", [rule_id for rule_id, _ref, _fn in PLAN_RULES])
def test_every_rule_fires_on_its_fixture(rule_id):
    assert by_rule(lint(RULE_FIXTURES[rule_id]()), rule_id)


class TestCleanPlans:
    def test_clean_merge_join_plan_has_no_findings(self):
        outer = scan("t", order=("t.a",))
        inner = scan("s", order=("s.a",))
        assert lint(Return(merge_join(outer, inner))) == []

    def test_assert_plan_clean_passes_a_clean_plan(self):
        plan = Return(scan("t"))
        number_plan(plan)
        assert_plan_clean(plan)


class TestOrderingRule:
    def test_sort_claims_wrong_order(self):
        findings = by_rule(lint(wrong_sort()), "ordering")
        assert len(findings) == 1
        assert findings[0].data["claimed"] == ("t.b",)

    def test_merge_join_input_not_ordered_on_keys(self):
        outer = scan("t", order=("t.a",))
        inner = scan("s")  # unordered: cannot feed a merge join
        findings = by_rule(lint(merge_join(outer, inner)), "ordering")
        assert len(findings) == 1
        assert findings[0].data["side"] == "inner"


class TestLinterPlumbing:
    def test_assert_plan_clean_raises_with_rule_ids(self):
        plan = Return(wrong_sort())
        number_plan(plan)
        with pytest.raises(PlanLintError) as err:
            assert_plan_clean(plan, where="unit test plan")
        assert "unit test plan" in str(err.value)
        assert "[ordering]" in str(err.value)
        assert [f.rule for f in err.value.findings] == ["ordering"]

    def test_findings_render_and_sort(self):
        findings = sort_findings([
            Finding(rule="ordering", message="b", op_id=3, op_kind="SORT"),
            Finding(rule="float-eq", message="a", file="cache/x.py", line=7),
        ])
        assert [f.rule for f in findings] == ["float-eq", "ordering"]
        text = render_text(findings)
        assert "cache/x.py:7" in text and "SORT#3" in text
        assert text.endswith("2 finding(s)")
        assert render_text([]) == "no findings"


# ------------------------------------------------------- contract checker


class TestContractChecker:
    def test_numeric_equality_flagged(self):
        findings = check_module("def f(a):\n    return a == 0\n")
        assert [f.rule for f in findings] == ["float-eq"]

    def test_string_equality_exempt(self):
        assert check_module("def f(a):\n    return a == 'x'\n") == []
        waived = "def f(a, b):\n    return a.hex() == b  # float-eq: str\n"
        assert check_module(waived) == []

    def test_float_eq_covers_the_cost_model_and_the_cache_only(self, tmp_path):
        for rel in ("optimizer/costmodel.py", "cache/admit.py", "executor/sort.py"):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("def f(card):\n    return card == 0.0\n")
        findings = run_contract_checks(str(tmp_path))
        assert sorted(f.file for f in findings) == [
            "cache/admit.py", "optimizer/costmodel.py",
        ]

    def test_sort_cost_zero_test_by_equality_flagged(self):
        """Catch-table mutant 25: ``sort_cost`` testing ``card == 0.0``
        instead of ``not card > 0.0`` (float-eq alone catches it)."""
        source = (
            "class CostModel:\n"
            "    def sort_cost(self, card):\n"
            "        if card == 0.0:\n"
            "            return 0.0\n"
            "        return card\n"
        )
        findings = check_module(source, "optimizer/costmodel.py")
        assert [(f.rule, f.line) for f in findings] == [("float-eq", 3)]

    def test_live_package_has_no_contract_findings(self):
        assert run_contract_checks() == []


# --------------------------------------------------------------- the gates


class TestAnalysisMain:
    def test_clean_tree_exits_zero(self, capsys):
        assert analysis_main([]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "ordering" in out and "cc-lock-order" in out

    def test_any_finding_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "from repro.resilience.faults import FaultInjector\n"
        )
        assert analysis_main(["--root", str(tmp_path)]) == 1
        assert "fault-isolation" in capsys.readouterr().out

    def test_workload_findings_name_their_query(self, monkeypatch, capsys):
        from repro.analysis import __main__ as gate

        def broken(db, sql, config):
            return [Finding(rule="ordering", message="claims t.b")]

        monkeypatch.setattr(gate, "lint_statement", broken)
        assert analysis_main(["--plans", "tpch"]) == 1
        assert "tpch/Q1: claims t.b" in capsys.readouterr().out


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
        sql = "SELECT t.a, t.s FROM t ORDER BY t.a"

        def corrupting(query, feedback=None, **kwargs):
            result = original(query, feedback=feedback, **kwargs)
            for op in result.plan.walk():
                if isinstance(op, Sort):
                    op.properties = op.properties.with_order(("t.s",))
            return result

        monkeypatch.setattr(db.optimizer, "optimize", corrupting)
        with pytest.raises(PlanLintError, match="ordering"):
            db.execute(sql, pop=PopConfig(strict_analysis=True))
        # Without strict mode the same corrupt claim goes unnoticed.
        lax = PopConfig(strict_analysis=False)
        assert len(db.execute(sql, pop=lax)) == 3


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
        assert "ordering" in text and "cc-wait-holding" in text

    def test_lint_code(self):
        shell, out = self._shell()
        shell.run(["\\lint code"])
        assert "no findings" in out.getvalue()

    def test_lint_usage(self):
        shell, out = self._shell()
        shell.run(["\\lint"])
        assert "usage" in out.getvalue()


# ------------------------------------------------ full-workload acceptance


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_every_tpch_plan_lints_clean(tpch_db, name):
    assert lint_statement(tpch_db, TPCH_QUERIES[name], PopConfig()) == []


@pytest.mark.parametrize("name,sql", dmv_queries(7), ids=[n for n, _ in dmv_queries(7)])
def test_every_dmv_plan_lints_clean(dmv_db, name, sql):
    assert lint_statement(dmv_db, sql, PopConfig()) == []


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_plans_lint_clean_without_hash_joins(tpch_db, name):
    """The Fig. 12 configuration (merge/NLJN-only plans, as run in CI's
    strict benchmark smoke) must also lint clean — regression test for
    joins dropping the outer's order claim from their plan properties
    (catch-table mutant 3: only ``ordering`` catches it, here)."""
    no_hash = OptimizerOptions(enable_hash_join=False)
    _opt, placement = tpch_db.plan(
        TPCH_QUERIES[name], pop=PopConfig(), optimizer_options=no_hash
    )
    assert lint_plan(placement.plan) == []


def test_order_preserving_joins_claim_outer_order(tpch_db):
    """NLJN and hash join stream the outer, so their plan nodes must carry
    the outer's order claim (the enumerator relies on it for merge-join
    admission and final-sort elision)."""
    from repro.plan.physical import HashJoin, NLJoin

    for sql in TPCH_QUERIES.values():
        plan = tpch_db.optimizer.optimize(tpch_db._to_query(sql)).plan
        for op in plan.walk():
            if isinstance(op, (NLJoin, HashJoin)):
                outer_order = op.children[0].properties.order
                assert op.properties.order == outer_order


# ------------------------------------------------------------ the docs


def _section(heading: str) -> str:
    """The text under ``heading`` (a whole heading line) up to the next
    heading of the same level or above."""
    level = heading.split(" ")[0]
    body = DOC.read_text().split(f"\n{heading}\n")[1]
    return re.split(rf"\n#{{1,{len(level)}}} ", body)[0]


def _contract_rule_ids() -> list:
    """Every rule id ``contract.py`` puts on a Finding (``parse`` aside)."""
    tree = ast.parse(Path(contract.__file__).read_text())
    return sorted(
        {
            kw.value.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg == "rule" and isinstance(kw.value, ast.Constant)
        }
        - {"parse"}
    )


class TestDocs:
    def test_rule_tables_list_exactly_the_printed_rules(self, capsys):
        """The plan-rule table and the cc-* code table name exactly the
        rule ids ``--list-rules`` prints, in that order."""
        assert analysis_main(["--list-rules"]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        documented = re.findall(r"^\| `([a-z-]+)` \|", _section("## Plan-rule catalog"), re.M)
        documented += re.findall(r"^\| `(cc-[a-z-]+)` \|", _section("### Finding codes"), re.M)
        assert documented == printed

    def test_contract_table_lists_exactly_the_emitted_rules(self):
        table = _section("## Engine contract checker")
        documented = re.findall(r"^\| `([a-z-]+)` \|", table, re.M)
        assert sorted(documented) == _contract_rule_ids()

    def test_lock_table_is_lock_order(self):
        rows = re.findall(
            r"^\| (\d+) \| `([a-z.]+)` \| `(\w+)\.(\w+)` \| (\w+) \|",
            _section("## Concurrency contracts"), re.M,
        )
        assert rows == [
            (str(s.rank), s.name, s.cls, s.attr, s.kind) for s in LOCK_ORDER
        ]

    def test_every_check_cites_its_unique_catch(self):
        """Each check the code runs has a row in the audit's table of kept
        checks, naming a catch-table mutant only it catches; no row names a
        check the code no longer runs."""
        kept = dict(re.findall(
            r"^\| `([a-z-]+)` \| (\d+)", _section("### What stays"), re.M
        ))
        checks = (
            [rule_id for rule_id, _ref, _fn in PLAN_RULES]
            + _contract_rule_ids()
            + list(CONCURRENCY_RULES)
        )
        assert sorted(kept) == sorted(checks)
        catch_rows = set(re.findall(r"^\| (\d+) \|", _section("## Mutation audit"), re.M))
        assert set(kept.values()) <= catch_rows
