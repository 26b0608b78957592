"""Deferred validity-range narrowing reproduces the eager optimizer exactly.

``tests/fixtures/validity_ranges_golden.json`` was recorded at commit
b7b3e37 — the last one whose ``_keep_best`` ran the Fig. 5 probe for every
kept candidate of every table subset — by running this module's
:func:`record` there (``PYTHONPATH=src python -c "from
tests.test_validity_deferred import record; record()"``).  It holds, for
every call of :meth:`Optimizer.optimize` made while executing each TPC-H
statement, each of the 39 DMV statements and the star marker query at
``RARE``/``COMMON`` (so re-optimization rounds, with their feedback and
temp-MV registry, are in it), and for every TPC-H statement under each
option variant below: ``explain_plan`` (which prints every non-trivial
range), ``plan_fingerprint`` (which digests every range bound with
``repr`` precision) and ``plans_enumerated``.  The file is never
regenerated: a mismatch means narrowing for the chosen plan alone no longer
gives the ranges the in-prune computation gave.

``newton_iterations`` is recorded too, as the eager count: the deferred
optimizer may only ever spend fewer.

Three variants were recorded with optimizer switches that no longer exist.
``no_ranges`` (validity ranges off) is now replayed by making
``PlanEnumerator._narrow_against`` a no-op and ``leftdeep`` (left-deep
enumeration at any width) by setting ``AUTO_BUSHY_LIMIT`` to 0.  Checked
while the switches still existed, each patch reproduced its switch's
explain text, fingerprint, ``plans_enumerated`` and ``newton_iterations``
for every TPC-H statement.  ``inversion_only`` (commit a bound only on a
cost inversion) has no replacement, so it is not replayed.

The second half holds the count-based guards: ``plans_enumerated`` still
counts every candidate, how many Newton iterations the chosen plan may cost,
and that nothing outside the chosen plan was narrowed.  (How many cost
evaluations one probe may make is guarded in ``tests/test_validity.py``.)
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.optimizer import enumeration
from repro.optimizer.enumeration import OptimizerOptions, PlanEnumerator
from repro.optimizer.fingerprint import plan_fingerprint
from repro.optimizer.optimizer import Optimizer
from repro.plan.explain import explain_plan
from repro.plan.physical import JoinOp
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES

from .conftest import build_dmv_db, build_star_db, build_tpch_db
from .test_obs import marker_query

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "validity_ranges_golden.json"

#: Variant name -> (``OptimizerOptions`` fields, the patch that replays it).
OPTION_VARIANTS = {
    "no_ranges": (
        {}, lambda: mock.patch.object(
            PlanEnumerator, "_narrow_against", lambda self, winner: None
        ),
    ),
    "iterations_1": ({"validity_iterations": 1}, contextlib.nullcontext),
    "iterations_3": ({"validity_iterations": 3}, contextlib.nullcontext),
    "iterations_6": ({"validity_iterations": 6}, contextlib.nullcontext),
    "leftdeep": (
        {}, lambda: mock.patch.object(enumeration, "AUTO_BUSHY_LIMIT", 0),
    ),
}


# ------------------------------------------------------------------ snapshot


def _result_record(opt) -> dict:
    return {
        "explain": explain_plan(opt.plan),
        "fingerprint": plan_fingerprint(opt.plan),
        "plans_enumerated": opt.plans_enumerated,
        "newton_iterations": opt.newton_iterations,
    }


@contextlib.contextmanager
def optimize_calls():
    """Collect a record of every plan ``Optimizer.optimize`` returns, taken
    before CHECK placement rewrites it."""
    calls: list = []
    real = Optimizer.optimize

    def recording(self, query, *args, **kwargs):
        opt = real(self, query, *args, **kwargs)
        calls.append(_result_record(opt))
        return opt

    Optimizer.optimize = recording
    try:
        yield calls
    finally:
        Optimizer.optimize = real


def _executed(db, statement, **kwargs) -> list:
    with optimize_calls() as calls:
        db.execute(statement, **kwargs)
    return calls


def tpch_statements() -> dict:
    db = build_tpch_db()
    return {name: _executed(db, sql) for name, sql in TPCH_QUERIES.items()}


def dmv_statements() -> dict:
    db = build_dmv_db()
    return {name: _executed(db, sql) for name, sql in dmv_queries()}


def star_statements() -> dict:
    return {
        value: _executed(build_star_db(), marker_query(), params={"p": value})
        for value in ("RARE", "COMMON")
    }


def _variant(db, fields: dict, patch) -> dict:
    with patch():
        return {
            name: _result_record(
                db.optimizer.optimize(
                    db._to_query(sql), options=OptimizerOptions(**fields)
                )
            )
            for name, sql in TPCH_QUERIES.items()
        }


def tpch_variants() -> dict:
    db = build_tpch_db()
    return {
        variant: _variant(db, fields, patch)
        for variant, (fields, patch) in OPTION_VARIANTS.items()
    }


GROUPS = {
    fn.__name__: fn
    for fn in (tpch_statements, dmv_statements, star_statements, tpch_variants)
}


def record() -> None:
    """Write the fixture (run once, at the parent commit)."""
    golden = {name: fn() for name, fn in GROUPS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def assert_reproduces(got, want, path: str) -> None:
    if isinstance(want, dict) and "fingerprint" in want:
        for key in ("explain", "fingerprint", "plans_enumerated"):
            assert got[key] == want[key], f"{path}.{key}"
        assert got["newton_iterations"] <= want["newton_iterations"], path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_reproduces(got[key], want[key], f"{path}.{key}")
    else:
        assert len(got) == len(want), f"{path}: optimizer calls"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reproduces(g, w, f"{path}[{i}]")


def golden_group(golden: dict, group: str):
    """The fixture's records of ``group`` that are still replayed."""
    if group == "tpch_variants":
        return {v: golden[group][v] for v in OPTION_VARIANTS}
    return golden[group]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_deferred_narrowing_reproduces_eager_ranges(group):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert_reproduces(GROUPS[group](), golden_group(golden, group), group)


def test_golden_covers_ranges_and_reoptimization():
    """The fixture is only a freeze if narrowed ranges and re-optimization
    rounds are actually in it."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden["dmv_statements"]) == 39
    reopts = [n for n, calls in golden["dmv_statements"].items() if len(calls) > 1]
    assert len(reopts) >= 5
    assert len(golden["star_statements"]["COMMON"]) == 2
    assert len(golden["star_statements"]["RARE"]) == 1
    for name in ("Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10"):
        assert "edge[" in golden["tpch_statements"][name][0]["explain"], name
    assert all(
        "edge[" not in r["explain"] and r["newton_iterations"] == 0
        for r in golden["tpch_variants"]["no_ranges"].values()
    )
    default = golden["tpch_statements"]
    for variant in ("iterations_1", "iterations_6", "leftdeep"):
        assert any(
            r["fingerprint"] != default[name][0]["fingerprint"]
            for name, r in golden["tpch_variants"][variant].items()
        ), variant


# --------------------------------------------------------- count-based guards

#: ``plans_enumerated`` on the benchmark's TPC-H instance (scale 0.01, seed
#: 42): what the work-unit charge for optimization is computed from.
PLAN_HEAVY_ENUMERATED = {
    "Q2": 583, "Q3": 128, "Q5": 2903, "Q7": 1421, "Q8": 5452, "Q9": 1813,
    "Q10": 294,
}


@pytest.fixture(scope="module")
def bench_tpch_db():
    from repro.workloads.tpch.generator import make_tpch_db

    return make_tpch_db()


def test_plans_enumerated_is_counted_per_candidate(bench_tpch_db):
    """Candidates pruning drops never get an operator tree, but each still
    counts as one enumerated plan."""
    db = bench_tpch_db
    got = {
        name: db.optimizer.optimize(db._to_query(TPCH_QUERIES[name])).plans_enumerated
        for name in PLAN_HEAVY_ENUMERATED
    }
    assert got == PLAN_HEAVY_ENUMERATED


def test_only_the_returned_plan_is_narrowed(bench_tpch_db, monkeypatch):
    """Q8: only the joins of the returned plan get an operator tree, each
    one once, and the probe runs for them against their alternatives and
    for nothing else."""
    db = bench_tpch_db
    kept: list = []
    built: list = []
    real_keep_best = PlanEnumerator._keep_best
    real_build = PlanEnumerator._build_join

    def collecting(self, groups):
        survivors = real_keep_best(self, groups)
        kept.extend((self, cand) for cand in survivors)
        return survivors

    def building(self, cand):
        built.append(cand)
        return real_build(self, cand)

    monkeypatch.setattr(PlanEnumerator, "_keep_best", collecting)
    monkeypatch.setattr(PlanEnumerator, "_build_join", building)
    opt = db.optimizer.optimize(db._to_query(TPCH_QUERIES["Q8"]))
    in_plan = {id(op) for op in opt.plan.walk()}

    assert len({id(c) for c in built}) == len(built)
    assert len(built) == sum(isinstance(op, JoinOp) for op in opt.plan.walk())
    probes_allowed = 0
    bystanders_with_alternatives = 0
    for enumerator, cand in kept:
        if cand.cost_desc is None:
            continue
        alternatives = PlanEnumerator._alternatives(enumerator, cand)
        if cand.plan is not None:
            assert id(cand.plan) in in_plan
            probes_allowed += len(cand.plan.validity_ranges) * len(alternatives)
        else:
            bystanders_with_alternatives += bool(alternatives)
    assert bystanders_with_alternatives > 100  # the work eager narrowing did
    narrowed = [
        op for op in opt.plan.walk()
        if isinstance(op, JoinOp) and any(not r.is_trivial for r in op.validity_ranges)
    ]
    assert len(narrowed) >= 5
    # Two directions per probe, at most ``validity_iterations`` each.
    budget = 2 * OptimizerOptions().validity_iterations * probes_allowed
    assert 0 < opt.newton_iterations <= budget
    assert opt.newton_iterations < 3000  # eager: 51,636
