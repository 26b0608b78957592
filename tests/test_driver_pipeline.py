"""The POP driver's observable surface, frozen across the pipeline refactor.

``tests/fixtures/driver_pipeline_golden.json`` was recorded at commit
87b68ee — the last one whose driver was the 350-line ``_run_guarded`` plus
the forked ``_run_fallback`` — by running this module's :func:`record` there
(``PYTHONPATH=src python -c "from tests.test_driver_pipeline import record;
record()"``).  For each scenario below it holds, per statement: the rows (a
count and digest when there are many), every
:class:`~repro.core.driver.AttemptReport` field (the plan as its
fingerprint), the resilience fields of the :class:`PopReport`, the trace as
a sequence of (type, name, parent span name, sorted attribute keys, work-unit
stamps), the metrics counter snapshot and ``meter.by_category()``.  Wall
times are left out; floats must agree to rel 1e-9, everything else exactly.
The file is never regenerated: a mismatch is a driver regression.

One key is compared as a bound and not exactly:
``counters["optimizer.newton_iterations"]``.  Since validity-range narrowing
moved out of the DP prune loop, the Fig. 5 probe runs only for the joins of
the returned plan, so the optimizer spends fewer iterations for the same
plans and the same ranges (e.g. ``single_attempt`` 145 → 77); the frozen
count is the eager optimizer's and is an upper bound now: ``0 < got ≤
frozen``, and 0 where it was 0.  Plans, ranges, CHECK decisions, work units
and every other counter are still exact.

The fixture predates the per-attempt record (``AttemptReport.record``): the
four fields it replaced — ``actual_cards``, ``profiles``,
``profile_self_units`` and ``spilled_operators`` — are rebuilt from the
record in their old shapes, so the fixture is compared unchanged.  It also
predates two later changes to the report: ``plan_text``, ``join_order`` and
``reused_mvs`` are properties of the plan now, not fields, and are added
back under their old keys; ``units_at_start`` is a field the old driver did
not have, and is dropped.  ``breaker_tripped`` is a report field the driver
no longer has: the §7 cap is its only termination rule, and the scenario
that tripped the deleted re-optimization circuit breaker left ``SCENARIOS``.
Every kept scenario's frozen ``breaker_tripped`` is asserted ``false``, then
dropped.

The execution guard's retry, backoff and safe-plan fallback are deleted
too: a failed attempt raises its classified error.  The scenarios that
froze them (``transient_retry``, ``fault_after_rows``,
``deadline_fallback``) left ``SCENARIOS``.  Every kept scenario's frozen
guard keys are asserted neutral, then dropped: the report's ``retries``
(0), ``backoff_units`` (0.0), ``fallback_used`` (false) and
``fallback_reason`` (null), each attempt's ``fallback`` (false),
``failure`` and ``failure_class`` (null), and the ``pop.statement`` span's
``guarded``, ``retries`` and ``fallback`` attributes.  The trace freezes
attribute names only; those three held ``sc.guard is not None`` (no kept
scenario passes ``resilience`` or ``faults``) and the report's
``retries`` and ``fallback_used``, asserted above.

Each scenario builds its own database, so temp-MV names and learned state
cannot depend on test order.

The second half holds the regression tests for the two shared-state bugs the
statement-scoped context removes: temp MVs leaking between interleaved
statements, and statements writing the shared ``OptimizerOptions``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import Database, PopConfig
from repro.core import driver as driver_module
from repro.core.config import MemoryPolicy, ResiliencePolicy
from repro.core.driver import AttemptReport, PopDriver
from repro.core.flavors import ECDC
from repro.executor.meter import WorkMeter
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer.enumeration import OptimizerOptions
from repro.optimizer.fingerprint import plan_fingerprint
from repro.optimizer.optimizer import Optimizer
from repro.plan.explain import explain_plan
from repro.plan.physical import Check, HashJoin, find_ops

from .conftest import build_dmv_db, build_star_db, canonical
from .test_executor_batch_differential import rows_record
from .test_obs import marker_query
from .test_plan_cache import make_db as build_cache_db

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "driver_pipeline_golden.json"

SORT_CARS_SQL = (
    "SELECT c.c_id, c.c_make, c.c_weight FROM car c ORDER BY c.c_weight, c.c_id"
)
DMV_MODEL_TEMPLATE = (
    "SELECT o.o_id, o.o_name FROM car c, owner o "
    "WHERE c.c_owner_id = o.o_id AND c.c_make = 'MAKE00' AND c.c_model = '{m}'"
)


# ------------------------------------------------------------------ snapshot


def _postorder(node):
    for child in node.children:
        yield from _postorder(child)
    yield node


def _frozen_record_keys(root) -> dict:
    """The four fields the attempt record replaced, rebuilt from it in the
    fixture's shapes: ``profiles`` in operator-registration (post-)order,
    wall fields dropped, the root filed under -1 as the old collector did."""
    profiles = None
    if root.profile is not None:
        profiles = []
        for node in _postorder(root):
            entry = {
                k: v
                for k, v in node.to_dict().items()
                if k != "children" and not k.endswith("_wall")
            }
            entry["op_id"] = node.op_id or -1
            profiles.append(entry)
    return {
        "actual_cards": sorted(
            [r.op_id, r.rows_out, r.eof] for r in root.walk()
        ),
        "profiles": profiles,
        "profile_self_units": sum(
            (r.profile.self_units for r in _postorder(root) if r.profile), 0.0
        ),
        "spilled_operators": sorted(
            {r.kind for r in root.walk() if r.spill_pages}
        ),
    }


def _attempt_record(attempt: AttemptReport) -> dict:
    record = {
        "plan_text": explain_plan(attempt.plan),
        "join_order": attempt.join_order,
        "reused_mvs": attempt.reused_mvs,
    }
    for f in dataclasses.fields(AttemptReport):
        value = getattr(attempt, f.name)
        if f.name == "plan":
            value = plan_fingerprint(value)
        elif f.name == "checkpoint_events":
            value = [dataclasses.astuple(e) for e in value]
        elif f.name == "record":
            record.update(_frozen_record_keys(value))
            continue
        elif f.name == "units_at_start":
            continue
        record[f.name] = value
    return record


def _trace_records(tracer: Tracer) -> list:
    names = {r["id"]: r["name"] for r in tracer.spans()}
    out = []
    for r in tracer.records:
        if r["type"] == "span":
            out.append(["span", r["name"], names.get(r["parent"]),
                        sorted(r["attrs"]), r["u0"], r["u1"]])
        else:
            out.append(["event", r["name"], names.get(r["span"]),
                        sorted(r["attrs"]), r["u"]])
    return out


def observed(db: Database, statement, **kwargs) -> dict:
    """Run one statement fully instrumented; everything the driver shows."""
    tracer, metrics = Tracer(), MetricsRegistry()
    meter = WorkMeter(track_categories=True)
    result = db.execute(
        statement, tracer=tracer, metrics=metrics, meter=meter, **kwargs
    )
    report = result.report
    snap = {
        "rows": rows_record(canonical(result.rows)),
        "attempts": [_attempt_record(a) for a in report.attempts],
        "report": {
            f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)
            if f.name not in ("attempts", "wall_seconds")
        },
        "trace": _trace_records(tracer),
        "counters": metrics.snapshot()["counters"],
        "meter": meter.by_category(),
    }
    # Through JSON so a live snapshot and a loaded one have the same types.
    return json.loads(json.dumps(snap))


# ----------------------------------------------------------------- scenarios


def single_attempt():
    return [observed(build_star_db(), marker_query(), params={"p": "RARE"})]


def reopt_mv_reuse():
    return [observed(build_star_db(), marker_query(), params={"p": "COMMON"})]


def ecdc_compensation():
    config = PopConfig(flavors=frozenset({ECDC}), min_cost_for_checkpoints=0.0)
    return [
        observed(build_star_db(), marker_query(), params={"p": "COMMON"}, pop=config)
    ]


def cache_install_then_hit():
    db = build_cache_db()
    db.enable_plan_cache()
    return [observed(db, f"SELECT t.v FROM t WHERE t.k = {k}") for k in (1, 2)]


def narrowed_cache_db() -> Database:
    """A DMV database whose plan cache holds a POP plan with a CHECK that
    ``DMV_MODEL_TEMPLATE`` at ``MODEL00_7`` fires on its cache hit."""
    db = build_dmv_db()
    db.enable_plan_cache()
    db.execute(DMV_MODEL_TEMPLATE.format(m="MODEL00_8"))
    entry = db.plan_cache.entries()[0]
    # Narrow the cached CHECK so the next bind's actual cardinality fires it
    # (the set-up of test_plan_cache.test_reoptimization_discards_variant).
    db.plan_cache.discard(entry.shape, entry.fingerprint)
    find_ops(entry.plan, Check)[0].check_range.high = 50.0
    db.plan_cache.install(
        entry.shape, entry.plan, entry.tables,
        params=entry.params, checkpoints=entry.checkpoints,
    )
    return db


def cache_hit_check_fires():
    return [observed(narrowed_cache_db(), DMV_MODEL_TEMPLATE.format(m="MODEL00_7"))]


def governed_spill():
    db = build_dmv_db()
    db.enable_memory_governor(
        policy=MemoryPolicy(
            budget_pages=4.0, min_reservation_pages=1.0, min_grant_pages=1.0
        )
    )
    return [observed(db, SORT_CARS_SQL, pop=PopConfig(reuse_policy="never"))]


def profile_on():
    return [
        observed(build_star_db(), marker_query(), params={"p": "COMMON"},
                 profile=True)
    ]


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        single_attempt, reopt_mv_reuse, ecdc_compensation,
        cache_install_then_hit, cache_hit_check_fires, governed_spill,
        profile_on,
    )
}


def record() -> None:
    """Write the fixture (run once, at the parent commit)."""
    golden = {name: fn() for name, fn in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def assert_same(got, want, path: str) -> None:
    if path.endswith(".counters.optimizer.newton_iterations"):
        assert (got == want == 0) or 0 < got <= want, path
    elif isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=1e-9), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


#: Deleted keys and the neutral value every kept scenario froze for them.
DELETED_REPORT_KEYS = {
    "breaker_tripped": False,
    "retries": 0,
    "backoff_units": 0.0,
    "fallback_used": False,
    "fallback_reason": None,
}
DELETED_ATTEMPT_KEYS = {"fallback": False, "failure": None, "failure_class": None}
DELETED_STATEMENT_SPAN_ATTRS = ("fallback", "guarded", "retries")


def frozen(name: str) -> list:
    """The fixture's statements for ``name``, less the deleted keys, each
    asserted to hold its neutral value first."""
    statements = json.loads(GOLDEN_PATH.read_text())[name]
    for statement in statements:
        for key, neutral in DELETED_REPORT_KEYS.items():
            assert statement["report"].pop(key) == neutral, (name, key)
        for attempt in statement["attempts"]:
            for key, neutral in DELETED_ATTEMPT_KEYS.items():
                assert attempt.pop(key) == neutral, (name, key)
        for record in statement["trace"]:
            if record[:2] == ["span", "pop.statement"]:
                for key in DELETED_STATEMENT_SPAN_ATTRS:
                    record[3].remove(key)
    return statements


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pipeline_reproduces_frozen_driver(name):
    assert_same(SCENARIOS[name](), frozen(name), name)


def test_golden_scenarios_cover_every_outcome():
    """The fixture is only a freeze if each exit path is actually in it."""
    golden = json.loads(GOLDEN_PATH.read_text())

    def attempts(name):
        return [a for stmt in golden[name] for a in stmt["attempts"]]

    assert len(attempts("single_attempt")) == 1
    assert attempts("reopt_mv_reuse")[1]["reused_mvs"]
    first = attempts("ecdc_compensation")[0]
    assert first["signal_flavor"] == "ECDC" and first["rows_emitted"] > 0
    assert [a["cache_hit"] for a in attempts("cache_install_then_hit")] == [
        False, True,
    ]
    fired = attempts("cache_hit_check_fires")
    assert fired[0]["cache_hit"] and fired[0]["signal_op_id"] is not None
    assert attempts("governed_spill")[-1]["spilled"]
    assert all(a["profiles"] for a in attempts("profile_on"))


# ----------------------------------------- statement-scoped state regressions

COMMON, RARE = {"p": "COMMON"}, {"p": "RARE"}


def test_interleaved_statement_cannot_see_or_steal_temp_mvs(monkeypatch):
    """B runs between A's harvest and A's next round, on the same database.

    Temp MVs match on marker names, not bind values: with MVs in the shared
    catalog B scanned A's ``:p='COMMON'`` intermediate for ``:p='RARE'``
    (10,110 rows instead of 462) and B's cleanup dropped the MV A was about
    to reuse.
    """
    db = build_star_db()
    real_harvest = driver_module.harvest_execution_state
    interleaved = []

    def harvest_then_run_b(ctx, signal, *rest, **kwargs):
        names = real_harvest(ctx, signal, *rest, **kwargs)
        if names and not interleaved:
            interleaved.append(None)
            interleaved[0] = db.execute(marker_query(), params=RARE)
        return names

    monkeypatch.setattr(
        driver_module, "harvest_execution_state", harvest_then_run_b
    )
    a = db.execute(marker_query(), params=COMMON)
    (b,) = interleaved
    assert all(not attempt.reused_mvs for attempt in b.report.attempts)
    assert canonical(b.rows) == canonical(
        db.execute_without_pop(marker_query(), params=RARE).rows
    )
    assert a.report.attempts[1].reused_mvs, "A lost its own temp MV"
    assert canonical(a.rows) == canonical(
        db.execute_without_pop(marker_query(), params=COMMON).rows
    )


def spy_optimizer_options(monkeypatch) -> list:
    """The ``options`` of every ``Optimizer.optimize`` call, in order."""
    seen: list = []
    real_optimize = Optimizer.optimize

    def spy(self, query, **kwargs):
        seen.append(kwargs.get("options"))
        return real_optimize(self, query, **kwargs)

    monkeypatch.setattr(Optimizer, "optimize", spy)
    return seen


@pytest.mark.parametrize("policy", ["never", "always"])
def test_reuse_policy_applies_to_its_own_statement_only(policy, monkeypatch):
    """A statement's reuse policy is applied to its own copy of its
    options: the caller's object is not written, and the next statement
    optimizes with the defaults."""
    db = build_star_db()
    seen = spy_optimizer_options(monkeypatch)
    mine = OptimizerOptions(enable_index_nljn=False)
    before = dataclasses.replace(mine)
    first = db.execute(
        marker_query(), params=COMMON, pop=PopConfig(reuse_policy=policy),
        optimizer_options=mine,
    )
    rounds = len(first.report.attempts)
    db.execute(marker_query(), params=COMMON)
    assert mine == before
    assert seen[:rounds] == [
        dataclasses.replace(mine, mv_cost_zero=policy == "always")
    ] * rounds
    assert seen[rounds:] and all(o == OptimizerOptions() for o in seen[rounds:])


NO_HASH = OptimizerOptions(enable_hash_join=False)
HASH_JOIN_SQL = (
    "SELECT c.c_id, o.o_id FROM cust c, orders o WHERE c.c_id = o.o_custkey"
)


def test_omitted_optimizer_options_are_the_defaults():
    """The optimizer keeps no switches of its own: an entry point called
    without options plans as one called with ``OptimizerOptions()``."""
    db = build_star_db()
    query = marker_query()
    default = OptimizerOptions()

    def fingerprints(result) -> list:
        return [plan_fingerprint(a.plan) for a in result.report.attempts]

    assert plan_fingerprint(db.optimizer.optimize(query).plan) == plan_fingerprint(
        db.optimizer.optimize(query, options=default).plan
    )
    assert plan_fingerprint(db.plan(query)[1].plan) == plan_fingerprint(
        db.plan(query, optimizer_options=default)[1].plan
    )
    assert fingerprints(db.execute(query, params=COMMON)) == fingerprints(
        db.execute(query, params=COMMON, optimizer_options=default)
    )


def test_per_call_optimizer_options_apply_to_that_call_only():
    db = build_star_db()
    db.enable_memory_governor()  # admission sizes from the per-call plan
    assert not find_ops(
        db.plan(HASH_JOIN_SQL, optimizer_options=NO_HASH)[1].plan, HashJoin
    )
    no_hash = db.execute(HASH_JOIN_SQL, optimizer_options=NO_HASH)
    default = db.execute(HASH_JOIN_SQL)
    assert not any(find_ops(a.plan, HashJoin) for a in no_hash.report.attempts)
    assert find_ops(default.report.final_plan, HashJoin)
    assert canonical(no_hash.rows) == canonical(default.rows)


def test_per_call_optimizer_options_bypass_the_plan_cache():
    db = build_star_db()
    cache = db.enable_plan_cache()
    metrics = MetricsRegistry()
    db.execute(HASH_JOIN_SQL, optimizer_options=NO_HASH, metrics=metrics)
    assert not cache.entries()
    db.execute(HASH_JOIN_SQL)  # installs the default plan
    (entry,) = cache.entries()
    result = db.execute(HASH_JOIN_SQL, optimizer_options=NO_HASH, metrics=metrics)
    assert not result.report.cache_hit
    assert cache.entries() == [entry]
    counters = metrics.snapshot()["counters"]
    assert not any(k.startswith("plan_cache.") for k in counters)


def governed_star_db() -> Database:
    db = build_star_db()
    db.enable_memory_governor()
    return db


#: Re-optimizing routes through the driver, each re-optimizing once:
#: name -> () -> (database, statement, ``execute`` keywords, ``PopConfig``).
DEADLINE_ROUTES = {
    "reopt": lambda: (build_star_db(), marker_query(), {"params": COMMON}, PopConfig()),
    "ecdc": lambda: (
        build_star_db(), marker_query(), {"params": COMMON},
        PopConfig(flavors=frozenset({ECDC}), min_cost_for_checkpoints=0.0),
    ),
    "cache-hit": lambda: (
        narrowed_cache_db(), DMV_MODEL_TEMPLATE.format(m="MODEL00_7"), {}, PopConfig()
    ),
    "governed": lambda: (
        governed_star_db(), marker_query(), {"params": COMMON}, PopConfig()
    ),
}


@pytest.mark.parametrize("route", DEADLINE_ROUTES)
def test_wall_deadline_is_set_once_and_shared_by_every_round(route, monkeypatch):
    """The statement's wall deadline starts with its first attempt and is
    not reset by a re-optimized round."""
    db, statement, kwargs, config = DEADLINE_ROUTES[route]()
    deadlines = []
    real_context = PopDriver._execution_context

    def spy(self, sc):
        ctx = real_context(self, sc)
        deadlines.append(ctx.wall_deadline)
        return ctx

    monkeypatch.setattr(PopDriver, "_execution_context", spy)
    deadline = ResiliencePolicy(deadline_seconds=60)
    pop = dataclasses.replace(config, resilience=deadline)
    result = db.execute(statement, pop=pop, **kwargs)
    assert result.report.reoptimizations == 1
    assert len(deadlines) == len(result.report.attempts) == 2
    assert None not in deadlines
    assert len(set(deadlines)) == 1
