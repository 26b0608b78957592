"""The cross-feature differential matrix: re-optimization changes a
statement's cost, never its answer (§2.3), whatever else is switched on.

Each example draws a statement and every axis together (batch width, memory,
plan cache, snapshot, CHECK placement, ``stats`` and ``mem_shrink`` faults, an
interleaved statement) and runs it through ``Database.execute`` on the small
TPC-H or DMV database under strict plan analysis; :func:`run_case` checks it
against a sqlite twin (``bench/oracle.py``) and for the invariants it lists.
One test per property and workload keeps every axis drawn, so each failure
shrinks on its own; the last test fails if an axis value was never reached.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import date, timedelta
from functools import lru_cache, partial
from typing import Optional
from unittest.mock import patch

import pytest
from bench.oracle import Oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MemoryPolicy, PopConfig
from repro.analysis.plan_lint import lint_plan
from repro.common.chaosutil import Baseline
from repro.common.errors import AdmissionRejected, BindError
from repro.core import driver as driver_module
from repro.core.flavors import ALL_FLAVORS, DEFAULT_FLAVORS, ECB, ECDC, ECWC, LC, LCEM
from repro.governor import estimate_plan_memory
from repro.obs import MetricsRegistry, Tracer
from repro.plan.physical import BufCheck, Check, find_ops
from repro.resilience import MEM_SHRINK, STATS, FaultPlan, FaultSpec
from repro.sql.binder import bind_sql
from repro.workloads import small_workload_databases

def edges(text: str) -> tuple:
    """``"a.x=b.y ..."`` as ``(a, x, b, y)`` tuples."""
    return tuple(tuple(edge.replace("=", ".").split(".")) for edge in text.split())


WORKLOADS = ("tpch", "dmv")
WIDTHS = (1024, 1, 7, 64)
MEMORY = (None, 0.5, 0.25)
FLAVOR_MIXES = {
    "LC+LCEM": DEFAULT_FLAVORS, "LC+ECB": frozenset({LC, ECB}), "ECDC": frozenset({ECDC}),
    "LCEM+ECWC": frozenset({LCEM, ECWC}), "all": frozenset(ALL_FLAVORS),
}
#: Join edges of the generated statements, and FLOAT = INT keys that match
#: rows in the small databases, as ``(table, column, table, column)``.
FOREIGN_KEYS = {
    "tpch": edges(
        "nation.n_regionkey=region.r_regionkey supplier.s_nationkey=nation.n_nationkey "
        "customer.c_nationkey=nation.n_nationkey orders.o_custkey=customer.c_custkey "
        "lineitem.l_orderkey=orders.o_orderkey lineitem.l_partkey=part.p_partkey "
        "lineitem.l_suppkey=supplier.s_suppkey partsupp.ps_partkey=part.p_partkey "
        "partsupp.ps_suppkey=supplier.s_suppkey"
    ),
    "dmv": edges(
        "car.c_owner_id=owner.o_id accident.a_car_id=car.c_id violation.v_car_id=car.c_id "
        "insurance.i_car_id=car.c_id inspection.p_car_id=car.c_id "
        "registration.g_car_id=car.c_id dealer.d_make=car.c_make"
    ),
}
INT_FLOAT_KEYS = {
    "tpch": edges(
        "partsupp.ps_supplycost=orders.o_orderkey lineitem.l_discount=nation.n_regionkey"
    ),
    "dmv": edges("violation.v_fine=car.c_weight"),
}
KINDS = ("fixed", "join", "int_float", "str_vs_number")
FORMS = ("rows", "distinct", "group", "having", "top")
EXPECTED_REACH = (
    {f"width={w}" for w in WIDTHS} | {f"memory={m}" for m in MEMORY} | set(KINDS) | set(FORMS)
    | {f"flavors={name}" for name in FLAVOR_MIXES} | {f"tables={n}" for n in range(1, 5)}
    | {f"{axis}={on}" for axis in ("cache", "snapshot", "hash_build_lc") for on in (True, False)}
    | {"null_bind", "boundary", "empty", "forced", "reoptimized", "cache_hit", "spilled",
       "renegotiated", "interleaved", f"fired:{STATS}", f"fired:{MEM_SHRINK}"}
)
#: Axis values, statement forms and outcomes each workload's runs reached.
REACH: dict = defaultdict(Counter)


class Twin(Oracle):
    """A workload database's sqlite twin, which mirrors its inserts."""

    def write(self, sql: str, *args) -> None:
        self.con.execute(sql, args)
        self._reference.clear()


class World:
    """One small workload database with transactions on, and its twin."""

    def __init__(self, label: str):
        ((_label, self.db, self.fixed),) = small_workload_databases(label)
        self.label = label
        self.db.enable_transactions()
        self.twin = Twin()
        self.columns = {
            t.name: [(c.name, c.dtype.value) for c in t.schema.columns]
            for t in self.db.catalog.tables()
        }
        for table in self.db.catalog.tables():
            self.twin.load(table.name, self.columns[table.name], table.rows)

    @lru_cache(None)  # noqa: B019 - the worlds live as long as the module
    def domain(self, table: str, column: str) -> list:
        return sorted(set(self.db.catalog.table(table).column_values(column)))

    def restore(self, table: str, rows: int) -> None:
        """Drop the rows past ``rows`` a snapshot case inserted, in both."""
        engine = self.db.catalog.table(table)
        del engine.rows[rows:]
        self.db.catalog.rebuild_indexes(table)
        self.db.txn_manager.on_ddl(engine)
        self.twin.write(f"DELETE FROM {table} WHERE rowid > ?", rows)


world_of = lru_cache(None)(World)


@dataclass(frozen=True)
class Shape:
    """A statement without its literals; fixed statements carry ``sql``."""

    kind: str
    tables: tuple  # (table, alias) in FROM order
    joins: tuple  # predicate texts that take no literal
    preds: tuple  # (alias, table, column, type, op) that take one
    select: str = ""
    tail: str = ""
    tags: frozenset = frozenset()
    sql: str = ""


@dataclass(frozen=True)
class Stmt:
    sql: str
    oracle_sql: str
    tables: tuple
    params: Optional[dict] = None
    bad: bool = False  # must raise BindError on every path
    tags: frozenset = frozenset()


@st.composite
def fk_tree(draw, label):
    """1-4 distinct tables joined along foreign keys."""
    keys = FOREIGN_KEYS[label]
    names, joins = [draw(st.sampled_from(sorted({k[0] for k in keys} | {k[2] for k in keys})))], []
    for _ in range(draw(st.integers(0, 3))):
        frontier = [k for k in keys if (k[0] in names) != (k[2] in names)]
        a, ca, b, cb = draw(st.sampled_from(frontier))
        names.append(b if a in names else a)
        joins.append(f"t{names.index(a)}.{ca} = t{names.index(b)}.{cb}")
    return tuple((t, f"t{i}") for i, t in enumerate(names)), tuple(joins)


@st.composite
def shapes(draw, world):
    kind = draw(st.sampled_from(KINDS))
    if kind == "fixed":
        sql = draw(st.sampled_from([sql for _name, sql in world.fixed]))
        tables = tuple((t.table, t.alias) for t in bind_sql(sql, world.db.catalog).tables)
        return Shape(kind, tables, (), (), tags=frozenset({kind}), sql=sql)
    if kind == "int_float":
        a, ca, b, cb = draw(st.sampled_from(INT_FLOAT_KEYS[world.label]))
        tables, joins = ((a, "t0"), (b, "t1")), (f"t0.{ca} = t1.{cb}",)
    else:
        tables, joins = draw(fk_tree(world.label))
    columns = [(a, t, n, d) for t, a in tables for n, d in world.columns[t]]
    strs = [f"{a}.{n}" for a, _t, n, d in columns if d == "str"]
    nums = [f"{a}.{n}" for a, _t, n, d in columns if d in ("int", "float")]
    if kind == "str_vs_number":
        n = draw(st.sampled_from(nums))
        s = draw(st.sampled_from(strs)) if strs else None
        joins += (draw(st.sampled_from([f"{n} < 'x'"] + ([f"{s} = 5", f"{s} = {n}"] * bool(s)))),)
    preds = tuple(
        (a, t, n, d, draw(st.sampled_from(("=", "<", ">=", "<>", "<=", ">"))))
        for a, t, n, d in draw(st.lists(st.sampled_from(columns), max_size=2))
    )
    form = draw(st.sampled_from(FORMS))
    # Outputs leave dates out: the engine returns day numbers, sqlite text.
    ref = strs + nums
    if form in ("rows", "distinct"):
        picks = draw(st.lists(st.sampled_from(ref), min_size=1, max_size=3, unique=True))
        select, tail = ("DISTINCT " if form == "distinct" else "") + ", ".join(picks), ""
    elif form == "top":
        key = draw(st.sampled_from(ref))
        desc = " DESC" if draw(st.booleans()) else ""
        select = ", ".join(dict.fromkeys([key, draw(st.sampled_from(ref))]))
        tail = f" ORDER BY {key}{desc} LIMIT {draw(st.integers(1, 20))}"
    else:
        key, num = draw(st.sampled_from(ref)), draw(st.sampled_from(nums))
        select = f"{key}, count(*) AS n, sum({num}) AS s, min({num}) AS lo"
        having = f" HAVING n > {draw(st.integers(0, 3))}" if form == "having" else ""
        tail = f" GROUP BY {key}{having} ORDER BY {key}"
    tags = {kind, form, f"tables={len(tables)}"}
    return Shape(kind, tables, joins, preds, select, tail, frozenset(tags))


def literal(world, table, column, dtype, draw):
    """A literal from the column's real domain or just past its bounds,
    or ``None`` for a NULL bind; with its reach tag."""
    values = world.domain(table, column)
    pick = draw(st.sampled_from(("value", "min", "max", "below", "above", "null")))
    if pick == "null":
        return None, "null_bind"
    position = draw(st.integers(0, len(values) - 1)) if pick == "value" else 0
    value = values[-1 if pick in ("max", "above") else position]
    step, tag = {"below": -1, "above": 1}.get(pick, 0), "boundary" * (pick != "value")
    if dtype == "str":
        return repr({"below": "!", "above": "~"}.get(pick, value)), tag
    if dtype == "date":
        day = date(1970, 1, 1) + timedelta(days=value + step)
        return f"'{day.isoformat()}'", tag
    return repr(round(value + step, 4)), tag


@st.composite
def render(draw, world, shape):
    """The shape's statement with freshly drawn literals."""
    if shape.kind == "fixed":
        return Stmt(shape.sql, shape.sql, tuple(t for t, _a in shape.tables), tags=shape.tags)
    where, oracle_where, params, tags = list(shape.joins), list(shape.joins), {}, set(shape.tags)
    for alias, table, name, dtype, op in shape.preds:
        text, tag = literal(world, table, name, dtype, draw)
        tags.add(tag)
        if text is None:
            params[f"p{len(params) + 1}"] = None
        where.append(f"{alias}.{name} {op} {'?' if text is None else text}")
        oracle_where.append(f"{alias}.{name} {op} {'NULL' if text is None else text}")
    head = f"SELECT {shape.select} FROM " + ", ".join(f"{t} {a}" for t, a in shape.tables)

    def text(conjuncts):
        return head + (" WHERE " + " AND ".join(conjuncts) if conjuncts else "") + shape.tail

    return Stmt(
        text(where), text(oracle_where), tuple(t for t, _a in shape.tables),
        params or None, shape.kind == "str_vs_number", frozenset(tags - {""}),
    )


@dataclass(frozen=True)
class Case:
    stmt: Stmt
    width: int
    memory: Optional[float]
    cache: bool
    snapshot: Optional[int]  # row copied by the committed insert
    flavors: str
    hash_build_lc: bool
    force: Optional[int]  # which placed CHECK is forced to fire
    faults: tuple
    interleave: bool
    reuse: str = "cost"  # PopConfig.reuse_policy


@st.composite
def cases(draw, world):
    """``(shape, case)``: one statement with every axis drawn."""
    shape = draw(shapes(world))
    tables = sorted({t for t, _a in shape.tables})
    fault = st.one_of(
        st.builds(FaultSpec, st.just(STATS), payload=st.sampled_from((0.01, 100.0, 0.0)),
                  target_table=st.sampled_from(tables)),
        st.builds(FaultSpec, st.just(MEM_SHRINK), trigger_at=st.integers(1, 64),
                  payload=st.sampled_from((0.5, 0.25, 0.1))),
    )
    return shape, Case(
        draw(render(world, shape)), draw(st.sampled_from(WIDTHS)),
        draw(st.sampled_from(MEMORY)), draw(st.booleans()),
        draw(st.none() | st.integers(0, 10**6)), draw(st.sampled_from(tuple(FLAVOR_MIXES))),
        draw(st.booleans()), draw(st.none() | st.integers(0, 7)),
        tuple(draw(st.lists(fault, max_size=2))), draw(st.booleans()),
    )


def config(db, case) -> PopConfig:
    cfg = PopConfig(
        flavors=FLAVOR_MIXES[case.flavors],
        min_cost_for_checkpoints=25.0 if case.flavors == "LC+LCEM" else 0.0,
        lc_above_hash_build=case.hash_build_lc, strict_analysis=True, batch_size=case.width,
        reuse_policy=case.reuse,
    )
    if case.force is None or case.stmt.bad:
        return cfg
    checks = find_ops(db.plan(case.stmt.sql, case.stmt.params, pop=cfg)[1].plan, (Check, BufCheck))
    forced = checks[case.force % max(1, len(checks)):][:1]
    return replace(cfg, force_trigger_op_ids=frozenset(op.op_id for op in forced))


def interleaving(db, sql: str, out: list):
    """Patch the driver to run ``sql`` once, at the statement's first attempt
    boundary (its harvest); ``out`` keeps the result or classified shed."""
    real = driver_module.harvest_execution_state

    def harvest_then_run(*args, **kwargs):
        names = real(*args, **kwargs)
        if not out:
            out.append(None)  # the second statement's own harvest skips this
            try:
                out[0] = db.execute(sql)
            except AdmissionRejected as exc:  # the governor is saturated
                out[0] = exc
        return names

    return patch.object(driver_module, "harvest_execution_state", harvest_then_run)


def run_case(world, case, fresh_cache=True):
    """Run and check ``case``; its report, or ``None`` after a ``BindError``.
    Rows equal sqlite's (the interleaved statement's too); strict analysis
    passes each plan; re-optimizations stay capped; ranges bracket estimates;
    a cache hit's admissions are inside, low <= fresh <= high; each fired fault
    is one event and one count; the governor drains within budget; nothing
    leaks (spill dirs, threads, transactions)."""
    db, stmt = world.db, case.stmt
    cfg = config(db, case)
    if fresh_cache:
        db.disable_plan_cache()
    if case.cache:
        db.enable_plan_cache()
    baseline = Baseline()
    if case.memory is not None:
        plan = None if stmt.bad else db.plan(stmt.sql, stmt.params, pop=cfg)[1].plan
        estimate = 0.0 if plan is None else estimate_plan_memory(plan, db.cost_params)
        db.enable_memory_governor(policy=MemoryPolicy(
            budget_pages=max(2.0, case.memory * estimate), min_reservation_pages=1.0,
            min_grant_pages=1.0, max_queue_depth=0,
        ))
    table = stmt.tables[0]
    count = f"SELECT count(*) AS n FROM {table} x"
    rows_before = len(db.catalog.table(table).rows)
    copied = None if case.snapshot is None else case.snapshot % rows_before
    snapshot, second, report, tracer, metrics = None, [], None, Tracer(), MetricsRegistry()
    try:
        if copied is not None:
            snapshot = db.txn_manager.pin_snapshot()
            db.load_raw(table, [db.catalog.table(table).rows[copied]])
        with interleaving(db, count, second) if case.interleave else nullcontext():
            run = partial(
                db.execute, stmt.sql, params=stmt.params, pop=cfg, snapshot=snapshot,
                faults=FaultPlan(list(case.faults)), tracer=tracer, metrics=metrics,
            )
            if stmt.bad:
                pytest.raises(BindError, run)
            else:
                result = run()
                report = result.report
                assert world.twin.check(stmt.oracle_sql, result.rows) is None, stmt.sql
        if copied is not None:
            world.twin.write(f"INSERT INTO {table} SELECT * FROM {table} WHERE rowid = ?",
                             copied + 1)
        for other in second:
            if not isinstance(other, AdmissionRejected):
                assert world.twin.check(count, other.rows) is None
    finally:
        if copied is not None:
            world.restore(table, rows_before)
        leaks: list = []
        baseline.audit(leaks, *([db] if case.memory is not None else []))
    assert leaks == []
    assert db.txn_manager.active_count() == 0
    reach = REACH[world.label]
    reach.update(stmt.tags | {
        f"width={case.width}", f"memory={case.memory}", f"cache={case.cache}",
        f"snapshot={copied is not None}", f"flavors={case.flavors}",
        f"hash_build_lc={case.hash_build_lc}",
    })
    if report is None:
        return None
    assert report.reoptimizations <= cfg.max_reoptimizations
    for attempt in report.attempts:
        findings = [f for f in lint_plan(attempt.plan) if f.rule == "range-brackets-estimate"]
        assert findings == []
        for evaluation in attempt.cache_admission if attempt.cache_hit else ():
            assert evaluation["inside"], evaluation
            assert evaluation["low"] <= evaluation["fresh_estimate"] <= evaluation["high"]
        reach.update("forced" for e in attempt.checkpoint_events
                     if cfg.force_trigger_op_ids and e.triggered and e.low <= e.observed <= e.high)
    fired = tracer.events("fault.injected")
    assert len(fired) == report.faults_injected == metrics.total("resilience.faults_injected")
    reach.update(f"fired:{e['attrs']['kind']}" for e in fired)
    reach.update(tag for tag, hit in (
        ("reoptimized", report.reoptimizations), ("spilled", report.spilled),
        ("renegotiated", report.renegotiations), ("interleaved", second),
        ("cache_hit", any(a.cache_hit for a in report.attempts)),
        ("empty", not world.twin.reference(stmt.oracle_sql)[0]),
    ) if hit)
    return report


# ----------------------------------------------------------------- properties

MATRIX = settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def without_shrinks(case):
    """``case`` without ``mem_shrink`` faults, to compare runs: a shrink fires at a
    pull count, which the width moves, and floors each memory level apart."""
    return replace(case, faults=tuple(f for f in case.faults if f.kind == STATS))


def decisions(report) -> list:
    """Each attempt's CHECK evaluations and signal, less the width-dependent
    ``units_at_event`` and rows out above a firing CHECK (docs/vectorized.md),
    which the plan after an ECDC signal compensates: later ones are skipped."""
    out = []
    for a in report.attempts:
        events = [(e.op_id, e.flavor, e.observed, e.low, e.high, e.complete, e.triggered)
                  for e in a.checkpoint_events]
        out.append((a.signal_op_id, a.signal_flavor, a.signal_observed, a.signal_complete, events))
        if a.signal_flavor == "ECDC":
            break
    return out


@pytest.mark.parametrize("label", WORKLOADS)
@MATRIX
@given(data=st.data())
def test_every_run_matches_sqlite_and_keeps_the_invariants(label, data):
    world = world_of(label)
    run_case(world, data.draw(cases(world))[1])


@pytest.mark.parametrize("label", WORKLOADS)
@MATRIX
@given(data=st.data())
def test_check_decisions_do_not_depend_on_the_width(label, data):
    world = world_of(label)
    case = without_shrinks(data.draw(cases(world))[1])
    first, *others = (run_case(world, replace(case, width=w)) for w in WIDTHS)
    for other in others if first is not None else ():
        assert decisions(other) == decisions(first)


@pytest.mark.parametrize("label", WORKLOADS)
@MATRIX
@given(data=st.data())
def test_less_memory_costs_bounded_spill_never_answers(label, data):
    """At 100/50/25 % of the estimate: 25 % costs at least 100 % (to round-off),
    at most 5x, and spill never falls.  Off: MV reuse (a spilled intermediate is
    not promoted), the interleaved statement (its admission reclaims memory)."""
    world = world_of(label)
    case = replace(without_shrinks(data.draw(cases(world))[1]), reuse="never", interleave=False)
    full, half, quarter = (run_case(world, replace(case, memory=f)) for f in (1.0, 0.5, 0.25))
    if full is not None:
        assert full.total_units * (1 - 1e-12) <= quarter.total_units <= 5 * full.total_units
        assert full.spill_pages <= half.spill_pages <= quarter.spill_pages


@pytest.mark.parametrize("label", WORKLOADS)
@MATRIX
@given(data=st.data())
def test_cached_plans_are_reused_only_inside_their_ranges(label, data):
    """Cache on: a sibling (same shape, other literals) installs its plan,
    then the statement probes it."""
    world = world_of(label)
    shape, case = data.draw(cases(world))
    case = replace(case, cache=True)
    run_case(world, replace(case, stmt=data.draw(render(world, shape))))
    run_case(world, case, fresh_cache=False)


def test_every_axis_value_was_reached():
    """Runs last, after the whole file: an axis value or fault kind that no
    example reached tested nothing."""
    if set(REACH) != set(WORKLOADS):
        pytest.skip("needs the property tests of this file to have run")
    for label in WORKLOADS:
        assert EXPECTED_REACH - REACH[label].keys() == set(), (label, REACH[label])


@pytest.mark.parametrize("width", [1, 7, 64])
def test_lcem_above_a_spilled_temp_fires_before_rows_leave(width):
    """Shrunk from the matrix: 0.01 of ``owner`` puts it behind a TEMP and an LCEM
    CHECK; governed, the TEMP spills, and the CHECK must still fire before a row
    leaves (``CheckExec.open`` reads ``materialized_count``)."""
    world = world_of("dmv")
    sql = dict(world.fixed)["make_model_owner_0"]
    world.db.enable_memory_governor(policy=MemoryPolicy())
    faults = FaultPlan([FaultSpec(STATS, payload=0.01, target_table="owner")])
    try:
        result = world.db.execute(sql, pop=PopConfig(batch_size=width), faults=faults)
    finally:
        world.db.disable_memory_governor()
    first = result.report.attempts[0]
    assert (first.signal_flavor, first.spilled, first.rows_emitted) == ("LCEM", True, 0)
    assert result.report.reoptimizations == 1 and world.twin.check(sql, result.rows) is None
