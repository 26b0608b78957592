"""The executor's compiled kernels against naive per-row references.

Every operator compiles its inner loop once per ``open()`` from its plan
node (docs/vectorized.md, "Kernels"): predicate conjunctions, the GROUP BY
fold, join keys and the hash probe, sort keys.  This suite holds each of
them to a deliberately naive reference in ``tests/reference.py`` over
random layouts, NULL densities and batch widths, and pins the properties a
faster loop could silently lose:

* **scanned-row exactness** — a scan under a LIMIT or under a CHECK whose
  upper bound is crossed mid-table consumes exactly up to the matching row
  that completes the request: ``meter.units``, every operator's
  ``rows_out`` and each ``CheckpointEvent.units_at_event`` equal the values
  the row-at-a-time scan loops produced
  (``tests/fixtures/scan_exactness_golden.json``, recorded at c96f967 —
  never regenerate);
* **fan-out carry** — one probe key with more matches than a request can
  hold is served across calls, at every width;
* **index-NLJN batches** — probing ``room // fan`` outer rows at once
  moves no row, counter, meter total or CHECK stamp against one outer row
  per probe, and an outer CHECK that can still fire gets one-row pulls;
* **the harness still reaches the operators** — profiles partition the
  meter, whatever the kernels do inside an operator;
* **buffers are freed by reference count** — after ``Database.execute``
  returns (or raises), no operator of the statement is alive, with the
  cycle collector switched off.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import sqlite3
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.common.errors import ExecutionCancelled
from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.executor.check import CheckExec
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.expr.evaluate import RowLayout, compile_filter
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    IsNull,
    JoinPredicate,
    Like,
    Or,
)
from repro.plan.logical import Aggregate, HavingPredicate
from repro.plan.physical import (
    Check,
    GroupBy,
    HashJoin,
    HavingFilter,
    IndexScan,
    MergeJoin,
    MVScan,
    NLJoin,
    Project,
    Return,
    Sort,
    TableScan,
    Temp,
    number_plan,
)
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog
from repro.storage.index import Index
from repro.storage.table import Schema
from tests.conftest import build_star_db
from tests.reference import (
    holds,
    like,
    naive_aggregate,
    naive_equi_join,
    naive_filter,
    naive_sort,
)
from tests.test_cancellation import CountdownToken
from tests.test_obs import marker_query

WIDTHS = (1, 7, 64, 1024)
GOLDEN = Path(__file__).parent / "fixtures" / "scan_exactness_golden.json"

# ----------------------------------------------------------------- helpers

#: ``t(k1, k2, k3, v, f, s)``: three low-cardinality key columns, an int, a
#: float and a string value column — every one nullable.
COLUMNS = (
    ("k1", "int"), ("k2", "int"), ("k3", "str"),
    ("v", "int"), ("f", "float"), ("s", "str"),
)


def props(*aliases: str) -> PlanProperties:
    return PlanProperties(frozenset(aliases), frozenset())


def layout_of(alias: str, columns=COLUMNS) -> RowLayout:
    return RowLayout([f"{alias}.{name}" for name, _ in columns])


def catalog_of(**tables: list[tuple]) -> Catalog:
    cat = Catalog()
    for name, rows in tables.items():
        cat.create_table(name, Schema.of(*COLUMNS)).load_raw(rows)
    return cat


def scan(alias: str, table: str, filters=()) -> TableScan:
    return TableScan(
        alias, table, list(filters), props(alias), layout_of(alias),
        est_card=10.0, est_cost=1.0,
    )


def run(plan, cat: Catalog, width: int, params=None) -> list[tuple]:
    number_plan(plan)
    ctx = ExecutionContext(cat, params=params, batch_size=width)
    return run_plan(plan, ctx)


def nullable(values, null_weight: int):
    """``values`` or NULL; ``null_weight`` of 10 draws are NULL."""
    return st.integers(0, 9).flatmap(
        lambda d: st.none() if d < null_weight else values
    )


def rows_strategy(null_weight: int, max_size: int = 120):
    text = st.text(alphabet="ab%_.*[\\x", max_size=4)
    return st.lists(
        st.tuples(
            nullable(st.integers(0, 3), null_weight),
            nullable(st.integers(0, 2), null_weight),
            nullable(st.sampled_from(["x", "y"]), null_weight),
            nullable(st.integers(-50, 50), null_weight),
            nullable(st.floats(-1e6, 1e6, allow_nan=False), null_weight),
            nullable(text, null_weight),
        ),
        max_size=max_size,
    )


ROWS = st.integers(0, 9).flatmap(rows_strategy)


# ------------------------------------------------------- predicate kernels


def col(name: str) -> ColumnRef:
    return ColumnRef("t", name)


def operand(values):
    """A literal or a parameter marker (bound in ``PARAMS``), NULL included."""
    return st.one_of(
        values.map(Literal),
        st.none().map(Literal),
        st.sampled_from(["p_int", "p_null"]).map(ParameterMarker),
    )


PARAMS = {"p_int": 1, "p_null": None, "p_str": "ab"}
OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
INT_COLUMNS = st.sampled_from(["k1", "k2", "v"])
PATTERNS = st.text(alphabet="ab%_.*[\\x", max_size=5)

LEAVES = st.one_of(
    st.builds(Comparison, INT_COLUMNS.map(col), OPS, operand(st.integers(-2, 4))),
    st.builds(
        Comparison,
        st.just(col("s")),
        OPS,
        st.one_of(
            st.text(alphabet="abx", max_size=2).map(Literal),
            st.just(ParameterMarker("p_str")),
            st.just(ParameterMarker("p_null")),
        ),
    ),
    st.builds(
        Between,
        INT_COLUMNS.map(col),
        operand(st.integers(-2, 2)),
        operand(st.integers(0, 4)),
    ),
    st.builds(
        InList,
        INT_COLUMNS.map(col),
        st.lists(st.one_of(st.integers(0, 4), st.none()), max_size=4).map(tuple),
    ),
    st.builds(IsNull, st.sampled_from(["k1", "v", "s"]).map(col), st.booleans()),
    st.builds(Like, st.just(col("s")), PATTERNS),
)
PREDICATES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, min_size=1, max_size=3).map(
        lambda cs: Or(tuple(cs))
    ),
    max_leaves=6,
)
CONJUNCTIONS = st.lists(PREDICATES, max_size=4)


class TestPredicateKernels:
    @settings(max_examples=200, deadline=None)
    @given(preds=CONJUNCTIONS, rows=ROWS)
    def test_batch_form_matches_the_interpreter(self, preds, rows):
        layout = layout_of("t")
        expected = naive_filter(preds, rows, layout, PARAMS)
        assert compile_filter(preds, layout, PARAMS)(rows) == expected

    @settings(max_examples=60, deadline=None)
    @given(preds=CONJUNCTIONS, rows=ROWS, width=st.sampled_from(WIDTHS))
    def test_scan_filters_at_every_width(self, preds, rows, width):
        cat = catalog_of(t=rows)
        got = run(Return(scan("t", "t", preds)), cat, width, PARAMS)
        assert got == naive_filter(preds, rows, layout_of("t"), PARAMS)

    @settings(max_examples=300, deadline=None)
    @given(pattern=PATTERNS, text=st.text(alphabet="ab%_.*[\\x\n", max_size=6))
    def test_like_fast_paths_and_regex_agree_with_recursion(self, pattern, text):
        """``x%`` / ``%x`` / ``%x%`` take ``str`` methods, the rest one
        regex; regex metacharacters in the pattern are literals."""
        keep = compile_filter([Like(col("s"), pattern)], layout_of("t"), {})
        row = (None, None, None, None, None, text)
        assert (keep([row]) == [row]) is like(pattern, text)

    def test_values_are_bound_not_interpolated(self):
        """A hostile string operand is compared, never parsed."""
        hostile = "' or __import__('os').system('true') or '"
        layout = layout_of("t")
        preds = [
            Comparison(col("s"), "=", ParameterMarker("p")),
            Like(col("s"), hostile + "%"),
            InList(col("s"), (hostile,)),
        ]
        keep = compile_filter(preds, layout, {"p": hostile})
        hit = (0, 0, "x", 0, 0.0, hostile)
        assert keep([hit, (0, 0, "x", 0, 0.0, "other")]) == [hit]

    def test_having_uses_the_same_comparisons(self):
        rows = [(k, 0, "x", v, None, None) for k, v in
                [(0, 1), (0, 2), (1, None), (1, None), (2, 5)]]
        cat = catalog_of(t=rows)

        def plan(op, value):
            group = GroupBy(
                scan("t", "t"), [col("k1")], [Aggregate("sum", col("v"), "total")],
                props("t"), RowLayout(["t.k1", "total"]), est_card=3.0, est_cost=2.0,
            )
            return HavingFilter(
                group, [HavingPredicate("total", op, value)], est_card=1.0, est_cost=3.0
            )

        for width in WIDTHS:
            assert run(plan(">=", 3), cat, width) == [(0, 3), (2, 5)]
            assert run(plan("!=", 3), cat, width) == [(2, 5)]  # NULL sum: not kept
            assert run(plan("<", None), cat, width) == []


# ---------------------------------------------------------- NULL operands

NULL_STATEMENTS = [
    "SELECT count(*) FROM big b WHERE b.b {op} ?".format(op=op)
    for op in ("=", "!=", "<", "<=", ">", ">=")
] + [
    "SELECT count(*) FROM big b WHERE b.b BETWEEN ? AND 50",
    "SELECT count(*) FROM big b WHERE b.b BETWEEN 5 AND ?",
    "SELECT count(*) FROM big b WHERE b.c = 1 AND b.b != ?",
    "SELECT b.a FROM big b WHERE b.b >= ? ORDER BY b.a",
    "SELECT count(*) FROM big b WHERE b.b < NULL",
    "SELECT count(*) FROM big b WHERE b.b BETWEEN NULL AND 3",
]


@pytest.fixture(scope="module")
def null_dbs():
    """The same 2,000 rows (a tenth of ``b`` NULL, ``b`` indexed) in the
    engine and in sqlite3, the independent oracle ``bench/oracle.py`` uses."""
    rng = random.Random(17)
    rows = [
        (i, None if i % 10 == 0 else rng.randrange(100), rng.randrange(5))
        for i in range(2000)
    ]
    db = Database()
    db.create_table("big", [("a", "int"), ("b", "int"), ("c", "int")])
    db.insert("big", rows)
    db.create_index("ix_big_b", "big", "b")
    db.runstats()
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE big (a INTEGER, b INTEGER, c INTEGER)")
    lite.executemany("INSERT INTO big VALUES (?, ?, ?)", rows)
    yield db, lite
    lite.close()


class TestNullOperands:
    """A NULL bind parameter (or literal) makes the comparison false for
    every row: at c96f967 ``b != ?`` kept every row and ``b < ?`` escaped
    as a raw ``TypeError``."""

    @pytest.mark.parametrize("sql", NULL_STATEMENTS)
    def test_null_comparisons_match_sqlite(self, null_dbs, sql):
        db, lite = null_dbs
        bind = {"p1": None} if "?" in sql else None
        got = db.execute(sql, params=bind).rows
        want = lite.execute(sql, (None,) if bind else ()).fetchall()
        assert got == want
        assert got in ([(0,)], [])

    @pytest.mark.parametrize("sql", NULL_STATEMENTS[:8])
    def test_non_null_binding_still_matches(self, null_dbs, sql):
        db, lite = null_dbs
        assert db.execute(sql, params={"p1": 40}).rows == lite.execute(sql, (40,)).fetchall()

    @pytest.mark.parametrize(
        "sarg",
        [Comparison(ColumnRef("t", "a"), op, ParameterMarker("p"))
         for op in ("=", "<", "<=", ">", ">=")]
        + [
            Between(ColumnRef("t", "a"), ParameterMarker("p"), Literal(4000)),
            Between(ColumnRef("t", "a"), Literal(10), ParameterMarker("p")),
        ],
        ids=str,
    )
    def test_sarg_mode_index_scan_with_null_bound_returns_nothing(self, sarg):
        """``range_scan`` reads ``None`` as open-ended; the scan must not."""
        plan = IndexScan("t", "t", "ix_a", sarg, [], props("t"), T_LAYOUT,
                         est_card=10.0, est_cost=1.0)
        number_plan(plan)
        ctx = ExecutionContext(exactness_catalog(), params={"p": None})
        assert run_plan(plan, ctx) == []
        bound = ExecutionContext(exactness_catalog(), params={"p": 20})
        assert run_plan(plan, bound) != []


# ----------------------------------------------------- aggregation kernel

AGGREGATES = st.lists(
    st.sampled_from(
        [("count", None)]
        + [(f, c) for f in ("count", "sum", "avg", "min", "max") for c in ("v", "f")]
        + [(f, "s") for f in ("count", "sum", "min", "max")]
    ),
    max_size=6,
)
KEYS = st.sampled_from([(), ("k1",), ("k3",), ("k1", "k2", "k3")])


def group_by(keys, aggregates) -> GroupBy:
    aggs = [
        Aggregate(func, None if name is None else col(name), f"agg{i}")
        for i, (func, name) in enumerate(aggregates)
    ]
    layout = RowLayout([f"t.{k}" for k in keys] + [a.alias for a in aggs])
    return GroupBy(
        scan("t", "t"), [col(k) for k in keys], aggs, props("t"), layout,
        est_card=4.0, est_cost=2.0,
    )


def reference_groups(rows, keys, aggregates):
    layout = layout_of("t")
    return naive_aggregate(
        rows,
        [layout.slot(f"t.{k}") for k in keys],
        [(f, None if name is None else layout.slot(f"t.{name}"))
         for f, name in aggregates],
    )


class TestAggregationKernel:
    @settings(max_examples=150, deadline=None)
    @given(rows=ROWS, keys=KEYS, aggregates=AGGREGATES,
           width=st.sampled_from(WIDTHS))
    def test_matches_the_naive_grouping(self, rows, keys, aggregates, width):
        """Same groups in first-seen order, same values to the last bit
        (sums add in input order), at every width."""
        if not keys and not aggregates:
            aggregates = [("count", None)]
        got = run(group_by(keys, aggregates), catalog_of(t=rows), width)
        assert got == reference_groups(rows, keys, aggregates)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_null_group_and_empty_input(self, width):
        every = [("count", None), ("count", "v"), ("sum", "v"), ("avg", "v"),
                 ("min", "v"), ("max", "v")]
        rows = [(1, 0, "x", None, None, None)] * 3 + [(2, 0, "x", 4, None, None)]
        got = run(group_by(("k1",), every), catalog_of(t=rows), width)
        assert got == [(1, 3, 0, None, None, None, None), (2, 1, 1, 4, 4.0, 4, 4)]
        # Scalar aggregation over no rows: one row; grouped: none.
        empty = catalog_of(t=[])
        assert run(group_by((), every), empty, width) == [(0, 0, None, None, None, None)]
        assert run(group_by(("k1",), every), empty, width) == []


# ------------------------------------------------------------ join kernels


def join(kind, left_rows, right_rows, key_columns, **kwargs):
    cat = catalog_of(l=left_rows, r=right_rows)
    outer, inner = scan("l", "l"), scan("r", "r")
    preds = [
        JoinPredicate(ColumnRef("l", c), ColumnRef("r", c)) for c in key_columns
    ]
    layout = outer.layout.concat(inner.layout)
    cost_desc = ("hash", 2.0, 0.1)
    if kind is MergeJoin:
        keys = lambda alias: [f"{alias}.{c}" for c in key_columns]  # noqa: E731
        outer = Sort(outer, keys("l"), props("l"), est_cost=2.0)
        inner = Sort(inner, keys("r"), props("r"), est_cost=2.0)
        cost_desc = ("merge", 2.0, 0.1, True, True)
    if kind is NLJoin:
        inner = Temp(inner, est_cost=2.0)
        cost_desc = ("rescan", 2.0, 0.1)
    plan = kind(
        outer, inner, preds, props("l", "r"), layout,
        est_card=10.0, est_cost=5.0, cost_desc=cost_desc, **kwargs,
    )
    return cat, plan


def key_slots(key_columns):
    layout = layout_of("l")
    return [layout.slot(f"l.{c}") for c in key_columns]


JOIN_KEYS = st.sampled_from([("k1",), ("k3",), ("k1", "k2", "k3")])


class TestJoinKernels:
    @settings(max_examples=80, deadline=None)
    @given(left=rows_strategy(2, 40), right=rows_strategy(2, 40),
           keys=JOIN_KEYS, width=st.sampled_from(WIDTHS))
    def test_hash_join_matches_nested_loops(self, left, right, keys, width):
        cat, plan = join(HashJoin, left, right, keys)
        slots = key_slots(keys)
        assert run(plan, cat, width) == naive_equi_join(left, right, slots, slots)

    @settings(max_examples=60, deadline=None)
    @given(left=rows_strategy(2, 40), right=rows_strategy(2, 40),
           keys=JOIN_KEYS, width=st.sampled_from(WIDTHS))
    def test_merge_join_matches_nested_loops(self, left, right, keys, width):
        cat, plan = join(MergeJoin, left, right, keys)
        slots = key_slots(keys)
        ascending = [True] * len(slots)
        expected = naive_equi_join(
            naive_sort(left, slots, ascending),
            naive_sort(right, slots, ascending),
            slots, slots,
        )
        assert run(plan, cat, width) == expected

    @settings(max_examples=40, deadline=None)
    @given(left=rows_strategy(2, 25), right=rows_strategy(2, 25),
           keys=JOIN_KEYS, width=st.sampled_from(WIDTHS))
    def test_rescan_nljn_residual_matches_nested_loops(self, left, right, keys, width):
        cat, plan = join(NLJoin, left, right, keys, method="rescan")
        slots = key_slots(keys)
        assert run(plan, cat, width) == naive_equi_join(left, right, slots, slots)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_key_fanning_out_past_the_request(self, width):
        """3,000 build rows share one key: its matches overflow every
        request, so the probe serves the carry across calls — between
        ordinary single-match keys on both sides of it."""
        fan = 3000
        right = [(7, 0, "x", i, None, None) for i in range(fan)]
        right += [(k, 0, "x", -k, None, None) for k in (1, 2, 3)]
        left = [(k, 0, "y", 100 + i, None, None)
                for i, k in enumerate([1, 7, 2, None, 7, 9, 3])]
        cat, plan = join(HashJoin, left, right, ("k1",))
        got = run(plan, cat, width)
        assert len(got) == 2 * fan + 3
        assert got == naive_equi_join(left, right, [0], [0])


# ------------------------------------------------------- index NLJN batches

#: Skewed inner keys: key 0 is hot (its rid list can outgrow any request),
#: NULL keys are never indexed.
SKEWED_KEY = st.one_of(st.just(0), st.just(0), st.integers(1, 5), st.none())


def keyed_rows(tag: str, max_size: int):
    """Lists of every length up to ``max_size`` (not mostly short ones)."""
    row = st.tuples(SKEWED_KEY, nullable(st.integers(0, 2), 2), st.just(tag),
                    st.integers(-9, 9), st.none(), st.none())
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    )


RANGES = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda lh: ValidityRange(float(min(lh)), float(max(lh)))
)


def index_nljn(outer, *, residual=False, inner_filters=()):
    """``l ⋈ r`` on ``k1`` through a correlated index scan of ``r``, plus
    ``l.k2 = r.k2`` as a residual when asked."""
    preds = [JoinPredicate(ColumnRef("l", "k1"), ColumnRef("r", "k1"))]
    if residual:
        preds.append(JoinPredicate(ColumnRef("l", "k2"), ColumnRef("r", "k2")))
    inner = IndexScan(
        "r", "r", "ix_r_k1", None, list(inner_filters), props("r"), layout_of("r"),
        est_card=5.0, est_cost=1.0, correlation=ColumnRef("l", "k1"),
    )
    return NLJoin(
        outer, inner, preds, props("l", "r"), layout_of("l").concat(layout_of("r")),
        est_card=10.0, est_cost=5.0, method="index",
        cost_desc=("index", 1.0, 0.2, 0.1),
    )


def observe_nljn(make_plan, left, right, index_kind: str, width: int,
                 one_outer_row: bool = False, **ctx_args) -> dict:
    """Rows (or the signal's count) and every counter a batched probe
    could move, for one run at ``width``; ``one_outer_row`` pins the NLJN
    to one outer row per probe, the row-at-a-time loop it replaced."""
    cat = catalog_of(l=left, r=right)
    cat.create_index("ix_r_k1", "r", "k1", kind=index_kind)
    plan = make_plan()
    number_plan(plan)
    ctx = ExecutionContext(cat, meter=WorkMeter(), batch_size=width, **ctx_args)
    # A fan past any request makes every probe one key long.
    pin = (
        mock.patch.object(Index, "max_rids_per_key", return_value=sys.maxsize)
        if one_outer_row else contextlib.nullcontext()
    )
    try:
        with pin:
            rows = run_plan(plan, ctx)
    except ReoptimizationSignal as sig:
        rows = f"signal@{sig.check_op.op_id}:{sig.observed}"
    return {
        "rows": rows,
        "units": ctx.meter.units,
        "ops": [
            (op.plan.KIND, op.rows_out, op.eof_seen, getattr(op, "probes", None))
            for op in ctx.operators
        ],
        "events": [
            (e.op_id, e.observed, e.complete, e.triggered, e.units_at_event)
            for e in ctx.checkpoint_events
        ],
    }


def assert_same_run(got: dict, baseline: dict) -> None:
    assert got["rows"] == baseline["rows"]
    assert got["ops"] == baseline["ops"]
    assert got["units"] == pytest.approx(baseline["units"], rel=1e-9)
    assert [e[:4] for e in got["events"]] == [e[:4] for e in baseline["events"]]
    assert [e[4] for e in got["events"]] == pytest.approx(
        [e[4] for e in baseline["events"]], rel=1e-9
    )


class TestIndexNLJoinBatches:
    """The index NLJN pulls ``rows still wanted // fan`` outer rows per
    probe.  At every width nothing observable may differ from one outer row
    per probe — rows, each operator's ``rows_out`` / EOF / probes, the
    meter and every CHECK event, its meter stamp included — and against
    width 1 the rows, the CHECK decisions and (for a run that completes)
    every counter are the same.  Only the stamps of a CHECK *below* the
    join may move with the width, as they always have: the join holds the
    rows of a partial batch, not yet charged as emitted, when they are
    taken."""

    @settings(max_examples=60, deadline=None)
    @given(
        left=keyed_rows("y", 30), right=keyed_rows("x", 40), hot=st.integers(0, 150),
        residual=st.booleans(), filtered=st.booleans(),
        index_kind=st.sampled_from(["hash", "sorted"]),
        outer_kind=st.sampled_from(["scan", "temp_check", "ecdc_check"]),
        outer_range=RANGES,
        top=st.one_of(st.none(), st.integers(0, 90), RANGES),
    )
    def test_batches_change_nothing_observable(
        self, left, right, hot, residual, filtered, index_kind, outer_kind,
        outer_range, top,
    ):
        right = right + [(0, i % 3, "x", i % 19 - 9, None, None) for i in range(hot)]
        inner_filters = (
            [Comparison(ColumnRef("r", "v"), ">", Literal(-5))] if filtered else []
        )

        def make_plan():
            outer = scan("l", "l")
            if outer_kind == "temp_check":
                outer = Check(Temp(outer, est_cost=2.0), outer_range, "LCEM")
            elif outer_kind == "ecdc_check":
                outer = Check(outer, outer_range, "ECDC")
            plan = index_nljn(outer, residual=residual, inner_filters=inner_filters)
            if isinstance(top, int):
                return Return(plan, limit=top)
            if top is not None:
                return Return(Check(plan, top, "ECWC"))
            return Return(plan)

        inner_rows = naive_filter(inner_filters, right, layout_of("r"), {})
        slots = key_slots(("k1", "k2") if residual else ("k1",))
        expected = naive_equi_join(left, inner_rows, slots, slots)
        if isinstance(top, int):
            expected = expected[:top]
        narrow = None
        for width in WIDTHS:
            got = observe_nljn(make_plan, left, right, index_kind, width)
            assert_same_run(got, observe_nljn(
                make_plan, left, right, index_kind, width, one_outer_row=True
            ))
            if narrow is None:
                narrow = got
                if isinstance(got["rows"], list):
                    assert got["rows"] == expected
            assert got["rows"] == narrow["rows"]
            assert [e[:4] for e in got["events"]] == [e[:4] for e in narrow["events"]]
            if isinstance(got["rows"], list) and outer_kind != "ecdc_check":
                assert_same_run(got, narrow)

    def test_empty_index_and_null_outer_keys(self):
        left = [(k, 0, "y", i, None, None) for i, k in enumerate([None, 1, None, 2])]
        for width in WIDTHS:
            run_ = observe_nljn(lambda: Return(index_nljn(scan("l", "l"))),
                                left, [], "sorted", width)
            assert run_["rows"] == []
            assert ("IXSCAN", 0, False, 4) in run_["ops"]

    @pytest.mark.parametrize("flavor, batched", [("ECDC", False), ("LCEM", True)])
    def test_outer_requests_are_one_row_while_a_check_can_fire(
        self, flavor, batched, monkeypatch
    ):
        """An ECDC CHECK on the outer still counts (and stamps the meter)
        as rows stream by, so the outer is pulled one row at a time; a CHECK
        above a TEMP evaluated once at open, so the outer is batched."""
        requests = []
        pull = CheckExec.next_batch

        def recording(self, max_rows):
            requests.append(max_rows)
            return pull(self, max_rows)

        monkeypatch.setattr(CheckExec, "next_batch", recording)
        left = [(i % 5, 0, "y", i, None, None) for i in range(200)]
        right = [(k, 0, "x", k, None, None) for k in range(5)]
        outer = scan("l", "l")
        outer_check = Check(
            Temp(outer, est_cost=2.0) if flavor == "LCEM" else outer,
            ValidityRange(0.0, 1e6), flavor,
        )
        observed = observe_nljn(
            lambda: Return(index_nljn(outer_check)), left, right, "hash", 1024,
        )
        assert len(observed["rows"]) == 200
        if batched:  # fan 1: all 200 rows in the first pull, EOF in the second
            assert requests == [1024, 1024 - 200]
        else:
            assert requests == [1] * 201


# -------------------------------------------------------------- sort kernel


class TestSortKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=ROWS,
        keys=st.lists(
            st.tuples(st.sampled_from(["k1", "k3", "v", "f", "s"]), st.booleans()),
            min_size=1, max_size=3, unique_by=lambda k: k[0],
        ),
        width=st.sampled_from(WIDTHS),
    )
    def test_mixed_directions_with_nulls(self, rows, keys, width):
        """Columns without a NULL sort on the bare value, columns with one
        through the NULL-aware pair: same stable order either way."""
        names = [f"t.{name}" for name, _ in keys]
        ascending = [asc for _, asc in keys]
        plan = Sort(scan("t", "t"), names, props("t"), est_cost=2.0,
                    ascending=ascending)
        layout = layout_of("t")
        expected = naive_sort(rows, [layout.slot(n) for n in names], ascending)
        assert run(plan, catalog_of(t=rows), width) == expected

    @settings(max_examples=40, deadline=None)
    @given(rows=ROWS, columns=st.lists(st.sampled_from(["s", "k1", "f"]),
                                      min_size=1, max_size=3, unique=True),
           width=st.sampled_from(WIDTHS))
    def test_projection(self, rows, columns, width):
        names = [f"t.{c}" for c in columns]
        layout = layout_of("t")
        slots = [layout.slot(n) for n in names]
        got = run(Project(scan("t", "t"), names, est_cost=2.0), catalog_of(t=rows), width)
        assert got == [tuple(row[s] for s in slots) for row in rows]


# ---------------------------------------------------- scanned-row exactness

N_ROWS = 5000
T_LAYOUT = RowLayout(["t.a", "t.b"])


def exactness_catalog() -> Catalog:
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int"), ("b", "int")))
    table.load_raw([(i, (i * 7919) % 1000) for i in range(N_ROWS)])
    cat.create_index("ix_a", "t", "a", kind="sorted")
    return cat


def b_below(bound: int) -> list:
    return [Comparison(ColumnRef("t", "b"), "<", Literal(bound))]


def exact_table_scan(bound: int):
    return TableScan("t", "t", b_below(bound), props("t"), T_LAYOUT,
                     est_card=10.0, est_cost=1.0)


def exact_index_scan(bound: int):
    sarg = Comparison(ColumnRef("t", "a"), ">=", Literal(100))
    return IndexScan("t", "t", "ix_a", sarg, b_below(bound), props("t"), T_LAYOUT,
                     est_card=10.0, est_cost=1.0)


def exact_mv_scan(bound: int):
    return MVScan("__tempmv_1", props("t"), T_LAYOUT, est_card=10.0, est_cost=1.0,
                  filters=b_below(bound))


def observe(plan, width: int) -> dict:
    number_plan(plan)
    cat = exactness_catalog()
    ctx = ExecutionContext(cat, meter=WorkMeter(), batch_size=width)
    ctx.temp_mvs.register(
        tables=frozenset({"t"}), predicate_ids=frozenset(),
        columns=tuple(T_LAYOUT.columns), rows=list(cat.table("t").rows), order=(),
    )
    try:
        rows = len(run_plan(plan, ctx))
    except ReoptimizationSignal as sig:
        rows = f"signal@{sig.observed}"
    return {
        "rows": rows,
        "units": ctx.meter.units,
        "rows_out": [op.rows_out for op in ctx.operators],
        "events": [
            [e.observed, e.complete, e.triggered, e.units_at_event]
            for e in ctx.checkpoint_events
        ],
    }


def exactness_scenarios() -> dict:
    """Each scan kind × filter selectivity 0.001 / 0.5 / 0.999 × width,
    under ``Return(limit=3)`` and under a CHECK whose ``high`` (2 rows) is
    crossed mid-table."""
    out = {}
    for kind, make in (("table", exact_table_scan), ("index", exact_index_scan),
                       ("mv", exact_mv_scan)):
        for bound in (1, 500, 999):
            for width in WIDTHS:
                out[f"{kind}/b<{bound}/limit/{width}"] = observe(
                    Return(make(bound), limit=3), width
                )
                out[f"{kind}/b<{bound}/check/{width}"] = observe(
                    Return(Check(make(bound), ValidityRange(0.0, 2.0), "ECWC")), width
                )
    return out


def test_scanned_row_counts_equal_the_row_at_a_time_loops():
    """Exact equality, floats included: the chunked scans consume the same
    rows per call as the per-row loops they replaced, so every charge is
    the same product added in the same order."""
    assert exactness_scenarios() == json.loads(GOLDEN.read_text())


# ------------------------------------------- the harness reaches operators

KERNEL_SQL = (
    "SELECT c.c_segment, count(*) AS n, sum(o.o_total) AS total "
    "FROM cust c, orders o WHERE o.o_custkey = c.c_id AND o.o_total > 100.0 "
    "GROUP BY c.c_segment ORDER BY c.c_segment"
)


@pytest.mark.parametrize("width", WIDTHS)
def test_profiles_still_partition_the_meter(width):
    """The profiler wraps each operator's ``next_batch``; kernels run
    inside it, so self units still add up to the attempt's meter delta."""
    from repro.core.config import PopConfig

    db = build_star_db()
    result = db.execute(KERNEL_SQL, pop=PopConfig(batch_size=width), profile=True)
    for attempt in result.report.attempts:
        records = list(attempt.record.walk())
        assert {r.kind for r in records} >= {"GRPBY", "SORT", "TBSCAN"}
        assert all(r.profile.calls > 0 for r in records)
        total = sum(r.profile.self_units for r in records)
        assert total == pytest.approx(attempt.execution_units, rel=1e-9)


# ------------------------------------------- buffers freed by refcount


@pytest.fixture
def operator_refs(monkeypatch):
    """Weak references to every operator built while the fixture is live,
    with the cycle collector off: what dies, dies by reference count."""
    refs: list[weakref.ref] = []
    register = ExecutionContext.register

    def recording(self, op):
        refs.append(weakref.ref(op))
        register(self, op)

    monkeypatch.setattr(ExecutionContext, "register", recording)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


SORT_SQL = "SELECT c.c_id, c.c_segment FROM cust c ORDER BY c.c_segment"
JOIN_SORT_SQL = (
    "SELECT c.c_segment, o.o_total FROM cust c, orders o "
    "WHERE o.o_custkey = c.c_id ORDER BY o.o_total, c.c_segment"
)


class TestBuffersFreedByRefcount:
    def alive(self, refs) -> list:
        return [type(ref()).__name__ for ref in refs if ref() is not None]

    def test_completed_attempt(self, operator_refs):
        db = build_star_db()
        result = db.execute(SORT_SQL)
        assert len(result.rows) == 1200 and operator_refs
        assert self.alive(operator_refs) == []

    def test_reoptimized_attempts(self, operator_refs):
        db = build_star_db()
        result = db.execute(marker_query(), params={"p": "COMMON"})
        assert result.report.reoptimizations == 1
        assert len(operator_refs) > 4  # two attempts' trees
        assert self.alive(operator_refs) == []

    def test_failed_attempt(self, operator_refs):
        """Cancelled mid-build: the error's traceback ran through the
        operators' frames, and they still die — even while it is held."""
        db = build_star_db()
        with pytest.raises(ExecutionCancelled) as excinfo:
            db.execute(JOIN_SORT_SQL, cancel=CountdownToken(5))
        assert operator_refs and self.alive(operator_refs) == []
        assert excinfo.value.__traceback__ is not None  # still debuggable


def test_holds_is_the_semantics_the_docstring_promises():
    """The reference itself: a comparison with NULL is false on either side."""
    layout = layout_of("t")
    row = (1, None, "x", 5, 1.0, "ab")
    assert holds(Comparison(col("v"), "!=", Literal(4)), row, layout, {})
    assert not holds(Comparison(col("v"), "!=", Literal(None)), row, layout, {})
    assert not holds(Comparison(col("k2"), "=", Literal(1)), row, layout, {})
    assert not holds(Between(col("v"), Literal(None), Literal(9)), row, layout, {})
    assert not holds(InList(col("k2"), (None,)), row, layout, {})
