"""Tests for the file-backed spill layer and the spilling operators.

Covers the :mod:`repro.storage.spill` lifecycle (batched writes, restartable
reads, charged I/O, cleanup on success and abort), and the degraded modes of
SORT (external merge), TEMP (file-backed overflow), and hash join (Grace
partitioning with recursion and block nested-loop fallback).
"""

from __future__ import annotations

import heapq
import os
import sqlite3
import tempfile
import zlib
from itertools import chain, count
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.common.chaosutil import spill_dirs
from repro.common.errors import ExecutionError
from repro.core.config import MemoryPolicy, PopConfig
from repro.executor import sort as sort_module
from repro.executor.base import ExecutionContext
from repro.executor.joins import _key_hashes, _route
from repro.executor.meter import WorkMeter
from repro.executor.runtime import build_executor, run_plan
from repro.executor.sort import _composite_key, _merge_blocks
from repro.expr.evaluate import RowLayout
from repro.expr.predicates import JoinPredicate
from repro.expr.expressions import ColumnRef
from repro.plan.analyze import explain_analyze
from repro.plan.physical import HashJoin, Sort, TableScan, Temp
from repro.plan.properties import PlanProperties
from repro.storage.catalog import Catalog
from repro.storage.spill import BATCH_ROWS, SpillFile, SpillManager
from repro.storage.table import Schema
from repro.workloads.dmv.generator import make_dmv_db
from tests.conftest import pull_all


def make_catalog(rows):
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int"), ("b", "str")))
    table.load_raw(rows)
    return cat


def scan_plan(est_card=10):
    return TableScan(
        "t", "t", [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a", "t.b"]),
        est_card=est_card, est_cost=1,
    )


def drain(op):
    op.open()
    return pull_all(op)


def spill_policy(**overrides):
    """A policy whose grants squeeze easily in unit tests."""
    defaults = dict(
        budget_pages=512.0,
        min_reservation_pages=1.0,
        min_grant_pages=1.0,
        spill_partitions=4,
        max_recursion_depth=2,
    )
    defaults.update(overrides)
    return MemoryPolicy(**defaults)


class SqueezedContext(ExecutionContext):
    """A context whose every grant is capped at ``factor`` of the request,
    as if each ran under a reservation that size."""

    def __init__(self, *args, factor, **kwargs):
        super().__init__(*args, **kwargs)
        self.factor = factor

    def grant_pages(self, pages, category):
        self.reservation = SimpleNamespace(pages=pages * self.factor)
        return super().grant_pages(pages, category)


def squeezed_ctx(cat, factor, policy=None, **kwargs):
    """A context whose every grant is scaled down by ``factor``."""
    return SqueezedContext(
        cat,
        factor=factor,
        meter=WorkMeter(track_categories=True),
        memory=policy if policy is not None else spill_policy(),
        **kwargs,
    )


class TripAfterFirstSpill:
    """Duck-typed cancel token that trips once ``ctx`` wrote a spill file."""

    reason = "tripped after the first spill file"

    def __init__(self):
        self.ctx = None

    @property
    def cancelled(self):
        summary = self.ctx.spill_summary()
        return bool(summary and summary["files"])


class TestSpillFile:
    def manager(self):
        return SpillManager(WorkMeter(track_categories=True), _params())

    def test_roundtrip_preserves_order_across_batches(self):
        mgr = self.manager()
        rows = [(i, f"v{i}") for i in range(2 * BATCH_ROWS + 37)]
        spill = mgr.spill_rows("sort", rows, "run-0")
        assert list(spill.rows()) == rows
        # Restartable: a second pass returns the same rows again.
        assert list(spill.rows()) == rows
        mgr.close_all()

    def test_row_count_includes_pending_batch(self):
        mgr = self.manager()
        spill = mgr.create("hash", "part-0")
        for i in range(5):  # well under BATCH_ROWS: nothing flushed yet
            spill.append((i,))
        assert spill.rows_written == 0
        assert spill.row_count == 5
        assert list(spill.rows()) == [(i,) for i in range(5)]
        assert spill.rows_written == 5
        mgr.close_all()

    def test_io_charged_to_spill_category(self):
        mgr = self.manager()
        rows = [(i,) for i in range(BATCH_ROWS)]
        spill = mgr.spill_rows("sort", rows)
        written = mgr.meter.by_category().get("spill", 0.0)
        assert written > 0.0
        list(spill.rows())
        assert mgr.meter.by_category()["spill"] > written  # reads charge too
        mgr.close_all()

    def test_write_after_close_and_read_after_delete_raise(self):
        mgr = self.manager()
        spill = mgr.spill_rows("temp", [(1,)])
        spill.close()
        with pytest.raises(ExecutionError):
            spill.append((2,))
        spill.delete()
        with pytest.raises(ExecutionError):
            list(spill.rows())
        mgr.close_all()

    def test_delete_discards_pending_without_charging(self):
        mgr = self.manager()
        spill = mgr.create("hash")
        for i in range(7):
            spill.append((i,))
        before = mgr.meter.by_category().get("spill", 0.0)
        spill.delete()
        assert mgr.meter.by_category().get("spill", 0.0) == before
        assert not os.path.exists(spill.path)
        mgr.close_all()

    @pytest.mark.parametrize(
        "size", [1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 3 * BATCH_ROWS + 7]
    )
    def test_append_batch_partial_final_batches(self, size):
        """The pending-batch accounting audit: after every append_batch
        call — including batches that land exactly on, just under, and
        just over the flush boundary — ``row_count`` and ``rows_written``
        must agree with a row-at-a-time writer at the same point."""
        mgr = self.manager()
        batched = mgr.create("temp", "batched")
        rowwise = mgr.create("temp", "rowwise")
        rows = [(i, f"v{i}") for i in range(size)]
        batched.append_batch(rows)
        for row in rows:
            rowwise.append(row)
        assert batched.row_count == rowwise.row_count == size
        assert batched.rows_written == rowwise.rows_written
        assert list(batched.rows()) == list(rowwise.rows()) == rows
        # Reading flushed the remainder; totals still agree.
        assert batched.rows_written == rowwise.rows_written == size
        mgr.close_all()

    def test_append_batch_interleaves_with_append(self):
        """Mixed per-row and batched writes into one file preserve order
        and counts."""
        mgr = self.manager()
        spill = mgr.create("temp")
        expect = []
        for i in range(BATCH_ROWS - 3):
            spill.append((i,))
            expect.append((i,))
        tail = [(i,) for i in range(BATCH_ROWS - 3, BATCH_ROWS + 5)]
        spill.append_batch(tail)  # straddles the flush boundary
        expect.extend(tail)
        assert spill.row_count == len(expect)
        assert spill.rows_written == BATCH_ROWS  # exactly one chunk flushed
        assert list(spill.rows()) == expect
        mgr.close_all()

    def test_append_batch_matches_append_flush_points(self):
        """Charged spill I/O accrues at identical points: after any prefix
        of equal-sized writes, both writers have flushed the same chunks
        and charged the same pages."""
        mgr_a, mgr_b = self.manager(), self.manager()
        batched = mgr_a.create("sort")
        rowwise = mgr_b.create("sort")
        chunk = [(i,) for i in range(97)]
        for _ in range(12):
            batched.append_batch(chunk)
            for row in chunk:
                rowwise.append(row)
            assert batched.rows_written == rowwise.rows_written
            assert batched.row_count == rowwise.row_count
            assert (
                mgr_a.meter.by_category().get("spill", 0.0)
                == mgr_b.meter.by_category().get("spill", 0.0)
            )
        mgr_a.close_all()
        mgr_b.close_all()

    def test_append_batch_empty_is_noop(self):
        mgr = self.manager()
        spill = mgr.create("temp")
        spill.append_batch([])
        assert spill.row_count == 0
        assert list(spill.rows()) == []
        mgr.close_all()

    def test_append_batch_after_close_raises(self):
        mgr = self.manager()
        spill = mgr.spill_rows("temp", [(1,)])
        spill.close()
        with pytest.raises(ExecutionError):
            spill.append_batch([(2,)])
        mgr.close_all()

    def test_close_all_deletes_files_and_keeps_stats(self):
        mgr = self.manager()
        spill = mgr.spill_rows("sort", [(i,) for i in range(BATCH_ROWS)])
        path = spill.path
        parent = os.path.dirname(path)
        assert os.path.exists(path)
        mgr.close_all()
        mgr.close_all()  # idempotent
        assert not os.path.exists(path)
        assert not os.path.exists(parent)
        summary = mgr.summary()
        assert summary["files"] == 1
        assert summary["rows"] == BATCH_ROWS
        assert summary["categories"] == {"sort": pytest.approx(BATCH_ROWS / 64.0)}
        with pytest.raises(ExecutionError):
            mgr.create("sort")


class TestExternalSort:
    def rows(self, n=900):
        # Duplicate keys plus NULLs: the cases where external-merge order
        # could diverge from the in-memory stable sort.
        return [
            (i % 13 if i % 37 else None, f"s{i % 7}") for i in range(n)
        ]

    def sort_plan(self, child, ascending=(True, False)):
        return Sort(
            child, ("t.a", "t.b"),
            child.properties.with_order(("t.a", "t.b")), 5,
            ascending=ascending,
        )

    @pytest.mark.parametrize("ascending", [(True, True), (True, False), (False, True)])
    def test_spilled_sort_matches_in_memory_order_exactly(self, ascending):
        cat = make_catalog(self.rows())
        plan = self.sort_plan(scan_plan(900), ascending)
        oracle = drain(build_executor(plan, ExecutionContext(cat)))
        ctx = squeezed_ctx(cat, 1 / 64.0)  # capacity: 2 pages = 128 rows
        got = drain(build_executor(plan, ctx))
        assert got == oracle  # exact order, not just multiset
        op = ctx.operators[-1]
        assert op.spilled
        assert op.materialized_rows is None  # spilled runs are not MV fodder
        assert ctx.meter.by_category()["spill"] > 0.0
        ctx.release_spill()

    def test_fitting_input_stays_in_memory(self):
        cat = make_catalog([(3, "x"), (1, "y"), (2, "z")])
        plan = self.sort_plan(scan_plan(3))
        ctx = squeezed_ctx(cat, 1 / 64.0)
        rows = drain(build_executor(plan, ctx))
        assert [r[0] for r in rows] == [1, 2, 3]
        op = ctx.operators[-1]
        assert not op.spilled
        assert op.materialized_rows is not None


#: Sort-column values: NULL, and few distinct values, so ties abound.
_sort_values = st.one_of(st.none(), st.integers(0, 3))


class TestBlockMerge:
    """The external sort's block-wise k-way merge is ``heapq.merge``."""

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.tuples(_sort_values, _sort_values), max_size=25),
            max_size=6,
        ),
        ascending=st.lists(st.booleans(), min_size=1, max_size=2),
        block=st.integers(1, 7),
    )
    def test_equals_heapq_merge_including_ties(self, runs, ascending, block):
        key = _composite_key(list(range(len(ascending))), ascending)
        # A tag outside the key makes the order of tied rows visible.
        tags = count()
        runs = [
            sorted((row + (next(tags),) for row in run), key=key) for run in runs
        ]
        blocks = [
            [run[i:i + block] for i in range(0, len(run), block)] for run in runs
        ]
        got = list(chain.from_iterable(_merge_blocks(blocks, key)))
        assert got == list(heapq.merge(*runs, key=key))


class TestExternalSortDifferential:
    """The external sort sorts its runs with the in-memory sort's passes
    and merges on the bare key columns where no NULL key was seen and
    every key ascends: its output equals the in-memory sort row for row,
    and its charges and spill files equal those of runs sorted and merged
    on the composite key."""

    #: Key values: few, so ties abound, with ints and floats that tie.
    VALUES = [0, 1, 1.0, 1.5, 2, 2.0, 3]
    #: Rows per run: one page under a 1/128 squeeze of the sort grant.
    CAPACITY = 64

    def plan(self, rows, ascending):
        cat = Catalog()
        table = cat.create_table(
            "t", Schema.of(("a", "float"), ("b", "float"), ("c", "int"))
        )
        table.load_raw(rows)
        scan = TableScan(
            "t", "t", [], PlanProperties(frozenset({"t"}), frozenset()),
            RowLayout(["t.a", "t.b", "t.c"]), est_card=len(rows), est_cost=1,
        )
        plan = Sort(
            scan, ("t.a", "t.b"), scan.properties.with_order(("t.a", "t.b")), 5,
            ascending=ascending,
        )
        return cat, plan

    def spilled(self, cat, plan):
        ctx = squeezed_ctx(cat, 1 / 128.0)
        rows = run_plan(plan, ctx)
        return rows, ctx.meter.by_category(), ctx.spill_summary()

    @settings(max_examples=60, deadline=None)
    @given(
        n_runs=st.integers(3, 5),
        last_run=st.integers(1, CAPACITY),
        nulls=st.sampled_from([None, "first", "last"]),
        ascending=st.tuples(st.booleans(), st.booleans()),
        data=st.data(),
    )
    def test_equals_in_memory_sort_and_composite_key_runs(
        self, n_runs, last_run, nulls, ascending, data
    ):
        n = (n_runs - 1) * self.CAPACITY + last_run
        null_rows = {
            None: range(0),
            "first": range(self.CAPACITY),
            "last": range(n - last_run, n),
        }[nulls]
        value = st.sampled_from(self.VALUES)
        keys = data.draw(st.lists(st.tuples(value, value), min_size=n, max_size=n))
        # ``c`` makes the order of ties visible.
        rows = [(a, b, i) for i, (a, b) in enumerate(keys)]
        if null_rows:
            for i in data.draw(st.lists(st.sampled_from(null_rows), min_size=1)):
                column = data.draw(st.integers(0, 1))
                rows[i] = rows[i][:column] + (None,) + rows[i][column + 1:]
        cat, plan = self.plan(rows, ascending)
        oracle = run_plan(plan, ExecutionContext(cat))
        got, units, summary = self.spilled(cat, plan)

        def composite_sort(rows, slots, ascending):
            rows.sort(key=_composite_key(slots, ascending))
            return True  # as if a NULL was seen: merge on the composite key

        with mock.patch.object(sort_module, "_sort_in_place", composite_sort):
            expect, expect_units, expect_summary = self.spilled(cat, plan)
        assert summary["files"] == n_runs
        assert list(map(repr, got)) == list(map(repr, oracle))
        assert list(map(repr, expect)) == list(map(repr, oracle))
        assert units == expect_units
        assert summary == expect_summary


class TestSpillingTemp:
    def test_overflow_survives_rescans(self):
        rows = [(i, f"v{i}") for i in range(700)]
        cat = make_catalog(rows)
        child = scan_plan(700)
        plan = Temp(child, 5)
        ctx = squeezed_ctx(cat, 1 / 64.0)  # 128-row memory prefix
        op = build_executor(plan, ctx)
        first = drain(op)
        assert first == rows
        assert op.spilled
        assert op.materialized_rows is None
        for _ in range(2):  # NLJN-rescan usage pattern
            op.reset()
            assert pull_all(op) == rows
        ctx.release_spill()


def _params():
    from repro.optimizer.costmodel import DEFAULT_COST_PARAMS

    return DEFAULT_COST_PARAMS


def join_catalog(n_build=1500, n_probe=300):
    cat = Catalog()
    build = cat.create_table("b", Schema.of(("bk", "int"), ("bv", "str")))
    build.load_raw([(i % 97, f"b{i}") for i in range(n_build)])
    probe = cat.create_table("p", Schema.of(("pk", "int"), ("pv", "str")))
    probe.load_raw([(i % 113, f"p{i}") for i in range(n_probe)])
    return cat


def join_plan(n_build=1500, n_probe=300):
    outer = TableScan(
        "p", "p", [], PlanProperties(frozenset({"p"}), frozenset()),
        RowLayout(["p.pk", "p.pv"]), est_card=n_probe, est_cost=1,
    )
    inner = TableScan(
        "b", "b", [], PlanProperties(frozenset({"b"}), frozenset()),
        RowLayout(["b.bk", "b.bv"]), est_card=n_build, est_cost=1,
    )
    pred = JoinPredicate(ColumnRef("p", "pk"), ColumnRef("b", "bk"))
    props = PlanProperties(frozenset({"p", "b"}), frozenset())
    return HashJoin(
        outer, inner, (pred,), props, 5, est_card=n_probe, est_cost=1,
        cost_desc=("hash", 2.0, 1 / n_build),
    )


class TestGraceHashJoin:
    def test_small_partitions_survive_pending_batches(self):
        # Regression: probe partitions smaller than one pickle batch used to
        # look empty (rows still buffered) and were deleted outright.
        cat = join_catalog(n_build=1500, n_probe=60)
        plan = join_plan(1500, 60)
        oracle = sorted(drain(build_executor(plan, ExecutionContext(cat))))
        ctx = squeezed_ctx(cat, 1 / 64.0)
        got = sorted(drain(build_executor(plan, ctx)))
        assert got == oracle
        assert ctx.operators[-1].spilled
        ctx.release_spill()

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_recursion_and_block_fallback_match_oracle(self, depth):
        cat = join_catalog()
        plan = join_plan()
        oracle = sorted(drain(build_executor(plan, ExecutionContext(cat))))
        ctx = squeezed_ctx(
            cat, 1 / 64.0, policy=spill_policy(max_recursion_depth=depth)
        )
        got = sorted(drain(build_executor(plan, ctx)))
        assert got == oracle
        ctx.release_spill()

    def test_fitting_build_stays_in_memory(self):
        cat = join_catalog(n_build=50, n_probe=50)
        plan = join_plan(50, 50)
        ctx = squeezed_ctx(cat, 1 / 64.0)
        oracle = sorted(drain(build_executor(plan, ExecutionContext(cat))))
        assert sorted(drain(build_executor(plan, ctx))) == oracle
        assert not ctx.operators[-1].spilled

    def test_bytes_spilled_is_the_sum_over_files(self):
        ctx = squeezed_ctx(join_catalog(), 1 / 64.0)
        run_plan(join_plan(), ctx)
        files = ctx.spill._files
        assert len(files) > 8  # partitioned, then re-partitioned
        assert ctx.spill.bytes_spilled == sum(f.bytes_written for f in files) > 0
        assert ctx.spill_summary()["bytes"] == ctx.spill.bytes_spilled

    def test_mem_squeeze_join_splits_without_block_fallback(self):
        """The DMV car/owner join under the ``mem_squeeze`` policy: each
        depth's partitions split, so the join stops by depth 2 with no
        block nested-loop chunk, and EXPLAIN ANALYZE says so."""
        db = make_dmv_db()
        db.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=16, min_reservation_pages=1, min_grant_pages=1
            )
        )
        result = db.execute(
            "SELECT o.o_name, c.c_model FROM car c, owner o "
            "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model",
            profile=True,
        )
        (join,) = [
            r for r in result.report.attempts[-1].record.walk() if r.kind == "HSJOIN"
        ]
        extras = join.profile.extras
        assert extras["spilled"]
        assert 1 <= extras["grace_depth"] <= 2
        assert extras["block_chunks"] == 0
        assert f"grace_depth={extras['grace_depth']} block_chunks=0" in (
            explain_analyze(result.report)
        )

    def test_policy_rejects_more_digits_than_the_hash_has(self):
        MemoryPolicy(spill_partitions=16, max_recursion_depth=7)  # 16**8 == 2**32
        with pytest.raises(ValueError, match="2\\*\\*32"):
            MemoryPolicy(spill_partitions=16, max_recursion_depth=8)


class _ListPart:
    """A partition stub for :func:`_route`."""

    def __init__(self):
        self.rows = []

    def append_batch(self, rows):
        self.rows.extend(rows)


class TestGracePartitioning:
    """Each recursion depth splits what the depths before it shared."""

    @settings(max_examples=5, deadline=None)
    @given(kind=st.sampled_from(["int", "str"]), start=st.integers(0, 10**6))
    def test_every_depth_splits_a_shared_partition(self, kind, start):
        policy = MemoryPolicy()  # fan-out 8, depth cap 3, as under mem_squeeze
        fanout = policy.spill_partitions
        for depth in range(policy.max_recursion_depth + 1):
            candidates = count(start) if kind == "int" else (
                f"key-{i}" for i in count(start)
            )
            # At least 1,000 keys routed to one partition by every depth
            # before this one: the digits below ``depth`` agree.
            shared = fanout**depth
            keys: list = []
            target = None
            while len(keys) < 1000:
                chunk = [next(candidates) for _ in range(4096)]
                for key, digest in zip(chunk, _key_hashes(chunk)):
                    if target is None:
                        target = digest % shared
                    if digest % shared == target:
                        keys.append(key)
            parts = [_ListPart() for _ in range(fanout)]
            _route(keys, keys, depth, parts)
            sizes = [len(part.rows) for part in parts]
            assert sum(sizes) == len(keys)
            assert max(sizes) <= 2 * len(keys) / fanout, (depth, sizes)


#: Bare join keys whose digests are pinned: ints, strings, and floats
#: that are not integral (an integral float hashes as its int).
_bare_keys = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.floats().filter(lambda f: not f.is_integer()),
)


class TestKeyHash:
    """``_key_hashes`` is ``crc32`` over the key's 1-tuple repr (a tuple
    key's own repr), and keys that compare equal share a digest."""

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.one_of(
            st.lists(_bare_keys, max_size=20),
            st.lists(st.tuples(_bare_keys, _bare_keys), max_size=20),
        )
    )
    def test_digest_is_crc32_of_the_tuple_repr(self, keys):
        want = [
            zlib.crc32(repr(key if type(key) is tuple else (key,)).encode())
            for key in keys
        ]
        assert list(_key_hashes(keys)) == want

    @settings(max_examples=200, deadline=None)
    @given(
        ints=st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=10),
        others=st.lists(st.one_of(_bare_keys, st.floats()), max_size=10),
        pair_with=st.one_of(st.none(), st.text(max_size=3)),
    )
    def test_equal_int_and_float_keys_share_a_digest(self, ints, others, pair_with):
        keys = ints + [float(i) for i in ints] + others
        if pair_with is not None:
            keys = [(k, pair_with) for k in keys] + [(pair_with, k) for k in keys]
        digests = list(_key_hashes(keys))
        for key, digest in zip(keys, digests):
            assert list(_key_hashes([key])) == [digest]  # batch-independent
        for a, da in zip(keys, digests):
            for b, db in zip(keys, digests):
                if a == b:
                    assert da == db, (a, b)


class TestMixedNumericJoinKeys:
    """An INT = FLOAT equi-join returns the same rows spilled as in memory
    and as sqlite3: ``5`` and ``5.0`` match in the build table, so the
    Grace partitioner must send them to one partition."""

    N = 2000
    STATEMENTS = [
        "SELECT a.x, b.y FROM a, b WHERE a.x = b.y",
        "SELECT a.x, a.u, b.y, b.v FROM a, b WHERE a.x = b.y AND a.u = b.v",
    ]

    @pytest.fixture(scope="class")
    def dbs(self):
        a = [(i, float(i % 7)) for i in range(self.N)]
        b = [(i + (0.5 if i % 5 == 0 else 0.0), i % 7) for i in range(self.N)]

        def load():
            db = Database()
            db.create_table("a", [("x", "int"), ("u", "float")])
            db.create_table("b", [("y", "float"), ("v", "int")])
            db.insert("a", a)
            db.insert("b", b)
            db.runstats()
            return db

        governed = load()
        governed.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=16, min_reservation_pages=1, min_grant_pages=1
            )
        )
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE a (x, u)")
        lite.execute("CREATE TABLE b (y, v)")
        lite.executemany("INSERT INTO a VALUES (?, ?)", a)
        lite.executemany("INSERT INTO b VALUES (?, ?)", b)
        yield load(), governed, lite
        lite.close()

    @pytest.mark.parametrize("width", [1, 7, 1024])
    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_spilled_join_matches_in_memory_and_sqlite(self, dbs, sql, width):
        db, governed, lite = dbs
        pop = PopConfig(batch_size=width)
        want = sorted(lite.execute(sql).fetchall())
        assert len(want) == self.N * 4 // 5
        assert sorted(db.execute(sql, pop=pop).rows) == want
        result = governed.execute(sql, pop=pop)
        assert result.report.spilled
        assert sorted(result.rows) == want


class TestSpillLifecycle:
    def test_run_plan_releases_spill_on_success(self):
        cat = make_catalog([(i, "x") for i in range(600)])
        child = scan_plan(600)
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        ctx = squeezed_ctx(cat, 1 / 64.0)
        before = spill_dirs()
        rows = run_plan(plan, ctx)
        assert len(rows) == 600
        summary = ctx.spill_summary()
        assert summary is not None and summary["files"] > 0
        assert ctx.spill.released
        assert spill_dirs() - before == set()

    def test_run_plan_releases_spill_on_abort(self):
        cat = make_catalog([(i, "x") for i in range(600)])
        child = scan_plan(600)
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        # The token trips once the sort spilled its first run: the next
        # batch the scan emits unwinds the build mid-way.
        token = TripAfterFirstSpill()
        ctx = token.ctx = squeezed_ctx(cat, 1 / 64.0, cancel=token)
        from repro.common.errors import ExecutionCancelled

        before = spill_dirs()
        with pytest.raises(ExecutionCancelled):
            run_plan(plan, ctx)
        assert ctx.spill.released
        assert spill_dirs() - before == set()
        summary = ctx.spill_summary()
        assert summary is not None and summary["files"] > 0  # stats survive

    def test_audit_sees_only_this_process(self):
        """Spill dirs carry the pid, and a ``repro-spill-*`` dir another
        process makes while this one is audited is not reported as a
        leak."""
        from repro.common.chaosutil import Baseline

        baseline = Baseline()
        mgr = SpillManager(WorkMeter(track_categories=True), _params())
        spill = mgr.create("sort", "run-0")
        own = os.path.basename(os.path.dirname(spill.path))
        assert own.startswith(f"repro-spill-{os.getpid()}-")
        assert own in spill_dirs()
        foreign = tempfile.mkdtemp(prefix=f"repro-spill-{os.getpid() + 1}-")
        try:
            assert os.path.basename(foreign) not in spill_dirs()
            mgr.close_all()
            problems: list = []
            baseline.audit(problems)
            assert problems == []
            # The audit still catches a leak of this process's own.
            mgr = SpillManager(WorkMeter(track_categories=True), _params())
            mgr.create("sort", "run-1")
            baseline.audit(problems)
            assert [p for p in problems if "leaked spill dirs" in p]
        finally:
            mgr.close_all()
            os.rmdir(foreign)


class TestDegradedWidthInvariance:
    """Spilling operators must produce the same rows *and* the same
    metered spill I/O at every batch width as at width 1, where every pull
    is demand-exact — batch writes keep the per-row flush boundaries
    (``SpillFile.append_batch``), so the charge streams line up exactly."""

    BATCH_SIZES = [7, 64, 1024]

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_spilled_sort_width_invariant(self, batch_size):
        cat = make_catalog([((i * 131) % 900, f"v{i}") for i in range(900)])
        child = scan_plan(900)
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        narrow_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=1)
        expect = run_plan(plan, narrow_ctx)
        wide_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=batch_size)
        got = run_plan(plan, wide_ctx)
        assert got == expect  # exact order through the k-way merge
        assert wide_ctx.meter.by_category()["spill"] == pytest.approx(
            narrow_ctx.meter.by_category()["spill"]
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_temp_overflow_width_invariant(self, batch_size):
        rows = [(i, f"v{i}") for i in range(700)]
        cat = make_catalog(rows)
        plan = Temp(scan_plan(700), 5)
        narrow_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=1)
        expect = run_plan(plan, narrow_ctx)
        wide_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=batch_size)
        got = run_plan(plan, wide_ctx)
        assert got == expect == rows
        assert wide_ctx.meter.by_category()["spill"] == pytest.approx(
            narrow_ctx.meter.by_category()["spill"]
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_grace_hash_join_width_invariant(self, batch_size):
        cat = join_catalog()
        plan = join_plan()
        narrow_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=1)
        expect = run_plan(plan, narrow_ctx)
        wide_ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=batch_size)
        got = run_plan(plan, wide_ctx)
        assert got == expect  # identical partition visit order, too
        assert wide_ctx.meter.by_category()["spill"] == pytest.approx(
            narrow_ctx.meter.by_category()["spill"]
        )
        assert wide_ctx.meter.units == pytest.approx(narrow_ctx.meter.units)

    @pytest.mark.parametrize("batch_size", [1] + BATCH_SIZES)
    def test_grace_hash_join_charges_match_per_row_appends(
        self, batch_size, monkeypatch
    ):
        """Batch-at-a-time partition writes change no charge: rows, every
        partition file's ``rows_written`` and ``bytes_written`` (one pickle
        per flushed chunk) and the metered spill I/O equal those of the
        same join writing each row with ``append``.  Its
        depth-0 partitions outgrow ``BATCH_ROWS``, so writes straddle the
        flush boundary."""
        cat = join_catalog(n_build=6000, n_probe=3000)
        plan = join_plan(6000, 3000)

        def run():
            ctx = squeezed_ctx(cat, 1 / 64.0, batch_size=batch_size)
            rows = run_plan(plan, ctx)
            files = [
                (f.label, f.rows_written, f.bytes_written) for f in ctx.spill._files
            ]
            return rows, files, ctx.meter.by_category()["spill"]

        got = run()
        with monkeypatch.context() as patch:
            patch.setattr(
                SpillFile, "append_batch",
                lambda self, rows: [self.append(row) for row in rows] and None,
            )
            expect = run()
        assert got[0] == expect[0]
        assert got[1] == expect[1]
        assert any(label.count(".") for label, _, _ in got[1])  # it recursed
        assert got[2] == expect[2]
