"""Property tests for the executor's batch protocol (hypothesis-driven).

Three invariants that must hold for *every* batch size, not just the sizes
the differential streams happen to use.  The baseline is width 1, where
every pull asks for exactly one row and nothing can be over-pulled:

* **batch-size invariance** — the rows a plan produces (values and order)
  do not depend on ``batch_size``;
* **CHECK-boundary exactness** — an upper-bound violation is detected at
  exactly the same observed cardinality as at width 1: the first row
  count strictly above the range's high bound, never late by partial
  batches (CheckExec caps its child request at the crossing row);
* **meter identity** — the WorkMeter total and every per-category subtotal
  equal the width-1 charges up to float-summation round-off, because
  every operator charges exactly ``n ×`` the per-row amounts.

These run at the executor layer (build plan → ``run_plan``) so the
properties are about the operators themselves, with no optimizer noise.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.expr.evaluate import RowLayout
from repro.plan.physical import (
    Check,
    Distinct,
    Return,
    Sort,
    TableScan,
    Temp,
    number_plan,
)
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog
from repro.storage.table import Schema

BATCH_SIZES = st.integers(min_value=2, max_value=257) | st.just(1024)


def make_catalog(n_rows: int) -> Catalog:
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int"), ("b", "int")))
    # Deterministic but non-monotone values; b repeats so DISTINCT and
    # SORT both do real work.
    table.load_raw([((i * 37) % n_rows if n_rows else 0, i % 7) for i in range(n_rows)])
    return cat


def scan_plan(card: float = 10.0) -> TableScan:
    return TableScan(
        "t",
        "t",
        [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a", "t.b"]),
        est_card=card,
        est_cost=1.0,
    )


def execute(plan_factory, cat, batch_size):
    """Build a fresh plan, run it, and return (rows, signal, meter)."""
    plan = plan_factory()
    number_plan(plan)
    meter = WorkMeter(track_categories=True)
    ctx = ExecutionContext(cat, meter=meter, batch_size=batch_size)
    signal = None
    try:
        rows = run_plan(plan, ctx)
    except ReoptimizationSignal as sig:
        signal = sig
        rows = None
    return rows, signal, meter


def assert_meter_identity(wide_meter, narrow_meter):
    assert wide_meter.units == pytest.approx(
        narrow_meter.units, rel=1e-9, abs=1e-9
    )
    narrow_cats = narrow_meter.by_category()
    wide_cats = wide_meter.by_category()
    assert set(wide_cats) == set(narrow_cats)
    for category, units in narrow_cats.items():
        assert wide_cats[category] == pytest.approx(
            units, rel=1e-9, abs=1e-9
        ), category


class TestBatchSizeInvariance:
    @settings(max_examples=40, deadline=None)
    @given(n_rows=st.integers(min_value=0, max_value=400), batch_size=BATCH_SIZES)
    def test_pipeline_rows_identical(self, n_rows, batch_size):
        """SORT ∘ DISTINCT ∘ TEMP ∘ scan: blocking drains, streamed serves,
        and duplicate-elimination filtering all preserve rows and order."""
        cat = make_catalog(n_rows)

        props = PlanProperties(frozenset({"t"}), frozenset())

        def factory():
            temp = Temp(scan_plan(float(max(n_rows, 1))), est_cost=2.0)
            distinct = Distinct(
                temp, props, est_card=float(max(n_rows, 1)), est_cost=3.0
            )
            return Sort(distinct, ["t.a", "t.b"], props, est_cost=4.0)

        narrow_rows, narrow_sig, narrow_meter = execute(factory, cat, 1)
        wide_rows, wide_sig, wide_meter = execute(factory, cat, batch_size)
        assert narrow_sig is None and wide_sig is None
        assert wide_rows == narrow_rows
        assert_meter_identity(wide_meter, narrow_meter)

    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=400),
        limit=st.integers(min_value=0, max_value=450),
        batch_size=BATCH_SIZES,
    )
    def test_limit_rows_identical(self, n_rows, limit, batch_size):
        """RETURN caps its child demand at the remaining limit, so early
        termination consumes the same child prefix at every width."""
        cat = make_catalog(n_rows)

        def factory():
            return Return(scan_plan(float(max(n_rows, 1))), limit=limit)

        narrow_rows, _, narrow_meter = execute(factory, cat, 1)
        wide_rows, _, wide_meter = execute(factory, cat, batch_size)
        assert wide_rows == narrow_rows
        assert len(wide_rows) == min(n_rows, limit)
        assert_meter_identity(wide_meter, narrow_meter)


class TestCheckBoundaryExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=300),
        high=st.one_of(
            st.integers(min_value=0, max_value=320).map(float),
            st.floats(
                min_value=0.0,
                max_value=320.0,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        low=st.integers(min_value=0, max_value=5).map(float),
        batch_size=BATCH_SIZES,
    )
    def test_trigger_decision_and_count_are_width_invariant(
        self, n_rows, high, low, batch_size
    ):
        cat = make_catalog(n_rows)

        def factory():
            return Check(
                scan_plan(float(max(n_rows, 1))),
                ValidityRange(low, max(low, high)),
                "LC",
            )

        narrow_rows, narrow_sig, narrow_meter = execute(factory, cat, 1)
        wide_rows, wide_sig, wide_meter = execute(factory, cat, batch_size)
        assert (wide_sig is None) == (narrow_sig is None)
        if narrow_sig is not None:
            assert wide_sig.observed == narrow_sig.observed
            assert wide_sig.complete == narrow_sig.complete
            if not narrow_sig.complete:
                # Detected exactly at the crossing row, not a batch later.
                assert narrow_sig.observed == math.floor(max(low, high)) + 1
        else:
            assert wide_rows == narrow_rows
        assert_meter_identity(wide_meter, narrow_meter)

    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=300),
        batch_size=BATCH_SIZES,
    )
    def test_check_over_temp_fires_at_open_identically(
        self, n_rows, batch_size
    ):
        """The materialization-point optimization (exact count at open)
        is width-independent."""
        cat = make_catalog(n_rows)
        high = max(0, n_rows - 1)

        def factory():
            return Check(
                Temp(scan_plan(float(n_rows)), est_cost=2.0),
                ValidityRange(0, high),
                "LC",
            )

        _, narrow_sig, narrow_meter = execute(factory, cat, 1)
        _, wide_sig, wide_meter = execute(factory, cat, batch_size)
        assert narrow_sig is not None and wide_sig is not None
        assert wide_sig.observed == narrow_sig.observed == n_rows
        assert wide_sig.complete and narrow_sig.complete
        assert_meter_identity(wide_meter, narrow_meter)
