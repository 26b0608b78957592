"""Shared fixtures: small hand-made databases and scaled-down workloads."""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.workloads.dmv.generator import DmvScale, make_dmv_db
from repro.workloads.tpch.generator import make_tpch_db


@pytest.fixture
def db() -> Database:
    """An empty database."""
    return Database()


def build_star_db() -> Database:
    """A small two-table star: customers and orders with skewed status.

    Sized so that join-method choices are non-trivial: the optimizer picks
    index NLJN for small outers and hash join for large ones.
    """
    database = Database()
    database.create_table(
        "cust", [("c_id", "int"), ("c_segment", "str"), ("c_nation", "int")]
    )
    database.create_table(
        "orders", [("o_id", "int"), ("o_custkey", "int"), ("o_total", "float")]
    )
    rng = random.Random(11)

    def segment() -> str:
        r = rng.random()
        if r < 0.85:
            return "COMMON"
        if r < 0.97:
            return "MID"
        return "RARE"

    database.insert(
        "cust", [(i, segment(), rng.randrange(25)) for i in range(1200)]
    )
    database.insert(
        "orders",
        [
            (i, rng.randrange(1200), round(rng.uniform(10.0, 500.0), 2))
            for i in range(12000)
        ],
    )
    database.create_index("ix_cust_id", "cust", "c_id")
    database.create_index("ix_orders_cust", "orders", "o_custkey")
    database.runstats()
    return database


@pytest.fixture
def star_db() -> Database:
    """:func:`build_star_db`, fresh per test."""
    return build_star_db()


def build_tpch_db() -> Database:
    """A tiny deterministic TPC-H database."""
    return make_tpch_db(scale_factor=0.002, seed=42)


def build_dmv_db() -> Database:
    """A tiny deterministic DMV database."""
    scale = DmvScale(
        owners=1500,
        cars=2000,
        accidents=500,
        violations=700,
        insurance=2000,
        dealers=120,
        inspections=1300,
        registrations=2000,
    )
    return make_dmv_db(scale=scale, seed=7)


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """:func:`build_tpch_db`, shared across the session."""
    return build_tpch_db()


@pytest.fixture(scope="session")
def dmv_db() -> Database:
    """:func:`build_dmv_db`, shared across the session."""
    return build_dmv_db()


def pull_all(op, width=None):
    """Drain an opened operator to EOF; ``width`` rows per pull (the
    context's batch size by default)."""
    width = op.ctx.batch_size if width is None else width
    rows = []
    while (batch := op.next_batch(width)) is not None:
        rows.extend(batch)
    return rows


def canonical(rows):
    """Order-insensitive, float-tolerant canonical form of a result set."""
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )
