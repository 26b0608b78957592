"""Deterministic scaled TPC-H-style data generator.

``scale_factor=0.01`` (the default) produces roughly 60k lineitem rows —
large enough that join-method choices have the paper's cost structure
(index NLJN wins for small outers, hash join for large ones, sort spills are
reachable), small enough that the full benchmark suite runs in minutes.
Relative table sizes, key ranges and foreign-key fan-outs follow the TPC-H
specification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.rng import WeightedChooser, zipf_weights
from repro.common.values import date_to_days
from repro.core.database import Database
from repro.workloads.tpch import schema as s


def date_string(rng: random.Random, start_year: int, end_year: int) -> str:
    """A uniform ISO date between Jan 1 of start_year and Dec 28 of end_year."""
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


@dataclass(frozen=True)
class TpchScale:
    """Row counts derived from the scale factor."""

    supplier: int
    customer: int
    part: int
    orders: int

    @classmethod
    def of(cls, scale_factor: float) -> "TpchScale":
        return cls(
            supplier=max(10, int(10_000 * scale_factor)),
            customer=max(50, int(150_000 * scale_factor)),
            part=max(50, int(200_000 * scale_factor)),
            orders=max(100, int(1_500_000 * scale_factor)),
        )


def generate_tpch(
    scale_factor: float = 0.01, seed: int = 42
) -> dict[str, list[tuple]]:
    """Generate all eight tables as lists of pre-coerced tuples."""
    rng = random.Random(seed)
    scale = TpchScale.of(scale_factor)
    data: dict[str, list[tuple]] = {}

    data["region"] = [(i, name) for i, name in enumerate(s.REGIONS)]
    data["nation"] = [
        (i, f"NATION{i:02d}", i % len(s.REGIONS)) for i in range(25)
    ]
    data["supplier"] = [
        (
            i,
            f"Supplier#{i:09d}",
            rng.randrange(25),
            round(rng.uniform(-999.99, 9999.99), 2),
        )
        for i in range(scale.supplier)
    ]
    data["customer"] = [
        (
            i,
            f"Customer#{i:09d}",
            rng.randrange(25),
            rng.choice(s.SEGMENTS),
            round(rng.uniform(-999.99, 9999.99), 2),
        )
        for i in range(scale.customer)
    ]
    parts = []
    for i in range(scale.part):
        name = " ".join(rng.sample(s.PART_NAME_WORDS, 3))
        ptype = (
            f"{rng.choice(s.PART_TYPE_ADJ)} "
            f"{rng.choice(s.PART_TYPE_FIN)} "
            f"{rng.choice(s.PART_TYPE_MAT)}"
        )
        parts.append(
            (
                i,
                name,
                f"Manufacturer#{rng.randint(1, 5)}",
                f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}",
                ptype,
                rng.randint(1, 50),
                round(900 + i % 1000 + rng.uniform(0, 100), 2),
            )
        )
    data["part"] = parts
    partsupp = []
    for i in range(scale.part):
        for j in range(4):
            partsupp.append(
                (
                    i,
                    (i + j * (scale.supplier // 4 + 1)) % scale.supplier,
                    round(rng.uniform(1.0, 1000.0), 2),
                    rng.randint(1, 9999),
                )
            )
    data["partsupp"] = partsupp

    shipmode_chooser = WeightedChooser(
        s.shipmodes(), zipf_weights(s.SHIPMODE_COUNT, s.SHIPMODE_SKEW)
    )
    orders = []
    lineitems = []
    for i in range(scale.orders):
        odate = date_to_days(date_string(rng, 1992, 1998))
        orders.append(
            (
                i,
                rng.randrange(scale.customer),
                rng.choice(s.ORDER_STATUS),
                round(rng.uniform(1000.0, 450_000.0), 2),
                odate,
                rng.choice(s.PRIORITIES),
            )
        )
        for _ in range(rng.randint(1, 7)):
            ship = odate + rng.randint(1, 121)
            commit = odate + rng.randint(30, 90)
            receipt = ship + rng.randint(1, 30)
            lineitems.append(
                (
                    i,
                    rng.randrange(scale.part),
                    rng.randrange(scale.supplier),
                    rng.randint(1, 50),
                    round(rng.uniform(900.0, 104_000.0), 2),
                    round(rng.uniform(0.0, 0.1), 2),
                    rng.choice(s.RETURN_FLAGS),
                    ship,
                    commit,
                    receipt,
                    shipmode_chooser.choose(rng),
                )
            )
    data["orders"] = orders
    data["lineitem"] = lineitems
    return data


def load_tpch(
    db: Database, scale_factor: float = 0.01, seed: int = 42
) -> dict[str, int]:
    """Create the TPC-H schema in ``db``, load data, build indexes, RUNSTATS.

    Returns the per-table row counts.
    """
    data = generate_tpch(scale_factor, seed)
    for table, columns in s.TPCH_TABLES.items():
        db.create_table(table, columns)
        db.catalog.table(table).load_raw(data[table])
    for name, table, column, kind in s.TPCH_INDEXES:
        db.create_index(name, table, column, kind)
    db.runstats()
    return {table: len(rows) for table, rows in data.items()}


def make_tpch_db(scale_factor: float = 0.01, seed: int = 42, **db_kwargs) -> Database:
    """Convenience: a fresh database pre-loaded with TPC-H data."""
    db = Database(**db_kwargs)
    load_tpch(db, scale_factor, seed)
    return db
