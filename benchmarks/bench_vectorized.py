"""Cross-engine micro-benchmark for the executor's batch protocol.

Times the same scan-heavy statements on identical data:

* **width 1** — every ``next_batch`` pull carries one row: the operator
  call chain is paid per row, as in a tuple-at-a-time volcano loop;
* **width 1024** — the shipped default: one call chain per *batch*, with
  per-plan compiled kernels (scan loop, aggregation fold, sort keys) and
  bulk meter charges doing the per-row work;
* **sqlite3** — the stdlib C engine on the same rows, as an external
  yardstick for where a Python interpreter loop stands.

The acceptance gate covers all four statements: width 1024 must process
**at least 2x the rows/sec of width 1**.  (The aggregation- and
sort-dominated ones were reported ungated while aggregation ran row at a
time inside the operator, whatever the width; their folds are batch
kernels now.)  Run with ``-s`` to see the rows/sec of each engine.
"""

from __future__ import annotations

import random
import sqlite3
import time

from repro import Database
from repro.core.config import PopConfig

N_ROWS = 80_000
SEED = 2004
REPS = 2
NARROW, WIDE = 1, 1024
#: The gate: every statement must at least double width-1 throughput at
#: the shipped width.
MIN_SPEEDUP = 2.0

STATEMENTS = [
    ("filter_project", "SELECT b.a, b.b FROM big b WHERE b.b < 500"),
    ("wide_scan", "SELECT b.a FROM big b WHERE b.b < 990"),
    (
        "scan_aggregate",
        "SELECT count(*) AS n, sum(b.c) AS s FROM big b WHERE b.b < 500",
    ),
    (
        "topk",
        "SELECT b.a, b.b FROM big b WHERE b.b < 200 "
        "ORDER BY b.a LIMIT 100",
    ),
]

SQLITE_SQL = {
    "filter_project": "SELECT a, b FROM big WHERE b < 500",
    "wide_scan": "SELECT a FROM big WHERE b < 990",
    "scan_aggregate": "SELECT count(*), sum(c) FROM big WHERE b < 500",
    "topk": "SELECT a, b FROM big WHERE b < 200 ORDER BY a LIMIT 100",
}


def make_rows() -> list[tuple]:
    rng = random.Random(SEED)
    return [
        (i, rng.randrange(1000), round(rng.random() * 100.0, 4))
        for i in range(N_ROWS)
    ]


def make_db(rows) -> Database:
    db = Database()
    db.create_table("big", [("a", "int"), ("b", "int"), ("c", "float")])
    db.insert("big", rows)
    db.runstats()
    return db


def make_sqlite(rows) -> sqlite3.Connection:
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE big (a INTEGER, b INTEGER, c REAL)")
    con.executemany("INSERT INTO big VALUES (?, ?, ?)", rows)
    return con


def rows_per_sec(elapsed: float) -> float:
    """Throughput in *input* rows scanned per second — the statements all
    scan the full table, so this is comparable across output shapes."""
    return N_ROWS / elapsed if elapsed > 0 else float("inf")


def time_engine(db: Database, sql: str, config: PopConfig):
    result = db.execute(sql, pop=config)  # warm (plans, stats)
    t0 = time.perf_counter()
    for _ in range(REPS):
        result = db.execute(sql, pop=config)
    return (time.perf_counter() - t0) / REPS, result.rows


def time_sqlite(con: sqlite3.Connection, sql: str):
    out = con.execute(sql).fetchall()  # warm
    t0 = time.perf_counter()
    for _ in range(REPS):
        out = con.execute(sql).fetchall()
    return (time.perf_counter() - t0) / REPS, out


def test_vectorized_throughput():
    rows = make_rows()
    db = make_db(rows)
    con = make_sqlite(rows)

    speedups = {}
    for name, sql in STATEMENTS:
        narrow_time, narrow_rows = time_engine(db, sql, PopConfig(batch_size=NARROW))
        wide_time, wide_rows = time_engine(db, sql, PopConfig(batch_size=WIDE))
        assert wide_rows == narrow_rows, f"{name}: width changed the result"
        sqlite_time, _ = time_sqlite(con, SQLITE_SQL[name])
        speedups[name] = narrow_time / wide_time
        print(
            f"{name}: width {NARROW} {rows_per_sec(narrow_time):,.0f} rows/s, "
            f"width {WIDE} {rows_per_sec(wide_time):,.0f}, "
            f"sqlite3 {rows_per_sec(sqlite_time):,.0f}"
        )

    for name, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: width {WIDE} is only {speedup:.2f}x "
            f"width {NARROW} (gate: {MIN_SPEEDUP}x)"
        )
