"""Set-up: generate a dataset, load it into the engine and into the oracle.

The three loaders mirror ``load_tpch`` / ``load_dmv`` / the ``big`` table of
``benchmarks/bench_vectorized.py`` step by step (same tables, same indexes,
same RUNSTATS arguments) instead of calling them, so that data generation,
load and RUNSTATS can be timed apart and the generated rows can be handed to
sqlite without generating them twice.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro import Database
from repro.workloads.dmv import schema as dmv_schema
from repro.workloads.dmv.generator import DmvScale, generate_dmv
from repro.workloads.tpch import schema as tpch_schema
from repro.workloads.tpch.generator import generate_tpch

from bench.oracle import Oracle

#: Fixed data seeds and scales (stated in the output and the README).
TPCH_SEED, TPCH_SCALE, TPCH_SMOKE_SCALE = 42, 0.01, 0.002
DMV_SEED = 7
DMV_SMOKE_SCALE = DmvScale(
    owners=1200, cars=1600, accidents=400, violations=600,
    insurance=1600, dealers=80, inspections=900, registrations=1600,
)
BIG_ROWS, BIG_SMOKE_ROWS = 80_000, 8_000
BIG_TABLES = {"big": [("a", "int"), ("b", "int"), ("c", "float")]}


@dataclass
class Dataset:
    """A loaded engine database, its sqlite twin, and what set-up cost."""

    db: Database
    oracle: Oracle
    #: Seconds per set-up phase: datagen, load, runstats, oracle_load.
    phases: dict

    def close(self) -> None:
        self.db.close()
        self.oracle.close()


def _load(tables, indexes, runstats_args, generate) -> Dataset:
    t0 = time.perf_counter()
    data = generate()
    t1 = time.perf_counter()
    db = Database()
    for table, columns in tables.items():
        db.create_table(table, columns)
        db.load_raw(table, data[table])
    for name, table, column, kind in indexes:
        db.create_index(name, table, column, kind)
    t2 = time.perf_counter()
    db.runstats(**runstats_args)
    t3 = time.perf_counter()
    oracle = Oracle()
    for table, columns in tables.items():
        oracle.load(table, columns, data[table])
    for name, table, column, _kind in indexes:
        oracle.index(name, table, column)
    t4 = time.perf_counter()
    phases = {
        "datagen": t1 - t0, "load": t2 - t1,
        "runstats": t3 - t2, "oracle_load": t4 - t3,
    }
    return Dataset(db, oracle, phases)


def load_tpch(smoke: bool) -> Dataset:
    scale = TPCH_SMOKE_SCALE if smoke else TPCH_SCALE
    return _load(
        tpch_schema.TPCH_TABLES, tpch_schema.TPCH_INDEXES, {},
        lambda: generate_tpch(scale, TPCH_SEED),
    )


def load_dmv(smoke: bool) -> Dataset:
    scale = DMV_SMOKE_SCALE if smoke else None
    return _load(
        dmv_schema.DMV_TABLES, dmv_schema.DMV_INDEXES,
        # load_dmv's coarse statistics: what lets correlation errors through.
        {"num_buckets": 8, "num_mcvs": 2},
        lambda: generate_dmv(scale, DMV_SEED),
    )


def load_big(seed: int, smoke: bool) -> Dataset:
    n = BIG_SMOKE_ROWS if smoke else BIG_ROWS

    def generate():
        rng = random.Random(seed)
        return {
            "big": [
                (i, rng.randrange(1000), round(rng.random() * 100.0, 4))
                for i in range(n)
            ]
        }

    return _load(BIG_TABLES, [], {}, generate)
