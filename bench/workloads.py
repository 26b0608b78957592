"""The five fixed workloads: what runs, on which data, with which settings.

Each in-process workload is a fixed statement list replayed in whole rounds
(closed loop, one client: the next statement starts when the previous one
returned).  ``server_mix`` is a closed-loop socket reader beside an
open-loop in-process writer; see :mod:`bench.server_mix`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.config import MemoryPolicy, PopConfig
from repro.workloads.dmv import schema as dmv_schema
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES

from bench import data

PLAN_HEAVY_QUERIES = ("Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10")

#: The four statements of benchmarks/bench_vectorized.py plus a grouped
#: aggregate and a full sort.
SCAN_AGG_STATEMENTS = [
    ("filter_project", "SELECT b.a, b.b FROM big b WHERE b.b < 500"),
    ("wide_scan", "SELECT b.a FROM big b WHERE b.b < 990"),
    ("scan_aggregate",
     "SELECT count(*) AS n, sum(b.c) AS s FROM big b WHERE b.b < 500"),
    ("topk",
     "SELECT b.a, b.b FROM big b WHERE b.b < 200 ORDER BY b.a LIMIT 100"),
    ("group_aggregate",
     "SELECT b.b, count(*) AS n, sum(b.c) AS s FROM big b GROUP BY b.b"),
    ("full_sort", "SELECT b.a, b.c FROM big b ORDER BY b.c"),
]

#: The four statements of benchmarks/bench_spill.py.
MEM_SQUEEZE_STATEMENTS = [
    ("sort_cars",
     "SELECT c.c_id, c.c_make, c.c_weight FROM car c "
     "ORDER BY c.c_weight, c.c_id"),
    ("sort_owners",
     "SELECT o.o_id, o.o_name, o.o_zip FROM owner o "
     "ORDER BY o.o_zip, o.o_name, o.o_id"),
    ("join_car_owner",
     "SELECT o.o_name, c.c_model FROM car c, owner o "
     "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model"),
    ("sort_insurance",
     "SELECT i.i_id, i.i_premium FROM insurance i "
     "ORDER BY i.i_premium, i.i_id"),
]
MEM_SQUEEZE_POLICY = MemoryPolicy(
    budget_pages=16, min_reservation_pages=1, min_grant_pages=1
)

#: The three DMV templates of benchmarks/bench_plan_cache.py.
SERVER_MIX_TEMPLATES = [
    "SELECT o.o_id, o.o_name FROM car c, owner o "
    "WHERE c.c_owner_id = o.o_id AND c.c_make = '{make}' "
    "AND c.c_model = '{model}'",
    "SELECT count(*) AS accidents FROM car c, accident a "
    "WHERE a.a_car_id = c.c_id AND c.c_make = '{make}' "
    "AND c.c_color = '{color}'",
    "SELECT v.v_type, count(*) AS n FROM car c, violation v "
    "WHERE v.v_car_id = c.c_id AND c.c_make = '{make}' "
    "GROUP BY v.v_type ORDER BY v.v_type",
]
#: Reads drawn per run; the reader cycles through them until time is up.
SERVER_MIX_READS = 2500


@dataclass(frozen=True)
class InProcess:
    """A workload replayed through ``Database.execute`` in this process."""

    name: str
    load: Callable[[int, bool], data.Dataset]
    statements: list
    config: PopConfig
    #: Governor policy the workload runs under, if any.
    memory: Optional[MemoryPolicy] = None

    @property
    def static_config(self) -> PopConfig:
        """The paper's baseline: same settings, POP off."""
        return replace(self.config, enabled=False)


def in_process_workloads(smoke: bool = False) -> dict[str, InProcess]:
    """The four in-process workloads.  ``smoke`` shortens the two lists whose
    cost is optimizer time, which smaller data does not cut."""
    # PopConfig() is built here, after REPRO_BATCH_SIZE is set, and not at
    # import: its batch width is read from the environment at construction.
    default = PopConfig()
    tpch = ("Q2", "Q3", "Q10") if smoke else PLAN_HEAVY_QUERIES
    dmv = dmv_queries()[:13] if smoke else dmv_queries()
    return {
        w.name: w for w in (
            InProcess(
                "plan_heavy", lambda seed, smoke: data.load_tpch(smoke),
                [(q, TPCH_QUERIES[q]) for q in tpch], default,
            ),
            InProcess("scan_agg", data.load_big, SCAN_AGG_STATEMENTS, default),
            InProcess(
                "dmv_reopt", lambda seed, smoke: data.load_dmv(smoke),
                dmv, default,
            ),
            InProcess(
                "mem_squeeze", lambda seed, smoke: data.load_dmv(smoke),
                MEM_SQUEEZE_STATEMENTS, replace(default, reuse_policy="never"),
                MEM_SQUEEZE_POLICY,
            ),
        )
    }


def server_mix_reads(seed: int) -> tuple[list[str], dict[str, tuple]]:
    """The read list, ``SERVER_MIX_READS`` statements drawn by ``seed``, and
    each statement's class: its (template, make) pair.

    The list is made of balanced rounds: every (template, make) pair twice,
    in a seeded order, with a seeded model and colour.  A statement's cost
    is set by its template and its make's popularity; drawing template and
    make independently, as bench_plan_cache.py does, moved each cost level's
    share of the reads by a point or two from seed to seed and the
    throughput with it.  Balanced rounds keep the mix fixed and leave order
    and parameters to the seed; every one of the 138 distinct statements
    still occurs.
    """
    rng = random.Random(seed)
    pairs = [
        (template, make)
        for template in range(len(SERVER_MIX_TEMPLATES)) for make in range(6)
    ] * 2
    reads, classes = [], {}
    while len(reads) < SERVER_MIX_READS:
        rng.shuffle(pairs)
        for template, make in pairs:
            sql = SERVER_MIX_TEMPLATES[template].format(
                make=dmv_schema.MAKES[make],
                model=dmv_schema.model_name(
                    make, rng.randrange(dmv_schema.MODELS_PER_MAKE)
                ),
                color=rng.choice(dmv_schema.COLORS),
            )
            reads.append(sql)
            classes[sql] = (template, make)
    return reads[:SERVER_MIX_READS], classes
