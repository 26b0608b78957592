"""§7 exploration — local checking in partitioned execution.

Not a paper figure: the paper defers parallel POP to future work, sketching
"local checking": between global synchronization points, each node may
re-optimize its own partial plan.  This bench partitions the TPC-H LINEITEM
table (the side carrying the misestimated marker predicate), runs the Q10
variant per fragment, and compares:

* partitioned + local POP (each fragment re-optimizes independently),
* partitioned without POP (static fragments),
* unpartitioned POP (the global baseline).
"""

from __future__ import annotations

from repro.core.config import NO_POP, PopConfig
from repro.parallel import PartitionedExecutor
from repro.workloads.tpch.queries import Q10_MARKER

PARTITIONS = 4


def measure(inputs):
    tpch = inputs.tpch
    executor = PartitionedExecutor(tpch, partitions=PARTITIONS)
    rows = []
    for mode, note in [("MODE00", "55% selectivity"), ("MODE27", "0.1%")]:
        params = {"p1": mode}
        local = executor.run(
            Q10_MARKER, "lineitem", params=params, pop=PopConfig()
        )
        static = executor.run(Q10_MARKER, "lineitem", params=params, pop=NO_POP)
        unpartitioned = tpch.execute(Q10_MARKER, params=params, pop=PopConfig())
        rows.append(
            {
                "bind": f"{mode} ({note})",
                "local_pop": local.total_units,
                "local_reopts": local.local_reoptimizations,
                "distinct_plans": local.distinct_final_plans,
                "static": static.total_units,
                "global_pop": unpartitioned.report.total_units,
            }
        )
    return rows


def headline(rows):
    # Local checking lets each fragment adapt to its own data without
    # global counter synchronization; misestimated binds re-optimize per
    # fragment and beat the static fragments.
    high = rows[0]
    return {
        "fragments": len(high["local_reopts"]),
        "high_local_reopts": sum(high["local_reopts"]),
        "high_distinct_plans": high["distinct_plans"],
        "high_local_pop": high["local_pop"],
        "high_static": high["static"],
        "high_static_vs_local": high["static"] / high["local_pop"],
    }


def test_parallel_local_checking(paper):
    h = paper["parallel_local_checking"]["headline"]
    # The misestimated bind: local POP beats static fragments.
    assert h["high_local_pop"] < h["high_static"]
    # And the fragments genuinely re-optimized locally.
    assert h["high_local_reopts"] >= 1
