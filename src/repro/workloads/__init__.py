"""The two paper workloads: TPC-H-style (§6) and the DMV case study (§6.2)."""


def small_workload_databases(which: str):
    """(label, database, [(name, sql)]) triples for ``which`` of ``"tpch"``,
    ``"dmv"`` or ``"all"``.

    The tiny deterministic scales the test suite uses: fast enough for a CI
    gate (the chaos campaign, the plan linter) while exercising every query
    shape.
    """
    out = []
    if which in ("tpch", "all"):
        from repro.workloads.tpch.generator import make_tpch_db
        from repro.workloads.tpch.queries import TPCH_QUERIES

        out.append(
            ("tpch", make_tpch_db(scale_factor=0.002, seed=42),
             list(TPCH_QUERIES.items()))
        )
    if which in ("dmv", "all"):
        from repro.workloads.dmv.generator import DmvScale, make_dmv_db
        from repro.workloads.dmv.queries import dmv_queries

        scale = DmvScale(
            owners=1500, cars=2000, accidents=500, violations=700,
            insurance=2000, dealers=120, inspections=1300, registrations=2000,
        )
        out.append(("dmv", make_dmv_db(scale=scale, seed=7), dmv_queries(7)))
    return out
