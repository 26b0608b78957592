"""The repo benchmark: five fixed workloads, wall-clock end-to-end metrics,
and a per-layer traced pass from parser to wire.

Run from the repository root::

    python3 -m bench                       # all five workloads + traced pass
    python3 -m bench --workload scan_agg   # one workload, one process
    python3 -m bench --smoke               # cut-down sizes, under 20 s
    python3 -m bench --compare A.json B.json

See ``bench/README.md`` for the workloads, the metrics and their bounds.
"""
