"""``python -m repro.server`` — run a standalone server.

Loads a deterministic demo workload (DMV by default, TPC-H with
``--workload tpch``), optionally enables the memory governor, binds, and
serves until SIGTERM/SIGINT, then drains gracefully: stop accepting, let
in-flight statements finish within the drain budget, cancel stragglers,
join every thread.

Example::

    python -m repro.server --port 7543 --budget-pages 128 &
    # ... connect with repro.server.client.ReproClient ...
    kill -TERM %1   # graceful drain
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Optional

from repro.server.server import ReproServer, ServerConfig


def _build_db(workload: str, scale: float):
    if workload == "tpch":
        from repro.workloads.tpch.generator import make_tpch_db

        return make_tpch_db(scale_factor=scale, seed=42)
    from repro.workloads.dmv.generator import make_dmv_db

    return make_dmv_db(seed=7)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workload", choices=("dmv", "tpch"), default="dmv")
    parser.add_argument("--scale", type=float, default=0.005,
                        help="TPC-H scale factor (tpch workload only)")
    parser.add_argument("--max-sessions", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--statement-timeout", type=float, default=30.0,
                        help="per-statement wall deadline in seconds; 0 disables")
    parser.add_argument("--idle-timeout", type=float, default=60.0)
    parser.add_argument("--budget-pages", type=float, default=None,
                        help="enable the memory governor with this budget")
    args = parser.parse_args(argv)

    db = _build_db(args.workload, args.scale)
    if args.budget_pages is not None:
        db.enable_memory_governor(budget_pages=args.budget_pages)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        workers=args.workers,
        statement_timeout_seconds=(
            args.statement_timeout if args.statement_timeout > 0 else None
        ),
        idle_timeout_seconds=args.idle_timeout,
    )
    stop = threading.Event()

    def _request_stop(_signum, _frame):
        stop.set()

    # Before the listening line: a caller may signal as soon as it reads it.
    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    server = ReproServer(db, config)
    host, port = server.start()
    print(f"repro server listening on {host}:{port} "
          f"(workload={args.workload})", flush=True)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        print("draining...", flush=True)
        server.shutdown(drain=True)
        print("stopped.", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
