"""``python -m repro.chaos``: every chaos scenario behind one command line.

Nine ``(seed) -> ScenarioOutcome`` runners, each checked against clean
oracles and audited for leaks (:mod:`repro.common.chaosutil`):

* ``stampede``, ``memory`` — a cold plan-cache stampede, concurrent
  spilling under an undersized governor budget
  (:mod:`repro.resilience.chaos`);
* ``disconnect``, ``slowloris``, ``malformed``, ``overload``,
  ``killspill`` — connection chaos against a live server
  (:mod:`repro.server.chaos`);
* ``crash``, ``snapshot`` — kill-crash recovery and snapshot isolation
  (:mod:`repro.txn.chaos`).

Seeded ``stats`` and ``mem_shrink`` faults are an axis of the cross-feature
matrix (``tests/test_matrix.py``), not a scenario.  Exit status is 1 if any
run fails (every CI chaos step is this command)::

    python -m repro.chaos --scenario stampede memory --seeds 1 2 --quiet
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.common.chaosutil import scenario_main
from repro.resilience import run_memory, run_stampede
from repro.server import chaos as server_chaos
from repro.txn import chaos as txn_chaos


def scenarios() -> dict:
    """The registry: scenario name to runner."""
    return {
        "stampede": run_stampede,
        "memory": run_memory,
        "disconnect": server_chaos.run_disconnect,
        "slowloris": server_chaos.run_slowloris,
        "malformed": server_chaos.run_malformed,
        "overload": server_chaos.run_overload,
        "killspill": server_chaos.run_killspill,
        "crash": txn_chaos.run_crash,
        "snapshot": txn_chaos.run_snapshot,
    }


def main(argv: Optional[list] = None) -> int:
    return scenario_main(scenarios(), argv)


if __name__ == "__main__":
    sys.exit(main())
