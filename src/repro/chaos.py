"""``python -m repro.chaos``: every chaos scenario behind one command line.

Ten ``(seed) -> ScenarioOutcome`` runners, each checked against clean
oracles and audited for leaks (:mod:`repro.common.chaosutil`):

* ``faults``, ``stampede``, ``memory`` — seeded ``stats`` and governed
  ``mem_shrink`` fault injection, a cold plan-cache stampede, concurrent
  spilling under an undersized governor budget
  (:mod:`repro.resilience.chaos`);
* ``disconnect``, ``slowloris``, ``malformed``, ``overload``,
  ``killspill`` — connection chaos against a live server
  (:mod:`repro.server.chaos`);
* ``crash``, ``snapshot`` — kill-crash recovery and snapshot isolation
  (:mod:`repro.txn.chaos`).

Exit status is 1 if any run fails (CI's six chaos steps are all this
command)::

    python -m repro.chaos --scenario faults stampede memory --seeds 1 2 --quiet
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.common.chaosutil import scenario_main
from repro.resilience import fault_campaign, run_memory, run_stampede
from repro.server import chaos as server_chaos
from repro.txn import chaos as txn_chaos


def scenarios() -> dict:
    """The registry, fresh per run: the fault campaign's workload databases
    are shared by the seeds of one run, never across runs."""
    return {
        "faults": fault_campaign(),
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
