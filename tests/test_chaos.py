"""The one chaos command: ``python -m repro.chaos``.

The scenarios themselves are tested beside the layer each one attacks
(``test_server``, ``test_txn``, ``test_memory_governor``); seeded faults are
an axis of ``test_matrix``.  This file pins the registry and the command
line around them.
"""

from __future__ import annotations

import pytest

from repro.chaos import main, scenarios
from repro.common.chaosutil import ScenarioOutcome, scenario_main


def test_registry_holds_exactly_the_nine_scenarios():
    assert list(scenarios()) == [
        "stampede", "memory",
        "disconnect", "slowloris", "malformed", "overload", "killspill",
        "crash", "snapshot",
    ]


def test_unknown_scenario_exits_with_status_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "nope", "--seeds", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_failed_run_is_named_with_its_problems(capsys):
    """Even under ``--quiet`` a failed run prints its line and problems."""
    runners = {"odd": lambda seed: ScenarioOutcome("odd", seed, False, ["rows diverge"])}
    assert scenario_main(runners, ["--seeds", "1", "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] odd seed=1" in out and "- rows diverge" in out
    assert "chaos: 0/1 scenario runs ok" in out
