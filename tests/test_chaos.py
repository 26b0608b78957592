"""The one chaos command: ``python -m repro.chaos``.

The scenarios themselves are tested beside the layer each one attacks
(``test_resilience``, ``test_server``, ``test_txn``, ``test_memory_governor``);
this file pins the registry and the command line around them.
"""

from __future__ import annotations

import pytest

from repro.chaos import main, scenarios


def test_registry_holds_exactly_the_ten_scenarios():
    assert list(scenarios()) == [
        "faults", "stampede", "memory",
        "disconnect", "slowloris", "malformed", "overload", "killspill",
        "crash", "snapshot",
    ]


def test_unknown_scenario_exits_with_status_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "nope", "--seeds", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
