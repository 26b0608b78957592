"""``results/paper.json`` is what the figure scripts measure today.

A change that moves a figure re-runs ``python -m benchmarks`` and commits
the new file; until then this fails on the figures that moved.
"""

from __future__ import annotations

import json

import pytest

from .conftest import FIGURES, PAPER_JSON


def stored() -> dict:
    return json.loads(PAPER_JSON.read_text())


def test_paper_json_holds_every_figure_and_no_other():
    assert sorted(stored()) == sorted(FIGURES)


@pytest.mark.parametrize("name", FIGURES)
def test_paper_json_equals_a_fresh_run(paper, name):
    entry = stored()[name]
    assert paper[name]["headline"] == entry["headline"]
    assert paper[name]["rows"] == entry["rows"]
