"""Run every paper figure once and write ``benchmarks/results/paper.json``.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks

The file holds, per figure, ``{"headline": ..., "rows": ...}``: work units
and counts only, so a re-run on unchanged code rewrites it byte for byte.
``pytest benchmarks/`` fails while it differs from a fresh run, and
``tests/test_docs_consistency.py`` holds EXPERIMENTS.md's quoted numbers to
its headlines.
"""

from __future__ import annotations

import json

from benchmarks.conftest import FIGURES, PAPER_JSON, Inputs, figure


def dumps(paper: dict) -> str:
    """JSON with one line per headline and per row."""
    blocks = []
    for name in sorted(paper):
        entry = paper[name]
        rows = ",\n".join("   " + json.dumps(r, sort_keys=True) for r in entry["rows"])
        blocks.append(
            f" {json.dumps(name)}: {{\n"
            f'  "headline": {json.dumps(entry["headline"], sort_keys=True)},\n'
            f'  "rows": [\n{rows}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> None:
    inputs = Inputs()
    paper = {}
    for name in FIGURES:
        paper[name] = figure(name, inputs)
        print(f"{name}: {json.dumps(paper[name]['headline'], sort_keys=True)}")
    PAPER_JSON.parent.mkdir(parents=True, exist_ok=True)
    PAPER_JSON.write_text(dumps(paper))
    print(f"wrote {PAPER_JSON}")


if __name__ == "__main__":
    main()
