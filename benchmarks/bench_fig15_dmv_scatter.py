"""Figure 15 — Scatter of DMV response times with vs without POP.

The paper's case study ran 39 complex real-world DMV queries over a
database with heavy column correlations; POP improved 22 queries (up to
almost two orders of magnitude), slightly-to-moderately regressed 17, and
reduced the longest query from >20 minutes to <5.  This bench runs the 39
synthetic DMV queries (same correlation structure, scaled down) with and
without POP and reports the scatter points plus the headline aggregates.
"""

from __future__ import annotations


def measure(inputs):
    return inputs.dmv_pairs


def headline(rows):
    improved = sum(1 for r in rows if r["factor"] > 1.05)
    regressed = sum(1 for r in rows if r["factor"] < -1.05)
    longest_nopop = max(r["nopop"] for r in rows)
    longest_pop = max(r["pop"] for r in rows)
    return {
        "queries": len(rows),
        "improved": improved,
        "regressed": regressed,
        "unchanged": len(rows) - improved - regressed,
        "longest_nopop": longest_nopop,
        "longest_pop": longest_pop,
        "longest_ratio": longest_nopop / longest_pop,
        "total_saved": sum(r["nopop"] - r["pop"] for r in rows),
    }


def test_fig15_dmv_scatter(paper):
    h = paper["fig15_dmv_scatter"]["headline"]
    assert h["improved"] >= 3, "POP must visibly improve part of the workload"
    assert h["longest_pop"] < h["longest_nopop"], (
        "the worst-case query must be shorter under POP"
    )
    # The scatter's lower-right half: improvements dominate regressions in
    # magnitude even when fewer in count.
    assert h["total_saved"] > 0
