"""Tests for the helpers the figure scripts share (``benchmarks/conftest.py``)."""

import pytest

from benchmarks.conftest import run_pair, speedup_factor


class TestRunners:
    def test_run_pair_baseline_has_no_reopts(self, star_db):
        baseline, progressive = run_pair(
            star_db, "SELECT c.c_id FROM cust c WHERE c.c_segment = 'RARE'"
        )
        assert baseline.report.reoptimizations == 0
        assert len(baseline.rows) == len(progressive.rows)
        assert baseline.report.total_units > 0

    @pytest.mark.parametrize(
        "base,pop,expected",
        [(100, 50, 2.0), (50, 100, -2.0), (100, 100, 1.0), (0, 10, 0.0)],
    )
    def test_speedup_factor(self, base, pop, expected):
        assert speedup_factor(base, pop) == pytest.approx(expected)
