"""Tests for the cost model, including the spill discontinuities that
motivate the paper's numerical root finding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer.costmodel import CostModel, CostParams

CM = CostModel()
P = CM.params

cards = st.floats(min_value=0, max_value=1e7, allow_nan=False)


class TestScans:
    def test_table_scan_linear(self):
        assert CM.table_scan_cost(10, 100) == pytest.approx(10 + 1.0)

    def test_fetch_cost_grows_with_table_size(self):
        small = CM.fetch_cost_per_row(10)
        large = CM.fetch_cost_per_row(10_000)
        assert large > small

    def test_fetch_cost_saturates(self):
        at_pool = CM.fetch_cost_per_row(P.buffer_pool_pages)
        beyond = CM.fetch_cost_per_row(P.buffer_pool_pages * 100)
        assert at_pool == pytest.approx(beyond)

    def test_index_probe_includes_matches(self):
        low = CM.index_probe_cost(1, 100)
        high = CM.index_probe_cost(10, 100)
        assert high > low

    def test_mv_scan_cheapest_access(self):
        assert CM.mv_scan_cost(1000) < CM.table_scan_cost(16, 1000)


class TestMaterializations:
    def test_sort_zero_input(self):
        assert CM.sort_cost(0) == 0.0

    def test_sort_spill_discontinuity(self):
        """The 2-stage/3-stage style step the paper cites (§2.2)."""
        threshold_rows = P.sort_mem_pages * P.rows_per_page
        below = CM.sort_cost(threshold_rows * 0.99)
        above = CM.sort_cost(threshold_rows * 1.01)
        # The jump is much larger than the marginal per-row cost.
        assert above - below > 50 * (CM.sort_cost(threshold_rows) / threshold_rows)

    def test_temp_spill_discontinuity(self):
        threshold_rows = P.temp_mem_pages * P.rows_per_page
        below = CM.temp_cost(threshold_rows * 0.99)
        above = CM.temp_cost(threshold_rows * 1.01)
        assert above > below + P.temp_mem_pages * P.io_page * 0.9

    def test_rescan_cheaper_than_build(self):
        assert CM.temp_rescan_cost(1000) < CM.temp_cost(1000)


class TestJoins:
    def test_hash_join_spill_discontinuity(self):
        threshold_rows = P.hash_mem_pages * P.rows_per_page
        below = CM.hash_join_cost(1000, threshold_rows * 0.99, 1000)
        above = CM.hash_join_cost(1000, threshold_rows * 1.01, 1000)
        assert above > below + P.hash_mem_pages * P.io_page

    def test_nljn_index_linear_in_outer(self):
        c1 = CM.nljn_index_cost(100, 1.0, 100, 50)
        c2 = CM.nljn_index_cost(200, 1.0, 200, 50)
        assert c2 == pytest.approx(2 * c1)

    def test_nljn_rescan_quadratic_blowup(self):
        cheap = CM.nljn_rescan_cost(1, 5000, 5)
        dear = CM.nljn_rescan_cost(1000, 5000, 5000)
        assert dear > 100 * cheap

    def test_merge_join_sort_enforcers_charged(self):
        no_sorts = CM.merge_join_cost(1000, 1000, 1000, False, False)
        both_sorts = CM.merge_join_cost(1000, 1000, 1000, True, True)
        assert both_sorts == pytest.approx(no_sorts + 2 * CM.sort_cost(1000))

    @given(cards, cards)
    def test_hash_join_nonnegative_and_monotone_in_build(self, outer, inner):
        cost = CM.hash_join_cost(outer, inner, 0)
        assert cost >= 0
        assert CM.hash_join_cost(outer, inner * 2 + 1, 0) >= cost

    @given(cards)
    def test_sort_cost_nonnegative(self, card):
        assert CM.sort_cost(card) >= 0

    @given(cards, cards)
    def test_negative_cards_treated_as_zero(self, outer, inner):
        assert CM.hash_join_cost(-outer, -inner, -5) == CM.hash_join_cost(0, 0, 0)


class TestParams:
    def test_scaled_memory(self):
        scaled = P.scaled_memory(0.5)
        assert scaled.sort_mem_pages == P.sort_mem_pages // 2
        assert scaled.hash_mem_pages == P.hash_mem_pages // 2
        assert scaled.temp_mem_pages == P.temp_mem_pages // 2

    def test_scaled_memory_floor(self):
        assert CostParams().scaled_memory(0.0).sort_mem_pages == 1

    def test_reoptimization_cost_grows_with_enumeration(self):
        assert CM.reoptimization_cost(100) > CM.reoptimization_cost(10)
        assert CM.reoptimization_cost(0) == P.reopt_fixed

    def test_check_cost_tiny(self):
        # The paper's claim: counting rows is negligible per row.
        assert P.cpu_check < 0.01 * P.io_page
