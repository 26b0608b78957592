"""Tests for repro.common.rng."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import WeightedChooser, make_rng, zipf_weights


class TestZipfWeights:
    def test_weights_sum_to_one(self):
        assert sum(zipf_weights(10, 1.5)) == pytest.approx(1.0)

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(5, 0.0)
        assert all(w == pytest.approx(0.2) for w in weights)

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(20, 1.2)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    @given(st.integers(1, 50), st.floats(0.0, 3.0))
    def test_weights_always_normalized(self, n, skew):
        weights = zipf_weights(n, skew)
        assert len(weights) == n
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)


class TestWeightedChooser:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            WeightedChooser(["a"], [0.5, 0.5])

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            WeightedChooser([], [])

    def test_single_item_always_chosen(self):
        chooser = WeightedChooser(["only"], [1.0])
        rng = make_rng(1)
        assert all(chooser.choose(rng) == "only" for _ in range(20))

    def test_skew_shows_in_frequencies(self):
        chooser = WeightedChooser(list(range(10)), zipf_weights(10, 1.5))
        rng = make_rng(3)
        draws = [chooser.choose(rng) for _ in range(5000)]
        assert draws.count(0) > draws.count(9) * 3

    def test_deterministic_for_fixed_seed(self):
        chooser = WeightedChooser("abcdef", zipf_weights(6, 1.0))
        a = [chooser.choose(make_rng(42)) for _ in range(1)]
        b = [chooser.choose(make_rng(42)) for _ in range(1)]
        assert a == b


def test_make_rng_is_isolated():
    r1 = make_rng(5)
    r2 = make_rng(5)
    assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]
    assert isinstance(r1, random.Random)
