"""Deterministic random number helpers for data generation.

All workload generators draw from a :class:`random.Random` seeded explicitly,
so repeated runs (and therefore benchmark figures) are bit-for-bit
reproducible.  This module adds the distributions the generators need that the
standard library does not provide directly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed: int) -> random.Random:
    """A fresh deterministic generator for the given seed."""
    return random.Random(seed)


def zipf_weights(n: int, skew: float) -> list[float]:
    """Weights of a Zipf distribution over ranks ``1..n`` with exponent ``skew``.

    ``skew == 0`` degenerates to uniform weights.  The weights are normalized
    to sum to 1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    raw = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class WeightedChooser:
    """Repeated O(log n) weighted sampling from a fixed set of items."""

    def __init__(self, items: Sequence[T], weights: Sequence[float]):
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise ValueError("cannot sample from an empty population")
        self._items = list(items)
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1]

    def choose(self, rng: random.Random) -> T:
        point = rng.random() * self._total
        return self._items[bisect_right(self._cum, point)]
