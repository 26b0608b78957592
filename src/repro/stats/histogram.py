"""Equi-depth histograms for selectivity estimation.

The estimator mirrors what commercial optimizers of the paper's era used
(DB2 quantile statistics): buckets of roughly equal row count whose
boundaries are data values.  Within a bucket the classic uniformity
assumption applies — both over the value range (for numeric interpolation)
and over the bucket's distinct values (for equality estimates).

A histogram is built from the column's distinct values and their counts
(the ``Counter`` RUNSTATS already keeps for the most-common values): only the
distinct values are sorted, and the bucket cuts are found by binary search
on the running counts, so no pass touches every row in Python.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterable, Mapping


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket covering ``(lower, upper]`` (first bucket is
    closed on both ends)."""

    lower: Any
    upper: Any
    count: int
    distinct: int


class EquiDepthHistogram:
    """An equi-depth histogram over non-NULL values of one column."""

    def __init__(self, buckets: list[Bucket], total: int):
        self.buckets = buckets
        self.total = total

    @classmethod
    def build(cls, values: Iterable[Any], num_buckets: int = 20) -> "EquiDepthHistogram":
        """Build from a collection of non-NULL values (any comparable type)."""
        return cls.from_counts(Counter(values), num_buckets)

    @classmethod
    def from_counts(
        cls, counts: Mapping[Any, int], num_buckets: int = 20
    ) -> "EquiDepthHistogram":
        """Build from each distinct non-NULL value's row count.

        The cuts are those of the sorted column: bucket *b* nominally ends at
        row ``(b + 1) * total // num_buckets`` and is extended to the end of
        the run of equal values holding its last row, so equal values never
        straddle a boundary (which keeps equality estimates consistent).
        """
        distinct = sorted(counts)
        cumulative = list(accumulate(map(counts.__getitem__, distinct)))
        total = cumulative[-1] if cumulative else 0
        if total == 0:
            return cls([], 0)
        num_buckets = max(1, min(num_buckets, total))
        buckets: list[Bucket] = []
        start = first = 0
        for b in range(num_buckets):
            end = ((b + 1) * total) // num_buckets
            if end <= start:
                continue
            # The run holding row ``end - 1`` ends at ``cumulative[last]``.
            last = bisect_left(cumulative, end, first)
            end = cumulative[last]
            buckets.append(
                Bucket(
                    lower=distinct[first],
                    upper=distinct[last],
                    count=end - start,
                    distinct=last - first + 1,
                )
            )
            start, first = end, last + 1
            if start >= total:
                break
        return cls(buckets, total)

    @property
    def min_value(self) -> Any:
        return self.buckets[0].lower if self.buckets else None

    @property
    def max_value(self) -> Any:
        return self.buckets[-1].upper if self.buckets else None

    def _bucket_fraction_le(self, bucket: Bucket, value: Any) -> float:
        """Fraction of a bucket's rows with value <= ``value`` (interpolated)."""
        if value >= bucket.upper:
            return 1.0
        if value < bucket.lower:
            return 0.0
        lo, hi = bucket.lower, bucket.upper
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and hi > lo:
            return (float(value) - float(lo)) / (float(hi) - float(lo))
        # Non-numeric (strings): assume half the bucket qualifies.
        return 0.5

    def fraction_le(self, value: Any) -> float:
        """Estimated fraction of rows with column value <= ``value``."""
        if self.total == 0:
            return 0.0
        rows = 0.0
        for bucket in self.buckets:
            if value >= bucket.upper:
                rows += bucket.count
            elif value < bucket.lower:
                break
            else:
                rows += bucket.count * self._bucket_fraction_le(bucket, value)
                break
        return min(1.0, rows / self.total)

    def fraction_lt(self, value: Any) -> float:
        """Estimated fraction strictly below ``value``."""
        return max(0.0, self.fraction_le(value) - self.fraction_eq(value))

    def fraction_eq(self, value: Any) -> float:
        """Estimated fraction equal to ``value`` (uniform within the bucket)."""
        if self.total == 0:
            return 0.0
        for bucket in self.buckets:
            if bucket.lower <= value <= bucket.upper:
                return (bucket.count / max(1, bucket.distinct)) / self.total
        return 0.0

    def fraction_between(self, low: Any, high: Any) -> float:
        """Estimated fraction in the inclusive range ``[low, high]``."""
        if high < low:
            return 0.0
        return max(0.0, self.fraction_le(high) - self.fraction_lt(low))
