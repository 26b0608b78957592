"""Per-column statistics: cardinality of distinct values, extrema,
most-common values, and an equi-depth histogram."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.stats.histogram import EquiDepthHistogram


@dataclass
class ColumnStatistics:
    """Statistics over one column, as collected by RUNSTATS."""

    column: str
    row_count: int
    null_count: int
    ndv: int
    min_value: Any = None
    max_value: Any = None
    #: Most-common values as ``(value, count)`` pairs, most frequent first.
    mcvs: list = field(default_factory=list)
    histogram: Optional[EquiDepthHistogram] = None

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def mcv_count_for(self, value: Any) -> Optional[int]:
        """Exact count if ``value`` is tracked as a most-common value."""
        for v, count in self.mcvs:
            if v == value:
                return count
        return None

    @property
    def mcv_total(self) -> int:
        return sum(count for _, count in self.mcvs)

    @classmethod
    def collect(
        cls,
        column: str,
        values: Sequence[Any],
        num_buckets: int = 20,
        num_mcvs: int = 10,
    ) -> "ColumnStatistics":
        """Compute full statistics from the column's values: one ``Counter``
        pass, then work per distinct value only (the histogram, whose first
        and last bounds are the extrema, is cut from those counts)."""
        row_count = len(values)
        counter = Counter(values)
        null_count = counter.pop(None, 0)
        if not counter:
            return cls(column, row_count, null_count, ndv=0)
        mcvs = [
            (value, count)
            for value, count in counter.most_common(num_mcvs)
            if count > 1
        ]
        histogram = EquiDepthHistogram.from_counts(counter, num_buckets)
        return cls(
            column=column,
            row_count=row_count,
            null_count=null_count,
            ndv=len(counter),
            min_value=histogram.min_value,
            max_value=histogram.max_value,
            mcvs=mcvs,
            histogram=histogram,
        )
