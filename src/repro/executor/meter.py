"""The deterministic work meter.

Execution "time" in this reproduction is measured in the same cost units the
optimizer models (see :mod:`repro.optimizer.costmodel`): every executor
operator charges CPU-per-row and I/O-per-page work as it runs.  This keeps
measured execution consistent with modeled cost, makes all benchmark figures
deterministic, and replaces the paper's wall-clock measurements on Power3/4
hardware (DESIGN.md substitution table).  Wall-clock time is still recorded
by the driver for reference.

Charges may carry a *category* name ("execute", "optimize", "check",
"sort", ...) so the observability layer can attribute overhead.  Category
accounting is opt-in (``track_categories=True``): the default meter ignores
the category argument entirely, keeping the per-row hot path a single
float addition either way — ``units`` is identical with tracking on or off.
"""

from __future__ import annotations

from typing import Optional


class WorkMeter:
    """Accumulates simulated work units, optionally per category."""

    __slots__ = ("units", "_by_category")

    def __init__(self, track_categories: bool = False) -> None:
        self.units = 0.0
        self._by_category: Optional[dict[str, float]] = (
            {} if track_categories else None
        )

    def charge(self, units: float, category: Optional[str] = None) -> None:
        self.units += units
        if self._by_category is not None and category is not None:
            self._by_category[category] = (
                self._by_category.get(category, 0.0) + units
            )

    def snapshot(self) -> float:
        return self.units

    def by_category(self) -> dict[str, float]:
        """Per-category totals; uncategorized work appears under "other"."""
        if self._by_category is None:
            return {}
        categorized = sum(self._by_category.values())
        out = dict(self._by_category)
        other = self.units - categorized
        if other > 1e-9:
            out["other"] = other
        return out
