"""Plan properties and validity ranges.

*Properties* identify what a (sub)plan computes: the set of base-table
aliases joined, the set of predicate ids already applied, and the physical
sort order of its output.  Two plans with identical properties are
interchangeable; during dynamic programming the optimizer prunes within a
property group, and — following the paper's §2.2 — every pruning decision
narrows the winner's *validity ranges*: per input edge, the cardinality
interval within which the winning root operator provably remains the best
choice among the structurally equivalent alternatives considered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlanProperties:
    """Logical + physical properties of a plan's output."""

    #: Base-table aliases whose rows contribute to this plan's output.
    tables: frozenset
    #: ``pred_id`` strings of every predicate already applied.
    predicates: frozenset
    #: Output ordering as a tuple of qualified column names ('' = unordered).
    order: tuple = ()

    @property
    def signature(self) -> tuple:
        """The edge signature: what rows flow, ignoring physical order.

        This is the identity the paper uses for edges ("an edge is defined by
        the set of rows flowing through it"), and the key of the cardinality
        feedback store and of temp-MV matching.
        """
        return (self.tables, self.predicates)

    def with_order(self, order: tuple) -> "PlanProperties":
        return replace(self, order=tuple(order))

    def unordered(self) -> "PlanProperties":
        return replace(self, order=())

    def merge(self, other: "PlanProperties", extra_predicates=()) -> "PlanProperties":
        """Properties of a join of two subplans plus newly applied predicates."""
        return PlanProperties(
            tables=self.tables | other.tables,
            predicates=self.predicates
            | other.predicates
            | frozenset(extra_predicates),
            order=(),
        )


@dataclass
class ValidityRange:
    """Cardinality interval ``[low, high]`` for one plan input edge.

    Initialized to ``[0, inf)`` (never triggers) and narrowed each time an
    alternative plan is pruned (paper Fig. 4/5).  Narrowing is conservative:
    bounds only shrink, never grow, so a violated range *guarantees* the plan
    is suboptimal with respect to some considered alternative.
    """

    low: float = 0.0
    high: float = math.inf

    def narrow_high(self, bound: float) -> None:
        if bound < self.high:
            self.high = max(bound, 0.0)

    def narrow_low(self, bound: float) -> None:
        if bound > self.low:
            self.low = bound

    def contains(self, cardinality: float) -> bool:
        return self.low <= cardinality <= self.high

    @property
    def is_trivial(self) -> bool:
        """True when the range was never narrowed (can't trigger)."""
        return self.low <= 0.0 and math.isinf(self.high)

    def copy(self) -> "ValidityRange":
        return ValidityRange(self.low, self.high)

    def __str__(self) -> str:
        hi = "inf" if math.isinf(self.high) else f"{self.high:.0f}"
        return f"[{self.low:.0f}, {hi}]"
