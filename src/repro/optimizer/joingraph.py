"""Join-graph analysis used by the plan enumerator."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.expr.predicates import JoinPredicate
from repro.plan.logical import Query


class JoinGraph:
    """Adjacency view of a query's equi-join predicates.

    Each alias owns one bit of a table-subset mask (its position in
    ``aliases``), so the enumerator names a side of a split by an ``int``.
    """

    def __init__(self, query: Query):
        self.aliases = list(query.aliases)
        self.predicates = list(query.join_predicates)
        #: The alias's bit in a table-subset mask.
        self.bit = {alias: 1 << i for i, alias in enumerate(self.aliases)}
        self._adjacent: dict[str, set[str]] = {a: set() for a in self.aliases}
        #: ``(predicate, bit of one side, bit of the other)``, in
        #: ``predicates`` order.
        self._sides: list[tuple[JoinPredicate, int, int]] = []
        for jp in self.predicates:
            a, b = jp.left.table, jp.right.table
            self._adjacent[a].add(b)
            self._adjacent[b].add(a)
            self._sides.append((jp, self.bit[a], self.bit[b]))

    def mask(self, aliases: Iterable[str]) -> int:
        """The subset mask of ``aliases``."""
        mask = 0
        for alias in aliases:
            mask |= self.bit[alias]
        return mask

    def predicates_between(self, left: int, right: int) -> list[JoinPredicate]:
        """Join predicates with one side in the subset mask ``left`` and the
        other in ``right``, in ``predicates`` order."""
        return [
            jp
            for jp, a, b in self._sides
            if (a & left and b & right) or (a & right and b & left)
        ]

    def is_connected_subset(self, subset: Sequence[str]) -> bool:
        """True when the induced subgraph on ``subset`` is connected."""
        nodes = set(subset)
        if not nodes:
            return False
        if len(nodes) == 1:
            return True
        seen = set()
        stack = [next(iter(nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._adjacent[node] & nodes - seen)
        return seen == nodes

    @property
    def fully_connected(self) -> bool:
        return self.is_connected_subset(self.aliases)
