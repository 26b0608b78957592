"""Physical query execution plan (QEP) nodes.

The optimizer produces a tree of :class:`PlanOp` nodes annotated with
estimated cardinalities, estimated (cumulative) costs, output layouts, and —
on join operators — per-input-edge :class:`ValidityRange` objects computed
from the alternatives pruning discarded.  The executor (:mod:`repro.executor`) interprets the tree;
POP's placement pass (:mod:`repro.core.placement`) rewrites it by inserting
CHECK operators.

Plan nodes are created once by the optimizer and treated as immutable by the
executor, except for the annotation fields POP owns (validity ranges and
``op_id`` numbering).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.expr.evaluate import RowLayout
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate, Predicate
from repro.plan.logical import Aggregate
from repro.plan.properties import PlanProperties, ValidityRange


class PlanOp:
    """Base class of all physical plan operators."""

    KIND = "abstract"

    #: True for operators that fully materialize their input before
    #: producing output (the paper's "materialization points").
    IS_MATERIALIZATION = False

    def __init__(
        self,
        children: Sequence["PlanOp"],
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
    ):
        self.children = list(children)
        self.properties = properties
        self.layout = layout
        self.est_card = float(est_card)
        self.est_cost = float(est_cost)
        #: One validity range per input edge, narrowed by the optimizer once
        #: the operator is part of the chosen plan.
        self.validity_ranges = [ValidityRange() for _ in self.children]
        #: Stable preorder number, assigned by :func:`number_plan`.
        self.op_id: Optional[int] = None

    # ------------------------------------------------------------------ info

    def describe(self) -> str:
        """One-line operator description for EXPLAIN output."""
        return self.KIND

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{self.KIND} card={self.est_card:.0f} cost={self.est_cost:.1f} "
            f"tables={sorted(self.properties.tables)}>"
        )

    # ------------------------------------------------------------- traversal

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()


# ------------------------------------------------------------------- scans


class TableScan(PlanOp):
    """Sequential scan of a base table with fused local filters."""

    KIND = "TBSCAN"

    def __init__(
        self,
        alias: str,
        table: str,
        filters: Sequence[Predicate],
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
    ):
        super().__init__([], properties, layout, est_card, est_cost)
        self.alias = alias
        self.table = table
        self.filters = list(filters)

    def describe(self) -> str:
        preds = f" [{' AND '.join(str(p) for p in self.filters)}]" if self.filters else ""
        return f"TBSCAN({self.alias}:{self.table}){preds}"


class IndexScan(PlanOp):
    """Index access of a base table.

    ``sarg`` is the indexable predicate evaluated via the index; remaining
    ``filters`` are applied to fetched rows.  When used as the inner of an
    index nested-loop join, ``correlation`` names the outer column whose
    value keys each probe (and ``sarg`` is None).
    """

    KIND = "IXSCAN"

    def __init__(
        self,
        alias: str,
        table: str,
        index_name: str,
        sarg: Optional[Predicate],
        filters: Sequence[Predicate],
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
        correlation: Optional[ColumnRef] = None,
    ):
        super().__init__([], properties, layout, est_card, est_cost)
        self.alias = alias
        self.table = table
        self.index_name = index_name
        self.sarg = sarg
        self.filters = list(filters)
        self.correlation = correlation

    def describe(self) -> str:
        parts = [f"IXSCAN({self.alias}:{self.table} ix={self.index_name}"]
        if self.sarg is not None:
            parts.append(f" sarg={self.sarg}")
        if self.correlation is not None:
            parts.append(f" corr={self.correlation}")
        parts.append(")")
        if self.filters:
            parts.append(f" [{' AND '.join(str(p) for p in self.filters)}]")
        return "".join(parts)


class MVScan(PlanOp):
    """Scan of a temporary materialized view (a reused intermediate result)."""

    KIND = "MVSCAN"

    def __init__(
        self,
        mv_name: str,
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
        filters: Sequence[Predicate] = (),
    ):
        super().__init__([], properties, layout, est_card, est_cost)
        self.mv_name = mv_name
        self.filters = list(filters)

    def describe(self) -> str:
        extra = f" [{' AND '.join(str(p) for p in self.filters)}]" if self.filters else ""
        return f"MVSCAN({self.mv_name}){extra}"


# ------------------------------------------------------------------- joins


class JoinOp(PlanOp):
    """Common base of the three join methods.  children = [outer, inner].

    ``cost_desc`` is the enumerator's ``(kind, base, *constants)``
    description of the join's cost function (``CostModel.edge_kernel``);
    ``CostModel.recost`` re-prices the join with it.
    """

    def __init__(
        self,
        outer: PlanOp,
        inner: PlanOp,
        join_predicates: Sequence[JoinPredicate],
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
        *,
        cost_desc: tuple,
    ):
        super().__init__([outer, inner], properties, layout, est_card, est_cost)
        self.join_predicates = list(join_predicates)
        self.cost_desc = cost_desc

    @property
    def outer(self) -> PlanOp:
        return self.children[0]

    @property
    def inner(self) -> PlanOp:
        return self.children[1]

    def _preds_str(self) -> str:
        return " AND ".join(str(p) for p in self.join_predicates)


class NLJoin(JoinOp):
    """Nested-loop join.

    ``method`` is ``"index"`` (inner is a correlated :class:`IndexScan`
    probed once per outer row) or ``"rescan"`` (inner materialized once and
    rescanned per outer row).
    """

    KIND = "NLJOIN"

    def __init__(self, *args, method: str = "index", **kwargs):
        super().__init__(*args, **kwargs)
        if method not in ("index", "rescan"):
            raise ValueError(f"unknown NLJN method {method!r}")
        self.method = method

    def describe(self) -> str:
        return f"NLJOIN[{self.method}]({self._preds_str()})"


class HashJoin(JoinOp):
    """Hash join; the inner (right) child is the build side."""

    KIND = "HSJOIN"

    IS_MATERIALIZATION = False  # build side is materialized, output streams

    def describe(self) -> str:
        return f"HSJOIN({self._preds_str()})"


class MergeJoin(JoinOp):
    """Sort-merge join; both children must be ordered on the join keys."""

    KIND = "MSJOIN"

    def describe(self) -> str:
        return f"MSJOIN({self._preds_str()})"


# -------------------------------------------------------- materializations


class Sort(PlanOp):
    """Full sort of the input — a materialization point."""

    KIND = "SORT"
    IS_MATERIALIZATION = True

    def __init__(
        self,
        child: PlanOp,
        keys: Sequence[str],
        properties: PlanProperties,
        est_cost: float,
        ascending: Optional[Sequence[bool]] = None,
    ):
        super().__init__([child], properties, child.layout, child.est_card, est_cost)
        self.keys = tuple(keys)
        self.ascending = tuple(ascending) if ascending is not None else tuple(
            True for _ in self.keys
        )

    def describe(self) -> str:
        return f"SORT({', '.join(self.keys)})"


class Temp(PlanOp):
    """Materialize the input into a temporary table — a materialization point.

    POP's LCEM flavor inserts TEMP/CHECK pairs; the rescan NLJN method also
    uses a TEMP on its inner.
    """

    KIND = "TEMP"
    IS_MATERIALIZATION = True

    def __init__(self, child: PlanOp, est_cost: float):
        super().__init__(
            [child], child.properties, child.layout, child.est_card, est_cost
        )

    def describe(self) -> str:
        return "TEMP"


# --------------------------------------------------- aggregation and misc


class GroupBy(PlanOp):
    """Hash aggregation."""

    KIND = "GRPBY"

    def __init__(
        self,
        child: PlanOp,
        group_keys: Sequence[ColumnRef],
        aggregates: Sequence[Aggregate],
        properties: PlanProperties,
        layout: RowLayout,
        est_card: float,
        est_cost: float,
    ):
        super().__init__([child], properties, layout, est_card, est_cost)
        self.group_keys = tuple(group_keys)
        self.aggregates = tuple(aggregates)

    def describe(self) -> str:
        keys = ", ".join(k.qualified for k in self.group_keys)
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"GRPBY(keys=[{keys}] aggs=[{aggs}])"


class HavingFilter(PlanOp):
    """Post-aggregation filter over GROUP BY output columns."""

    KIND = "HAVING"

    def __init__(
        self,
        child: PlanOp,
        predicates,  # sequence of logical.HavingPredicate
        est_card: float,
        est_cost: float,
    ):
        super().__init__(
            [child], child.properties, child.layout, est_card, est_cost
        )
        self.predicates = tuple(predicates)

    def describe(self) -> str:
        return "HAVING(" + " AND ".join(str(p) for p in self.predicates) + ")"


class Distinct(PlanOp):
    """Hash-based duplicate elimination."""

    KIND = "DISTINCT"

    def __init__(
        self, child: PlanOp, properties: PlanProperties, est_card: float, est_cost: float
    ):
        super().__init__([child], properties, child.layout, est_card, est_cost)


class Project(PlanOp):
    """Column projection / reordering to the final output shape."""

    KIND = "PROJECT"

    def __init__(self, child: PlanOp, columns: Sequence[str], est_cost: float):
        layout = RowLayout(list(columns))
        super().__init__(
            [child], child.properties, layout, child.est_card, est_cost
        )
        self.columns = tuple(columns)

    def describe(self) -> str:
        return f"PROJECT({', '.join(self.columns)})"


class Return(PlanOp):
    """Root operator streaming rows to the application (paper's RETURN)."""

    KIND = "RETURN"

    def __init__(self, child: PlanOp, limit: Optional[int] = None):
        super().__init__(
            [child], child.properties, child.layout, child.est_card, child.est_cost
        )
        self.limit = limit

    def describe(self) -> str:
        return f"RETURN(limit={self.limit})" if self.limit else "RETURN"


# ----------------------------------------------------------------- POP ops


class Check(PlanOp):
    """The CHECK operator (paper §3, Fig. 10).

    Has no relational semantics; counts rows flowing from its child and
    triggers re-optimization when the count leaves ``check_range``.
    ``flavor`` records which checkpoint flavor placed it (LC, LCEM, ECWC,
    ECDC).
    """

    KIND = "CHECK"

    def __init__(self, child: PlanOp, check_range: ValidityRange, flavor: str):
        super().__init__(
            [child], child.properties, child.layout, child.est_card, child.est_cost
        )
        self.check_range = check_range
        self.flavor = flavor

    def describe(self) -> str:
        return f"CHECK[{self.flavor}] range={self.check_range}"


class BufCheck(PlanOp):
    """The buffered CHECK of the ECB flavor (paper Fig. 8/10).

    Buffers up to ``buffer_size`` rows before releasing any to the parent, so
    a violated upper bound can trigger re-optimization before any row has
    been pipelined onward.
    """

    KIND = "BUFCHECK"

    def __init__(
        self, child: PlanOp, check_range: ValidityRange, buffer_size: int
    ):
        super().__init__(
            [child], child.properties, child.layout, child.est_card, child.est_cost
        )
        self.check_range = check_range
        self.buffer_size = buffer_size
        self.flavor = "ECB"

    def describe(self) -> str:
        return f"BUFCHECK[ECB] range={self.check_range} buf={self.buffer_size}"


class AntiJoin(PlanOp):
    """ECDC compensation: multiset-subtract previously returned rows.

    The paper stores returned *rids* in a side table and anti-joins on them;
    in this read-only reproduction the side buffer holds the returned rows
    themselves and compensation is an exact multiset difference, which is
    equivalent for query results (DESIGN.md, substitution table).
    """

    KIND = "ANTIJOIN"

    def __init__(self, child: PlanOp, compensation_key: str):
        super().__init__(
            [child], child.properties, child.layout, child.est_card, child.est_cost
        )
        self.compensation_key = compensation_key

    def describe(self) -> str:
        return f"ANTIJOIN(compensate={self.compensation_key})"


# ------------------------------------------------------------------ helpers


def number_plan(root: PlanOp) -> None:
    """Assign stable preorder ``op_id`` numbers to every node."""
    for i, op in enumerate(root.walk()):
        op.op_id = i


def find_ops(root: PlanOp, kind: type) -> list[PlanOp]:
    """All nodes of the given class in preorder."""
    return [op for op in root.walk() if isinstance(op, kind)]


#: Operators whose output is not the row set of their edge signature:
#: aggregation and DISTINCT collapse rows, HAVING filters groups, RETURN
#: may be LIMIT-cut, ANTIJOIN emits compensation rows.  Every operator
#: above one inherits the signature of the join below it (``_finalize``
#: passes the join's properties upward), so the test covers the subtree.
_NON_RELATIONAL = (GroupBy, Distinct, HavingFilter, Return, AntiJoin)


def relational_edge(op: PlanOp) -> bool:
    """True when ``op`` outputs exactly the rows of its edge signature.

    The one rule for which operators may stand for their signature's
    edge: CHECK placement, runtime feedback, temp-MV promotion and the plan
    cache's range re-estimation all use it.  An MV scan below keeps the
    edge relational (its rows are that edge's rows).
    """
    return not any(isinstance(node, _NON_RELATIONAL) for node in op.walk())
