"""Tests for the join-graph analysis."""

from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate
from repro.plan.logical import Query, TableRef


def chain_query(n: int) -> Query:
    """t0 - t1 - ... - t(n-1) chained on x = x."""
    tables = [TableRef(f"t{i}", f"t{i}") for i in range(n)]
    joins = [
        JoinPredicate(ColumnRef(f"t{i}", "x"), ColumnRef(f"t{i+1}", "x"))
        for i in range(n - 1)
    ]
    return Query(
        tables=tables,
        select=[ColumnRef("t0", "x")],
        join_predicates=joins,
    )


def make_graph(query: Query):
    from repro.optimizer.joingraph import JoinGraph

    return JoinGraph(query)


class TestConnectivity:
    def test_alias_bits(self):
        graph = make_graph(chain_query(3))
        assert graph.bit == {"t0": 1, "t1": 2, "t2": 4}
        assert graph.mask(["t0", "t2"]) == 5
        assert graph.mask([]) == 0

    def test_connected_partitions(self):
        graph = make_graph(chain_query(3))
        between, mask = graph.predicates_between, graph.mask
        assert between(mask({"t0"}), mask({"t1"}))
        assert between(mask({"t0", "t1"}), mask({"t2"}))
        assert not between(mask({"t0"}), mask({"t2"}))

    def test_predicates_between(self):
        graph = make_graph(chain_query(3))
        preds = graph.predicates_between(graph.mask({"t0", "t1"}), graph.mask({"t2"}))
        assert len(preds) == 1
        assert preds[0].tables() == {"t1", "t2"}

    def test_predicates_between_keeps_query_order(self):
        graph = make_graph(chain_query(4))
        # Either side order finds the same predicates, in the query's order.
        for left, right in ((0b0101, 0b1010), (0b1010, 0b0101)):
            assert graph.predicates_between(left, right) == graph.predicates

    def test_is_connected_subset(self):
        graph = make_graph(chain_query(4))
        assert graph.is_connected_subset(["t0", "t1", "t2"])
        assert not graph.is_connected_subset(["t0", "t2"])
        assert graph.is_connected_subset(["t1"])
        assert not graph.is_connected_subset([])

    def test_fully_connected(self):
        assert make_graph(chain_query(4)).fully_connected

    def test_disconnected_graph(self):
        query = Query(
            tables=[TableRef("a", "a"), TableRef("b", "b")],
            select=[ColumnRef("a", "x")],
        )
        graph = make_graph(query)
        assert not graph.fully_connected
        assert not graph.predicates_between(graph.mask({"a"}), graph.mask({"b"}))

    def test_multiple_predicates_between_pair(self):
        query = Query(
            tables=[TableRef("a", "a"), TableRef("b", "b")],
            select=[ColumnRef("a", "x")],
            join_predicates=[
                JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "x")),
                JoinPredicate(ColumnRef("a", "y"), ColumnRef("b", "y")),
            ],
        )
        graph = make_graph(query)
        assert len(graph.predicates_between(graph.mask({"a"}), graph.mask({"b"}))) == 2
