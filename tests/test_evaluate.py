"""Tests for predicate compilation (repro.expr.evaluate).

Predicate semantics are checked through :func:`compile_filter`, the batch
form the executor runs, one row per batch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.expr.evaluate import RowLayout, compile_filter, like_to_regex
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Between, Comparison, InList, JoinPredicate, Like, Or

LAYOUT = RowLayout(["t.a", "t.b", "u.c"])


def col(table, name):
    return ColumnRef(table, name)


def matcher(preds, params=None):
    """``row -> bool`` through the batch kernel: does the row survive?"""
    keep = compile_filter(preds, LAYOUT, params or {})
    return lambda row: keep([row]) == [row]


class TestRowLayout:
    def test_slot_lookup(self):
        assert LAYOUT.slot("t.b") == 1
        assert LAYOUT.slot(col("u", "c")) == 2

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError, match="not in layout"):
            LAYOUT.slot("t.zzz")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate"):
            RowLayout(["t.a", "t.a"])

    def test_concat(self):
        combined = RowLayout(["x.a"]).concat(RowLayout(["y.b"]))
        assert combined.columns == ("x.a", "y.b")

    def test_project(self):
        assert LAYOUT.project(["u.c", "t.a"]).columns == ("u.c", "t.a")

    def test_equality(self):
        assert RowLayout(["a"]) == RowLayout(["a"])
        assert RowLayout(["a"]) != RowLayout(["b"])

    def test_has(self):
        assert LAYOUT.has("t.a")
        assert not LAYOUT.has("t.q")


class TestComparisons:
    @pytest.mark.parametrize(
        "op,value,row,expected",
        [
            ("=", 5, (5, 0, 0), True),
            ("=", 5, (4, 0, 0), False),
            ("!=", 5, (4, 0, 0), True),
            ("<", 5, (4, 0, 0), True),
            ("<=", 5, (5, 0, 0), True),
            (">", 5, (5, 0, 0), False),
            (">=", 5, (5, 0, 0), True),
        ],
    )
    def test_operators(self, op, value, row, expected):
        pred = Comparison(col("t", "a"), op, Literal(value))
        assert matcher([pred])(row) is expected

    def test_null_never_matches(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            pred = Comparison(col("t", "a"), op, Literal(5))
            assert matcher([pred])((None, 0, 0)) is False

    def test_marker_resolved_from_params(self):
        pred = Comparison(col("t", "a"), "=", ParameterMarker("p"))
        run = matcher([pred], {"p": 7})
        assert run((7, 0, 0))
        assert not run((8, 0, 0))


class TestOtherPredicates:
    def test_between_inclusive(self):
        pred = Between(col("t", "a"), Literal(2), Literal(4))
        run = matcher([pred])
        assert [run((v, 0, 0)) for v in (1, 2, 3, 4, 5, None)] == [
            False, True, True, True, False, False,
        ]

    def test_in_list(self):
        pred = InList(col("t", "a"), (1, 3))
        run = matcher([pred])
        assert run((1, 0, 0)) and run((3, 0, 0))
        assert not run((2, 0, 0)) and not run((None, 0, 0))

    def test_like(self):
        pred = Like(col("t", "b"), "ab%c_")
        run = matcher([pred])
        assert run((0, "abXXcZ", 0))
        assert not run((0, "abXXc", 0))
        assert not run((0, None, 0))
        assert not run((0, 123, 0))

    def test_or(self):
        pred = Or(
            (
                Comparison(col("t", "a"), "=", Literal(1)),
                Comparison(col("t", "a"), "=", Literal(3)),
            )
        )
        run = matcher([pred])
        assert run((1, 0, 0)) and run((3, 0, 0)) and not run((2, 0, 0))

    def test_join_predicate(self):
        pred = JoinPredicate(col("t", "a"), col("u", "c"))
        run = matcher([pred])
        assert run((5, 0, 5))
        assert not run((5, 0, 6))
        assert not run((None, 0, None))  # NULL != NULL in SQL


class TestConjunction:
    def test_empty_keeps_the_batch_uncopied(self):
        batch = [(1, 2, 3), (None, None, None)]
        assert compile_filter([], LAYOUT, {})(batch) is batch

    def test_all_must_hold(self):
        preds = [
            Comparison(col("t", "a"), ">", Literal(0)),
            Comparison(col("t", "b"), "=", Literal("x")),
        ]
        run = matcher(preds)
        assert run((1, "x", 0))
        assert not run((1, "y", 0))
        assert not run((0, "x", 0))


class TestLikeRegex:
    @pytest.mark.parametrize(
        "pattern,text,matches",
        [
            ("abc", "abc", True),
            ("abc", "abcd", False),
            ("a%", "a", True),
            ("a%", "abcdef", True),
            ("%c", "abc", True),
            ("a_c", "abc", True),
            ("a_c", "ac", False),
            ("a.c", "abc", False),  # regex metachars are escaped
            ("a.c", "a.c", True),
            ("100%", "100%x", True),  # % is a wildcard, not a literal
            ("", "", True),
        ],
    )
    def test_patterns(self, pattern, text, matches):
        assert bool(like_to_regex(pattern).match(text)) is matches

    @given(st.text(alphabet="ab%_.*c", max_size=8), st.text(alphabet="ab.c", max_size=8))
    def test_matches_naive_backtracking_oracle(self, pattern, text):
        def naive(p: str, s: str) -> bool:
            if not p:
                return not s
            if p[0] == "%":
                return any(naive(p[1:], s[i:]) for i in range(len(s) + 1))
            if s and (p[0] == "_" or p[0] == s[0]):
                return naive(p[1:], s[1:])
            return False

        assert bool(like_to_regex(pattern).match(text)) == naive(pattern, text)
