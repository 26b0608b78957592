"""Compilation of predicates into Python kernels.

Operators in the executor work on flat tuples.  A :class:`RowLayout` maps
qualified column names to tuple positions; a conjunction of predicates plus
a layout plus the bind parameters becomes one generated Python expression,
which is set into one of two templates: a ``rows -> matching rows`` callable
(:func:`compile_filter`, one call per batch: join residuals, HAVING) or a
scan loop that stops on the row filling a request (:func:`compile_scan`).

Only slot numbers and operator spellings are written into the generated
source.  Operand values — literals, bind parameters, LIKE patterns — are
bound by name in the kernel's namespace, so no value a client supplied is
ever parsed as code.

SQL three-valued logic is approximated the usual engine way: any comparison
with NULL is false — a NULL cell and a NULL operand alike — so filters
simply drop NULL rows.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.common.errors import ExecutionError
from repro.expr.expressions import ColumnRef, operand_value
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    IsNull,
    JoinPredicate,
    Like,
    Or,
    Predicate,
)


class RowLayout:
    """Maps qualified column names (``alias.column``) to tuple positions."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        self._pos = {name: i for i, name in enumerate(self.columns)}
        if len(self._pos) != len(self.columns):
            raise ExecutionError(f"duplicate columns in row layout: {self.columns}")

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowLayout) and self.columns == other.columns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowLayout({list(self.columns)})"

    def has(self, ref: ColumnRef | str) -> bool:
        name = ref if isinstance(ref, str) else ref.qualified
        return name in self._pos

    def slot(self, ref: ColumnRef | str) -> int:
        name = ref if isinstance(ref, str) else ref.qualified
        try:
            return self._pos[name]
        except KeyError as exc:
            raise ExecutionError(f"column {name!r} not in layout {self.columns}") from exc

    def project(self, refs: Sequence[ColumnRef | str]) -> "RowLayout":
        return RowLayout(
            [r if isinstance(r, str) else r.qualified for r in refs]
        )

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.columns + other.columns)


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    # ``\Z``, not ``$``: ``$`` would also match before a trailing newline.
    return re.compile("^" + "".join(parts) + r"\Z", re.DOTALL)


#: SQL comparison operator -> Python operator, as spelled in kernel source.
_PYTHON_OPERATOR = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_FALSE = "False"


def _like_source(cell: str, pattern: str, bind: Callable[[Any], str]) -> str:
    """``LIKE`` over one cell: a ``str`` method when the pattern is a plain
    prefix/suffix/substring test, one precompiled regex otherwise."""
    body = pattern.strip("%")
    lead, trail = pattern.startswith("%"), pattern.endswith("%")
    if "%" in body or "_" in body or not (lead or trail):
        test = f"{bind(like_to_regex(pattern).match)}({cell}) is not None"
    elif lead and trail:
        test = f"{bind(body)} in {cell}"
    elif trail:
        test = f"{cell}.startswith({bind(body)})"
    else:
        test = f"{cell}.endswith({bind(body)})"
    return f"(isinstance({cell}, str) and {test})"


def _compare_source(slot: int, op: str, value: Any, bind: Callable[[Any], str]) -> str:
    """``row[slot] <op> value``; NULL on either side compares false."""
    if value is None:
        return _FALSE
    test = f"row[{slot}] {_PYTHON_OPERATOR[op]} {bind(value)}"
    # ``None == value`` is already false; every other operator needs the guard.
    return test if op == "=" else f"(row[{slot}] is not None and {test})"


def _term_source(
    pred: Predicate,
    layout: RowLayout,
    params: dict[str, Any],
    bind: Callable[[Any], str],
) -> str:
    """Python source of ``pred`` as a boolean expression over ``row``.

    Slots are integers taken from the layout; every operand value goes
    through ``bind`` and appears in the source only as the name it was
    bound to in the kernel's namespace.
    """
    if isinstance(pred, Comparison):
        value = operand_value(pred.operand, params)
        return _compare_source(layout.slot(pred.column), pred.op, value, bind)
    if isinstance(pred, Between):
        cell = f"row[{layout.slot(pred.column)}]"
        low = operand_value(pred.low, params)
        high = operand_value(pred.high, params)
        if low is None or high is None:
            return _FALSE
        return f"({cell} is not None and {bind(low)} <= {cell} <= {bind(high)})"
    if isinstance(pred, InList):
        values = {v for v in pred.values if v is not None}
        if not values:
            return _FALSE
        return f"row[{layout.slot(pred.column)}] in {bind(values)}"
    if isinstance(pred, Like):
        return _like_source(f"row[{layout.slot(pred.column)}]", pred.pattern, bind)
    if isinstance(pred, IsNull):
        test = "is not None" if pred.negated else "is None"
        return f"row[{layout.slot(pred.column)}] {test}"
    if isinstance(pred, Or):
        terms = [_term_source(c, layout, params, bind) for c in pred.children]
        return "(" + " or ".join(terms) + ")"
    if isinstance(pred, JoinPredicate):
        left = f"row[{layout.slot(pred.left)}]"
        return f"({left} is not None and {left} == row[{layout.slot(pred.right)}])"
    raise ExecutionError(f"cannot compile predicate {pred!r}")


@lru_cache(maxsize=1024)
def kernel_code(source: str, mode: str):
    """``compile()`` memoized on the source text.  Kernels carry no values
    in their text, so every execution of a statement shape — whatever its
    bind parameters — finds its code objects here and pays only the
    namespace binding."""
    return compile(source, "<executor kernel>", mode)


#: ``rows -> matching rows``: one list comprehension per batch.
_BATCH_FORM = "lambda rows: [row for row in rows if {cond}]"
#: Requests for fewer rows than this (a LIMIT's last rows, an NLJN outer's
#: or a BUFCHECK valve's single-row pull, the tail of a wide request) are
#: served one row at a time.
_SCALAR_BELOW = 64
#: ``scan(source, pos, end, limit, poll) -> (matches, new pos)``: the first
#: ``limit`` rows of ``source[pos:end]`` that pass, and where scanning
#: stopped.  A wide request filters a window exactly as long as the rows
#: still wanted — it cannot overfill — in one comprehension; a narrow one
#: tests row by row and stops on the match that fills it.  Either way the
#: call consumes exactly up to the matching row that completes the request,
#: so the scanned count does not depend on how the rows were windowed.
#: ``poll`` (or ``None``) runs between windows, at most one batch width of
#: scanned rows apart.
_SCAN_FORM = """
def scan(source, pos, end, limit, poll):
    out = []
    while pos < end:
        need = limit - len(out)
        if need >= {scalar_below}:
            stop = min(end, pos + need)
            out += {window}
            pos = stop
            if len(out) == limit:
                break
        else:
            stop = min(end, pos + {scalar_below})
            while pos < stop:
                row = {row}
                pos += 1
                if {cond}:
                    out.append(row)
                    if len(out) == limit:
                        return out, pos
        if poll is not None:
            poll()
    return out, pos
"""


class _Kernel:
    """One conjunction under construction: its terms' source and the
    namespace their operands are bound in."""

    def __init__(self) -> None:
        self.names: dict[str, Any] = {}
        self.terms: list[str] = []

    def bind(self, value: Any) -> str:
        name = f"_v{len(self.names)}"
        self.names[name] = value
        return name

    @property
    def condition(self) -> str:
        """The conjunction as one expression; a constant-false term folds
        it, so such a filter touches no cell."""
        if _FALSE in self.terms:
            return _FALSE
        return " and ".join(self.terms) or "True"

    def expression(self, form: str):
        """``form`` over the conjunction, evaluated in the namespace."""
        source = form.format(cond=self.condition)
        return eval(kernel_code(source, "eval"), self.names)

    def scan(self, fetch=None):
        """:data:`_SCAN_FORM` over the conjunction; with ``fetch``,
        ``source`` holds rids that it turns into rows."""
        window, row = "source[pos:stop]", "source[pos]"
        if fetch is not None:
            self.names["fetch"] = fetch
            window, row = f"map(fetch, {window})", f"fetch({row})"
        if self.terms:
            window = f"[row for row in {window} if {self.condition}]"
        source = _SCAN_FORM.format(
            cond=self.condition, window=window, row=row, scalar_below=_SCALAR_BELOW
        )
        exec(kernel_code(source, "exec"), self.names)
        # Popped: the namespace is the function's globals and must not
        # point back at it (no cycle left for the collector).
        return self.names.pop("scan")


def _conjunction(
    preds: Sequence[Predicate], layout: RowLayout, params: dict[str, Any]
) -> _Kernel:
    kernel = _Kernel()
    for pred in preds:
        kernel.terms.append(_term_source(pred, layout, params, kernel.bind))
    return kernel


def compile_filter(
    preds: Sequence[Predicate], layout: RowLayout, params: dict[str, Any]
) -> Callable[[list], list]:
    """Compile an AND of predicates into ``rows -> matching rows``: one
    kernel call per batch, whatever the number of predicates.  With nothing
    to test the batch comes back as it is, uncopied.

    Parameter markers are resolved against ``params`` once, at compile time,
    so the kernel does no dictionary lookups per row.
    """
    if not preds:
        return lambda rows: rows
    return _conjunction(preds, layout, params).expression(_BATCH_FORM)


def compile_slot_filter(checks: Sequence[tuple[int, str, Any]]) -> Callable[[list], list]:
    """A batch filter over ``(slot, op, constant)`` comparisons (HAVING)."""
    kernel = _Kernel()
    for slot, op, value in checks:
        kernel.terms.append(_compare_source(slot, op, value, kernel.bind))
    return kernel.expression(_BATCH_FORM)


def compile_scan(
    preds: Sequence[Predicate], layout: RowLayout, params: dict[str, Any], fetch=None
):
    """The same conjunction as a scan loop, see :data:`_SCAN_FORM`."""
    return _conjunction(preds, layout, params).scan(fetch)
