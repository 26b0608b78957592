"""Independent reference: the same rows in stdlib ``sqlite3``, the same SQL.

The engine under test is never its own reference.  During set-up every
table is copied into a ``:memory:`` sqlite database; each distinct statement
of a workload is then run on both sides and the results compared:

* ``ORDER BY`` statements: the sequence of sort-key values must agree
  position by position, which checks the ordering and, under ``LIMIT``,
  that the same top-k keys were chosen (rows that tie on the key may
  legitimately differ, so a ``LIMIT`` statement is compared on the key only);
* every statement without ``LIMIT``: the row multisets must agree.

Floats compare with a relative tolerance of 1e-9 (and 1e-6 absolute), because
the two engines add in a different order.
"""

from __future__ import annotations

import math
import re
import sqlite3
from datetime import date, timedelta
from typing import Optional, Sequence

_SQLITE_TYPE = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "date": "TEXT"}
_EPOCH = date(1970, 1, 1)
_ORDER_BY = re.compile(r"\bORDER\s+BY\b(.*?)(?:\bLIMIT\b|$)", re.I | re.S)
_LIMIT = re.compile(r"\bLIMIT\b", re.I)


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def _rows_close(left: Sequence[tuple], right: Sequence[tuple]) -> bool:
    return all(
        len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


def _sort_key(row: tuple) -> tuple:
    """Total order over mixed rows: NULLs first, floats coarsened so the two
    engines' last-digit differences cannot reorder neighbours."""
    return tuple(
        (0, 0) if v is None
        else (1, float(f"{v:.7g}")) if isinstance(v, float)
        else (1, v)
        for v in row
    )


def order_by_columns(sql: str, column_names: Sequence[str]) -> list[int]:
    """Positions, in the select list, of the statement's ORDER BY items."""
    match = _ORDER_BY.search(sql)
    if match is None:
        return []
    lowered = [name.lower() for name in column_names]
    positions = []
    for item in match.group(1).split(","):
        name = item.split()[0].lower()
        bare = name.rsplit(".", 1)[-1]
        positions.append(
            lowered.index(name) if name in lowered else lowered.index(bare)
        )
    return positions


class Oracle:
    """One sqlite3 ``:memory:`` database holding a workload's tables."""

    def __init__(self) -> None:
        self.con = sqlite3.connect(":memory:", check_same_thread=False)
        # The engine's LIKE is case-sensitive; sqlite's default is not.
        self.con.execute("PRAGMA case_sensitive_like = ON")
        self._reference: dict[str, tuple[list[tuple], list[int]]] = {}

    def load(self, table: str, columns: Sequence[tuple[str, str]], rows) -> None:
        """Create ``table`` and copy ``rows`` (engine-internal DATE day
        numbers become ISO text, so the SQL's date literals compare)."""
        ddl = ", ".join(f"{name} {_SQLITE_TYPE[dtype]}" for name, dtype in columns)
        self.con.execute(f"CREATE TABLE {table} ({ddl})")
        dates = [i for i, (_, dtype) in enumerate(columns) if dtype == "date"]
        if dates:
            rows = [
                tuple(
                    (_EPOCH + timedelta(days=v)).isoformat() if i in dates else v
                    for i, v in enumerate(row)
                )
                for row in rows
            ]
        marks = ",".join("?" * len(columns))
        self.con.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def index(self, name: str, table: str, column: str) -> None:
        self.con.execute(f"CREATE INDEX {name} ON {table} ({column})")

    def close(self) -> None:
        self.con.close()

    def reference(self, sql: str) -> tuple[list[tuple], list[int]]:
        """sqlite's rows for ``sql`` and its ORDER BY positions (cached)."""
        cached = self._reference.get(sql)
        if cached is None:
            cursor = self.con.execute(sql)
            names = [d[0] for d in cursor.description]
            cached = (cursor.fetchall(), order_by_columns(sql, names))
            self._reference[sql] = cached
        return cached

    def check(self, sql: str, rows: Sequence[Sequence]) -> Optional[str]:
        """``None`` when ``rows`` agree with sqlite, else what differs."""
        expected, key_positions = self.reference(sql)
        got = [tuple(row) for row in rows]
        if len(got) != len(expected):
            return f"{len(got)} rows, sqlite has {len(expected)}"
        if key_positions:
            def keys(rs):
                return [tuple(r[i] for i in key_positions) for r in rs]

            if not _rows_close(keys(got), keys(expected)):
                return "ORDER BY key sequence differs from sqlite"
        if _LIMIT.search(sql) is None and not _rows_close(
            sorted(got, key=_sort_key), sorted(expected, key=_sort_key)
        ):
            return "row multiset differs from sqlite"
        return None
