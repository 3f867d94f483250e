"""sqlite3 comparator for differential testing of the SQL engine.

The engine in :mod:`repro.engine` is built from scratch; the cheapest way
to gain confidence in its SELECT semantics is to run the same statements
against sqlite3 (stdlib, battle-tested) and compare result multisets.
Property-based tests in ``tests/test_differential_sqlite.py`` use this.

Only the common dialect subset is comparable — no RANGEVALUE/RANGETABLE,
no positional inserts, and sqlite's dynamic typing means we normalise
values (ints/floats unified, TEXT affinity respected) before comparing.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.engine.database import Database

__all__ = ["SqliteComparator"]


def _normalise(value: Any) -> Any:
    if isinstance(value, bool):
        return float(int(value))
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _normalise_rows(rows: Iterable[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    out = [tuple(_normalise(value) for value in row) for row in rows]
    out.sort(key=repr)
    return out


class SqliteComparator:
    """Runs the same script against both engines and compares results."""

    def __init__(self) -> None:
        self.database = Database()
        self.connection = sqlite3.connect(":memory:")

    def close(self) -> None:
        self.connection.close()

    def setup(self, statements: Iterable[str]) -> None:
        for statement in statements:
            self.database.execute(statement)
            self.connection.execute(statement)
        self.connection.commit()

    def rows_match(self, query: str) -> Tuple[bool, List, List]:
        """Execute ``query`` on both engines; True when the (unordered)
        result multisets agree after normalisation."""
        ours = _normalise_rows(self.database.execute(query).rows)
        theirs = _normalise_rows(self.connection.execute(query).fetchall())
        return (ours == theirs, ours, theirs)

    def assert_match(self, query: str) -> None:
        ok, ours, theirs = self.rows_match(query)
        if not ok:
            raise AssertionError(
                f"engine disagreement on {query!r}:\n  ours:   {ours[:10]}\n"
                f"  sqlite: {theirs[:10]}"
            )

    def ordered_match(
        self, query: str, params: Sequence[Any] = ()
    ) -> Tuple[bool, List, List]:
        """Order-sensitive comparison (for ORDER BY queries, and for scans
        whose presentation order is insertion order on both engines)."""
        ours = [
            tuple(_normalise(v) for v in row)
            for row in self.database.execute(query, params).rows
        ]
        theirs = [
            tuple(_normalise(v) for v in row)
            for row in self.connection.execute(query, tuple(params)).fetchall()
        ]
        return (ours == theirs, ours, theirs)
