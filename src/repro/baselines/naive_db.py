"""The vanilla-RDBMS baseline for positional operations (experiment E5).

A plain relational database has no notion of presentation position (paper
§2.2: "databases completely lack interface aspects").  The standard
workaround is an explicit ``rownum`` column:

* fetching the window ``[pos, pos+k)`` = ``WHERE rownum >= pos AND
  rownum < pos+k`` — a full scan, O(n),
* inserting in the middle = renumber every later row, O(n) updates,
* deleting = same renumbering.

:class:`NaiveDbTable` implements exactly that on top of the same storage
engine DataSpread uses (same pages, same buffer pool), so E5 isolates the
*positional index* as the only difference.  Counters record rows scanned
and rows renumbered; the pool's IOStats record blocks touched.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.pager import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType

__all__ = ["NaiveDbTable"]

_ROWNUM = "_rownum"


class NaiveDbTable:
    """Rownum-emulated positional access over the shared storage engine."""

    def __init__(
        self,
        columns: Sequence[Tuple[str, DBType]],
        pool: Optional[BufferPool] = None,
        page_capacity: int = 128,
    ):
        schema_columns = [Column(_ROWNUM, DBType.INTEGER)] + [
            Column(name, dtype) for name, dtype in columns
        ]
        self.schema = TableSchema(schema_columns)
        self.store = GroupedTupleStore(
            self.schema, pool, LayoutPolicy.ROW, page_capacity
        )
        self.rows_scanned = 0
        self.rows_renumbered = 0

    @property
    def n_rows(self) -> int:
        return self.store.n_rows

    # -- reads (OFFSET-style scans) ------------------------------------------

    def row_at(self, position: int) -> Tuple[Any, ...]:
        """O(n): scan until the matching rownum is found."""
        for rid, row in self.store.scan():
            self.rows_scanned += 1
            if row[0] == position:
                return row[1:]
        raise IndexError(f"position {position} out of range")

    def window(self, position: int, count: int) -> List[Tuple[Any, ...]]:
        """O(n): full scan filtering on the rownum range, then sort."""
        hits: List[Tuple[int, Tuple[Any, ...]]] = []
        for rid, row in self.store.scan():
            self.rows_scanned += 1
            if position <= row[0] < position + count:
                hits.append((row[0], row[1:]))
        hits.sort()
        return [row for _, row in hits]

    def position_of(self, rid: int) -> int:
        """O(1): the stored rownum — true only because every insert and
        delete renumbers the rows after it."""
        return self.store.get(rid)[0]

    def scan_ordered(self) -> List[Tuple[Any, ...]]:
        rows = sorted(self.store.scan(), key=lambda item: item[1][0])
        self.rows_scanned += len(rows)
        return [row[1:] for _, row in rows]

    # -- writes (renumbering) ---------------------------------------------------

    def append(self, values: Sequence[Any]) -> int:
        return self.store.insert((self.store.n_rows,) + tuple(values))

    def insert_at(self, position: int, values: Sequence[Any]) -> int:
        """O(n): shift the rownum of every row at or after ``position``."""
        for rid, row in list(self.store.scan()):
            self.rows_scanned += 1
            if row[0] >= position:
                self.store.update_column(rid, _ROWNUM, row[0] + 1)
                self.rows_renumbered += 1
        return self.store.insert((position,) + tuple(values))

    def delete_at(self, position: int) -> Tuple[Any, ...]:
        """O(n): remove the row and renumber the tail."""
        victim_rid = None
        victim_row: Optional[Tuple[Any, ...]] = None
        for rid, row in list(self.store.scan()):
            self.rows_scanned += 1
            if row[0] == position:
                victim_rid, victim_row = rid, row
            elif row[0] > position:
                self.store.update_column(rid, _ROWNUM, row[0] - 1)
                self.rows_renumbered += 1
        if victim_rid is None:
            raise IndexError(f"position {position} out of range")
        self.store.delete(victim_rid)
        return victim_row[1:]

    def checkpoint(self) -> int:
        return self.store.checkpoint()
