"""The positional index: table position ↔ record id.

Paper §3: "We introduce a new type of index, positional, which makes
interface-oriented operations, e.g., ordered presentation, efficient."

A table's rows have a *presentation order* (the order they appear on the
sheet).  Stores address rows by immutable rids; the positional index is the
sequence of rids in presentation order, backed by the order-statistic tree,
so that

* ``rid_at(pos)`` / ``window(pos, k)`` — what the viewport needs — are
  O(log n) / O(k + log n),
* ``insert_at(pos, rid)`` / ``delete_at(pos)`` — a row added or removed in
  the *middle* of the displayed table — are O(log n) instead of the O(n)
  renumbering a rownum column would need (experiment E5's baseline),
* ``position_of(rid)`` — where a row an index probe found is shown — is
  O(log n) too: the tree keeps rid → node and ranks the node by climbing
  its parent links (a rownum column answers by reading the stored number,
  which is exactly what it renumbers on every insert to keep true).

The index also counts its operations so benchmarks can report logical work
alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.index.order_statistic import OrderStatisticTree

__all__ = ["PositionalIndex"]


@dataclass
class _OpCounts:
    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    window_fetches: int = 0
    #: parent links climbed by position_of: its work, ≤ the tree's depth each.
    rank_steps: int = 0


class PositionalIndex:
    """Sequence of rids in presentation order."""

    def __init__(self, rids: Optional[Sequence[int]] = None, seed: int = 0xACE):
        self._tree: OrderStatisticTree[int] = OrderStatisticTree(rids, seed=seed)
        self.counts = _OpCounts()

    def __len__(self) -> int:
        return len(self._tree)

    # -- reads -------------------------------------------------------------

    def rid_at(self, pos: int) -> int:
        self.counts.lookups += 1
        return self._tree.get(pos)

    def window(self, pos: int, count: int) -> List[int]:
        """Rids for the viewport rows ``[pos, pos+count)`` (clamped)."""
        self.counts.window_fetches += 1
        return list(self._tree.iter_slice(pos, count))

    def __iter__(self) -> Iterator[int]:
        return iter(self._tree)

    def to_list(self) -> List[int]:
        return self._tree.to_list()

    # -- writes ---------------------------------------------------------------

    def insert_at(self, pos: int, rid: int) -> None:
        self.counts.inserts += 1
        self._tree.insert(pos, rid)

    def append(self, rid: int) -> None:
        self.counts.inserts += 1
        self._tree.append(rid)

    def insert_many_at(self, pos: int, rids: Sequence[int]) -> None:
        self.counts.inserts += len(rids)
        self._tree.insert_slice(pos, rids)

    def delete_at(self, pos: int) -> int:
        self.counts.deletes += 1
        return self._tree.delete(pos)

    def delete_many_at(self, pos: int, count: int) -> List[int]:
        self.counts.deletes += count
        return self._tree.delete_slice(pos, count)

    def move(self, from_pos: int, to_pos: int) -> None:
        """Reorder one row (drag a row to a new place on the sheet).

        ``to_pos`` is the row's position in the **resulting** sequence:
        after ``move(f, t)``, ``rid_at(t)`` returns the moved rid (``t``
        clamps to the end).  Because the rid is removed first, ``to_pos``
        indexes the already-shortened sequence directly — no off-by-one
        adjustment is needed for forward moves."""
        rid = self.delete_at(from_pos)
        self.insert_at(min(to_pos, len(self)), rid)

    def position_of(self, rid: int) -> Optional[int]:
        """Presentation position of ``rid``, or None when it is not (or no
        longer) in the index — O(log n), see the tree's ``rank_of``."""
        found = self._tree.rank_of(rid)
        if found is None:
            return None
        self.counts.rank_steps += found[1]
        return found[0]

    def validate(self) -> None:
        self._tree.validate()
