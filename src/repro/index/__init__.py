"""Index structures.

* :mod:`repro.index.posmap` — the paper's **positional index** (§3):
  :class:`KeySequence`, a sequence of integer keys held as runs in a span
  treap, with O(log s) access/insert/delete by position and key → position
  lookup.  A table's presentation order is the key sequence of its rids;
  :class:`PositionalMapper` is the same structure over a fixed universe
  for the *interface* axes — logical row/column positions over stable
  physical cell keys, so structural edits splice the key space instead of
  moving cells.
* :mod:`repro.index.btree` — B+-tree key index used for primary keys and the
  key↔position mapping of the interface manager.
* :mod:`repro.index.index2d` — the tiled grid index over spreadsheet cell
  blocks (interface storage manager, §3).
"""

from repro.index.posmap import LOGICAL_MAX, KeySequence, PositionalMapper
from repro.index.btree import BPlusTree
from repro.index.index2d import GridIndex

__all__ = [
    "KeySequence",
    "PositionalMapper",
    "LOGICAL_MAX",
    "BPlusTree",
    "GridIndex",
]
