"""The positional index: a sequence of integer keys, stored as runs.

The paper's positional index (§3) makes "interface-oriented operations,
e.g., ordered presentation, efficient" — the crux being that inserting or
deleting a row in the *middle* of a table or a sheet must not renumber
everything below it.  :class:`KeySequence` is that index and the only
positional structure in the tree: distinct integer keys in presentation
order.

* A table's presentation order is the key sequence of its rids
  (``Table.positions``).
* A sheet axis (:class:`PositionalMapper`) is the key sequence of the
  *physical* keys its cells are stored under, so a structural edit is a
  key-space splice: inserting ``k`` rows at ``p`` puts ``k`` fresh keys at
  ``p`` — **zero stored cells move**, and every cell below simply answers
  to a logical position ``k`` higher.

Representation: keys come in runs (a store allocates rids contiguously, a
sheet axis starts as the identity), so the sequence is held as *spans* —
maximal runs of consecutive keys at consecutive positions — in a treap
weighted by span length, with parent pointers.  A bulk-loaded or appended
table is one span.  With ``s`` spans:

* ``key_at(pos)`` — O(log s) weighted descent,
* ``position_of(key)`` — O(log s): bisect for the span holding ``key``
  (span key intervals are disjoint), then rank it by climbing parent
  pointers, counted in ``counts.rank_steps`` (none on a one-span table),
* ``insert(at, key, count)`` / ``delete(at, count)`` — O(log s) splices,
  whatever the number of keys; keys that run on from a neighbouring span
  extend it, so appends keep a table at one span,
* ``intervals`` / ``keys`` / ``window`` / iteration — the order as one
  ``range`` per span, O(log s + spans covered).

A sheet axis is a fixed universe ``[0, LOGICAL_MAX)`` (2^40 slots — vastly
beyond any sheet); fresh keys are allocated past ``LOGICAL_MAX`` so they
can never collide with the identity mapping.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DataSpreadError

__all__ = ["KeySequence", "PositionalMapper", "LOGICAL_MAX"]

#: Size of the logical universe per sheet axis (positions 0 .. LOGICAL_MAX-1).
LOGICAL_MAX = 1 << 40


class _Span:
    """Keys ``[key, key+length)`` at ``length`` consecutive positions."""

    __slots__ = ("key", "length", "priority", "left", "right", "parent", "total")

    def __init__(self, key: int, length: int, priority: int):
        self.key = key
        self.length = length
        self.priority = priority
        self.left: Optional["_Span"] = None
        self.right: Optional["_Span"] = None
        self.parent: Optional["_Span"] = None
        self.total = length  # subtree length sum: the weight positions descend by

    def refresh(self) -> None:
        """Re-derive ``total`` and adopt both children.  Every child link is
        assigned just before a refresh, so only the root of a detached
        piece can carry a stale ``parent`` (see ``_set_root``)."""
        total = self.length
        left, right = self.left, self.right
        if left is not None:
            total += left.total
            left.parent = self
        if right is not None:
            total += right.total
            right.parent = self
        self.total = total


def _merge(left: Optional[_Span], right: Optional[_Span]) -> Optional[_Span]:
    if left is None:
        return right
    if right is None:
        return left
    if left.priority > right.priority:
        left.right = _merge(left.right, right)
        left.refresh()
        return left
    right.left = _merge(left, right.left)
    right.refresh()
    return right


def _cut(
    node: Optional[_Span], weight: int
) -> Tuple[Optional[_Span], Optional[_Span], Optional[_Span]]:
    """Split a subtree before position ``weight`` without carving: a span
    straddling the cut is detached whole and returned third."""
    if node is None:
        return None, None, None
    left_total = node.left.total if node.left is not None else 0
    if weight <= left_total:
        first, node.left, straddler = _cut(node.left, weight)
        node.refresh()
        return first, node, straddler
    if weight >= left_total + node.length:
        node.right, second, straddler = _cut(node.right, weight - left_total - node.length)
        node.refresh()
        return node, second, straddler
    first, second = node.left, node.right
    node.left = node.right = None
    return first, second, node


@dataclass
class _Counts:
    #: splices of a sheet axis (``PositionalMapper.splice``): 0 while pristine.
    splices: int = 0
    #: parent links climbed by position_of: its work, ≤ the treap's depth each.
    rank_steps: int = 0


class KeySequence:
    """Distinct integer keys in order, with O(log s) positional splices and
    an O(log s) key → position lookup (``s`` = runs of consecutive keys)."""

    def __init__(self, seed: int = 0xACE):
        self._rng = random.Random(seed)
        self._root: Optional[_Span] = None
        # Span key intervals are disjoint, so a sorted list of their starts
        # plus a dict to the owning span find the span holding any key with
        # one bisect.
        self._starts: List[int] = []
        self._span_at: Dict[int, _Span] = {}
        self.counts = _Counts()

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[int, int, int]]) -> "KeySequence":
        """The sequence ``intervals`` (as :meth:`intervals` returns them)
        spell out, built in O(s): balanced by midpoint recursion, heap
        order made by lifting each subtree's highest priority to its root."""
        sequence = cls()

        def build(lo: int, hi: int) -> Optional[_Span]:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            key_lo, key_hi, _ = intervals[mid]
            node = _Span(key_lo, key_hi - key_lo + 1, sequence._rng.getrandbits(62))
            sequence._span_at[key_lo] = node
            node.left, node.right = build(lo, mid), build(mid + 1, hi)
            for child in (node.left, node.right):
                if child is not None and child.priority > node.priority:
                    node.priority = child.priority
            node.refresh()
            return node

        sequence._set_root(build(0, len(intervals)))
        sequence._starts = sorted(sequence._span_at)
        return sequence

    # -- bookkeeping -------------------------------------------------------

    def _new_span(self, key: int, length: int) -> _Span:
        span = _Span(key, length, self._rng.getrandbits(62))
        bisect.insort(self._starts, key)
        self._span_at[key] = span
        return span

    def _drop_span(self, span: _Span) -> None:
        del self._starts[bisect.bisect_left(self._starts, span.key)]
        del self._span_at[span.key]

    def _set_root(self, root: Optional[_Span]) -> None:
        self._root = root
        if root is not None:
            root.parent = None

    def __len__(self) -> int:
        return self._root.total if self._root is not None else 0

    @property
    def n_spans(self) -> int:
        return len(self._span_at)

    # -- treap plumbing ------------------------------------------------------

    def _split(
        self, node: Optional[_Span], weight: int
    ) -> Tuple[Optional[_Span], Optional[_Span]]:
        """Split a subtree into (first ``weight`` positions, rest).

        A span straddling the cut is carved at the top of the split, once
        ``_cut`` has detached it: its tail becomes a new span with a fresh
        priority and each half is merged into its side, so heap order holds
        whatever the priorities.  (Carving in place, the tail would have to
        inherit the span's priority, and a run of carves — single-row
        deletes — turns the treap into a chain.)"""
        first, second, span = _cut(node, weight)
        if span is None:
            return first, second
        keep = weight - (first.total if first is not None else 0)
        tail = self._new_span(span.key + keep, span.length - keep)
        span.length = keep
        span.refresh()
        return _merge(first, span), _merge(tail, second)

    def _join(self, first: Optional[_Span], second: Optional[_Span]) -> Optional[_Span]:
        """Merge two pieces, fusing the span that ends ``first`` with the one
        that starts ``second`` when its keys run on — so spans stay maximal."""
        tail, head = first, second
        while tail is not None and tail.right is not None:
            tail = tail.right
        while head is not None and head.left is not None:
            head = head.left
        if tail is None or head is None or tail.key + tail.length != head.key:
            return _merge(first, second)
        _, second = self._split(second, head.length)
        self._drop_span(head)
        tail.length += head.length
        node = first
        while node is not None:  # the right spine down to ``tail``
            node.total += head.length
            node = node.right
        return _merge(first, second)

    def _collect_drop(self, node: Optional[_Span], out: List[Tuple[int, int]]) -> None:
        """Unregister every span in ``node``'s subtree, recording its keys
        as inclusive ``(lo, hi)`` pairs in order."""
        if node is None:
            return
        self._collect_drop(node.left, out)
        out.append((node.key, node.key + node.length - 1))
        self._drop_span(node)
        self._collect_drop(node.right, out)

    # -- reads -----------------------------------------------------------------

    def key_at(self, pos: int) -> int:
        """The key at position ``pos`` — O(log s)."""
        if not 0 <= pos < len(self):
            raise IndexError(f"position {pos} out of range for length {len(self)}")
        node = self._root
        while True:
            left_total = node.left.total if node.left is not None else 0
            if pos < left_total:
                node = node.left
            elif pos < left_total + node.length:
                return node.key + (pos - left_total)
            else:
                pos -= left_total + node.length
                node = node.right

    def position_of(self, key: int) -> Optional[int]:
        """Position of ``key``, or ``None`` when it is not (or no longer) in
        the sequence.  O(log s): bisect for the span holding it, then rank
        the span by climbing parent pointers, adding for every ancestor it
        hangs to the right of that ancestor and its left subtree."""
        index = bisect.bisect_right(self._starts, key) - 1
        if index < 0:
            return None
        span = self._span_at[self._starts[index]]
        if key >= span.key + span.length:
            return None
        rank = key - span.key + (span.left.total if span.left is not None else 0)
        node, parent, steps = span, span.parent, 0
        while parent is not None:
            if parent.right is node:
                rank += parent.total - node.total
            node, parent, steps = parent, parent.parent, steps + 1
        self.counts.rank_steps += steps
        return rank

    def intervals(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """Key intervals covering positions ``[lo, hi]`` (inclusive, clamped
        to the sequence), in order: ``(key_lo, key_hi, position_lo)``
        triples.  O(log s + overlapping spans); one triple for a single
        span."""
        lo, hi = max(lo, 0), min(hi, len(self) - 1)
        out: List[Tuple[int, int, int]] = []

        def rec(node: Optional[_Span], offset: int) -> None:
            if node is None or offset > hi or offset + node.total <= lo:
                return
            left_total = node.left.total if node.left is not None else 0
            rec(node.left, offset)
            span_lo = offset + left_total
            span_hi = span_lo + node.length - 1
            a, b = max(lo, span_lo), min(hi, span_hi)
            if a <= b:
                out.append((node.key + (a - span_lo), node.key + (b - span_lo), a))
            rec(node.right, span_hi + 1)

        if lo <= hi:
            rec(self._root, 0)
        return out

    def keys(self, lo: int, hi: int) -> Iterable[int]:
        """Keys at positions ``lo..hi`` (inclusive), in order, one ``range``
        per span — the rows (columns) a range bound to two corner keys
        currently spans."""
        return itertools.chain.from_iterable(
            range(key_lo, key_hi + 1) for key_lo, key_hi, _ in self.intervals(lo, hi)
        )

    def window(self, pos: int, count: int) -> List[int]:
        """Keys of the viewport rows ``[pos, pos+count)`` (clamped)."""
        return list(self.keys(pos, pos + count - 1))

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys(0, len(self) - 1))

    # -- splices ---------------------------------------------------------------

    def insert(self, at: int, key: int, count: int = 1) -> None:
        """Insert keys ``key .. key+count-1`` at position ``at`` (past the
        end: appended); positions ≥ ``at`` shift up.  O(log s)."""
        index = bisect.bisect_left(self._starts, key + count) - 1
        if index >= 0:
            span = self._span_at[self._starts[index]]
            if span.key + span.length > key:
                raise DataSpreadError(f"key {max(key, span.key)} is already in the sequence")
        first, second = self._split(self._root, at)
        self._set_root(self._join(self._join(first, self._new_span(key, count)), second))

    def delete(self, at: int, count: int = 1) -> List[Tuple[int, int]]:
        """Remove positions ``[at, at+count)``; positions above shift down.
        Returns the removed keys as inclusive ``(lo, hi)`` intervals in
        order.  O(log s + spans removed)."""
        first, rest = self._split(self._root, at)
        middle, second = self._split(rest, count)
        freed: List[Tuple[int, int]] = []
        self._collect_drop(middle, freed)
        self._set_root(self._join(first, second))
        return freed

    # -- verification -----------------------------------------------------------

    def validate(self) -> None:
        """Invariant check: weights, heap order, parent pointers, spans
        maximal and their key intervals disjoint, reverse-lookup table."""
        seen: List[_Span] = []

        def rec(node: Optional[_Span], parent: Optional[_Span]) -> int:
            if node is None:
                return 0
            if node.parent is not parent:
                raise DataSpreadError("parent pointer broken")
            if node.length <= 0:
                raise DataSpreadError("empty span")
            if parent is not None and node.priority > parent.priority:
                raise DataSpreadError("heap order broken")
            total = rec(node.left, node)
            seen.append(node)
            total += node.length + rec(node.right, node)
            if node.total != total:
                raise DataSpreadError("weight augmentation broken")
            return total

        rec(self._root, None)
        if any(a.key + a.length == b.key for a, b in zip(seen, seen[1:])):
            raise DataSpreadError("neighbouring spans run on: not fused")
        if self._starts != sorted(span.key for span in seen) or any(
            self._span_at.get(span.key) is not span for span in seen
        ):
            raise DataSpreadError("reverse-lookup table out of sync")
        by_key = sorted(seen, key=lambda span: span.key)
        if any(a.key + a.length > b.key for a, b in zip(by_key, by_key[1:])):
            raise DataSpreadError("key intervals overlap")


class PositionalMapper(KeySequence):
    """One sheet axis: logical position → stable physical key over the
    fixed universe ``[0, LOGICAL_MAX)``, the identity until its first
    splice."""

    def __init__(self, seed: int = 0xB0A):
        super().__init__(seed)
        self.insert(0, 0, LOGICAL_MAX)
        self._next_fresh = LOGICAL_MAX

    @property
    def pristine(self) -> bool:
        """True while the mapping is still the identity (no splice ever)."""
        return self.counts.splices == 0

    def splice(self, at: int, delta: int) -> List[Tuple[int, int]]:
        """Insert (``delta > 0``) or delete ``|delta|`` positions at ``at``;
        later positions shift, their physical keys do not.  An insert takes
        fresh keys and pushes as many positions off the end of the
        universe; a delete pads the end with fresh keys.  Returns the freed
        physical intervals (whose cells must be purged)."""
        count = min(abs(delta), LOGICAL_MAX - at)
        if count <= 0:
            return []
        self.counts.splices += 1
        fresh = self._next_fresh
        self._next_fresh += count
        if delta > 0:
            self.insert(at, fresh, count)
            return self.delete(LOGICAL_MAX, count)
        freed = self.delete(at, count)
        self.insert(LOGICAL_MAX - count, fresh, count)
        return freed
