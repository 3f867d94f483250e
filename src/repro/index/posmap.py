"""Positional mapping: logical row/column positions over stable physical keys.

The paper's positional index makes "interface-oriented operations, e.g.,
ordered presentation, efficient" — the crux being that inserting or
deleting a row in the *middle* of a sheet must not renumber everything
below it.  :class:`~repro.index.positional.PositionalIndex` already gives
a table that property; this module gives it to the **interface storage
manager**: cells are stored under immutable *physical* keys, and a
:class:`PositionalMapper` per axis translates the logical (presentation)
coordinate the user sees into the physical key the 2-D index stores.

A structural edit then becomes a *key-space splice*: inserting ``k`` rows
at position ``p`` carves ``k`` fresh physical keys into the mapping at
``p`` — **zero stored cells move**, and every cell below the edit simply
answers to a logical position one ``k`` higher.

Representation: the monotone logical→physical function is piecewise
translational, so the mapper holds *spans* — maximal runs of consecutive
logical positions mapping to consecutive physical keys — in a
weight-augmented order-statistic treap (the same structure backing
:mod:`repro.index.order_statistic`, augmented by span *length* instead of
node count, with parent pointers so the reverse lookup can rank a span in
O(log s)).  With ``s`` spans (``s ≤ 1 + 2·edits``):

* ``physical_of(pos)`` — O(log s) weighted descent,
* ``position_of(phys)`` — O(log s): bisect the span covering ``phys``
  (span physical intervals are disjoint), then rank it by climbing parent
  pointers — **not** the O(n) scan the naive reverse lookup needs,
* ``insert(at, k)`` / ``delete(at, k)`` — O(log s) splice, independent of
  how many cells or rows the sheet holds.

The logical axis is a fixed universe ``[0, LOGICAL_MAX)`` (2^40 slots —
vastly beyond any sheet); fresh physical keys are allocated past
``LOGICAL_MAX`` so they can never collide with the identity mapping.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DataSpreadError

__all__ = ["PositionalMapper", "LOGICAL_MAX"]

#: Size of the logical universe per axis (positions 0 .. LOGICAL_MAX-1).
LOGICAL_MAX = 1 << 40


class _Span:
    """A run of ``length`` logical positions mapping to physical keys
    ``[phys, phys+length)``."""

    __slots__ = ("phys", "length", "priority", "left", "right", "parent", "total")

    def __init__(self, phys: int, length: int, priority: int):
        self.phys = phys
        self.length = length
        self.priority = priority
        self.left: Optional["_Span"] = None
        self.right: Optional["_Span"] = None
        self.parent: Optional["_Span"] = None
        self.total = length  # subtree length sum (the order-statistic weight)

    def refresh(self) -> None:
        self.total = self.length
        if self.left is not None:
            self.total += self.left.total
            self.left.parent = self
        if self.right is not None:
            self.total += self.right.total
            self.right.parent = self


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


@dataclass
class _MapStats:
    lookups: int = 0
    reverse_lookups: int = 0
    splices: int = 0


class PositionalMapper:
    """Monotone logical-position → stable-physical-key mapping for one axis."""

    def __init__(self, seed: int = 0xB0A):
        import random

        self._rng = random.Random(seed)
        self._root: Optional[_Span] = None
        # Reverse lookup bookkeeping: span physical intervals are disjoint,
        # so a sorted list of interval starts + a dict to the owning span
        # finds the span covering any physical key with one bisect.
        self._phys_starts: List[int] = []
        self._span_at: Dict[int, _Span] = {}
        self._next_fresh = LOGICAL_MAX
        self.counts = _MapStats()
        self._set_root(self._new_span(0, LOGICAL_MAX))

    # -- bookkeeping -------------------------------------------------------

    def _new_span(self, phys: int, length: int, priority: Optional[int] = None) -> _Span:
        span = _Span(
            phys, length, self._rng.getrandbits(62) if priority is None else priority
        )
        bisect.insort(self._phys_starts, phys)
        self._span_at[phys] = span
        return span

    def _drop_span(self, span: _Span) -> None:
        index = bisect.bisect_left(self._phys_starts, span.phys)
        del self._phys_starts[index]
        del self._span_at[span.phys]

    def _set_root(self, root: Optional[_Span]) -> None:
        self._root = root
        if root is not None:
            root.parent = None

    @property
    def pristine(self) -> bool:
        """True while the mapping is still the identity (no splice ever)."""
        return self.counts.splices == 0

    @property
    def n_spans(self) -> int:
        return len(self._span_at)

    # -- treap plumbing ------------------------------------------------------

    def _split(
        self, node: Optional[_Span], weight: int
    ) -> Tuple[Optional[_Span], Optional[_Span]]:
        """Split a subtree into (first ``weight`` logical units, rest),
        carving a span in two when the cut falls inside it."""
        if node is None:
            return None, None
        left_total = node.left.total if node.left is not None else 0
        if weight <= left_total:
            first, second = self._split(node.left, weight)
            node.left = second
            node.refresh()
            if first is not None:
                first.parent = None
            return first, node
        if weight >= left_total + node.length:
            first, second = self._split(node.right, weight - left_total - node.length)
            node.right = first
            node.refresh()
            if second is not None:
                second.parent = None
            return node, second
        # The cut is interior to this span: carve off the remainder.  The
        # remainder inherits the node's priority so any ancestor adopting
        # the right half keeps the heap order (duplicates are fine).
        keep = weight - left_total
        remainder = self._new_span(node.phys + keep, node.length - keep, node.priority)
        node.length = keep
        right_subtree = node.right
        node.right = None
        node.refresh()
        second = _merge(remainder, right_subtree)
        if second is not None:
            second.parent = None
        return node, second

    def _collect_drop(self, node: Optional[_Span], out: List[Tuple[int, int]]) -> None:
        """Unregister every span in ``node``'s subtree, recording the freed
        physical intervals as inclusive ``(lo, hi)`` pairs."""
        if node is None:
            return
        self._collect_drop(node.left, out)
        out.append((node.phys, node.phys + node.length - 1))
        self._drop_span(node)
        self._collect_drop(node.right, out)

    # -- forward lookup -------------------------------------------------------

    def physical_of(self, pos: int) -> int:
        """Physical key of logical position ``pos`` — O(log s)."""
        if not (0 <= pos < LOGICAL_MAX):
            raise IndexError(f"logical position {pos} outside [0, {LOGICAL_MAX})")
        self.counts.lookups += 1
        node = self._root
        remaining = pos
        while node is not None:
            left_total = node.left.total if node.left is not None else 0
            if remaining < left_total:
                node = node.left
            elif remaining < left_total + node.length:
                return node.phys + (remaining - left_total)
            else:
                remaining -= left_total + node.length
                node = node.right
        raise DataSpreadError("positional mapper out of sync")  # pragma: no cover

    def intervals(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """Physical intervals covering logical ``[lo, hi]`` (inclusive), in
        logical order: ``(phys_lo, phys_hi, logical_lo)`` triples.

        O(log s + overlapping spans); the common un-spliced sheet yields a
        single triple."""
        if hi >= LOGICAL_MAX:
            hi = LOGICAL_MAX - 1
        if lo < 0:
            lo = 0
        if lo > hi:
            return []
        out: List[Tuple[int, int, int]] = []

        def rec(node: Optional[_Span], offset: int) -> None:
            if node is None or offset > hi or offset + node.total <= lo:
                return
            left_total = node.left.total if node.left is not None else 0
            rec(node.left, offset)
            span_lo = offset + left_total
            span_hi = span_lo + node.length - 1
            a = max(lo, span_lo)
            b = min(hi, span_hi)
            if a <= b:
                out.append((node.phys + (a - span_lo), node.phys + (b - span_lo), a))
            rec(node.right, span_hi + 1)

        rec(self._root, 0)
        return out

    def keys(self, lo: int, hi: int) -> Iterable[int]:
        """Physical keys of logical positions ``lo..hi`` (inclusive), in
        logical order — the rows (columns) a range bound to two corner
        keys currently spans."""
        if self.pristine:
            return range(max(lo, 0), min(hi, LOGICAL_MAX - 1) + 1)
        return itertools.chain.from_iterable(
            range(phys_lo, phys_hi + 1) for phys_lo, phys_hi, _ in self.intervals(lo, hi)
        )

    # -- reverse lookup -------------------------------------------------------

    def position_of(self, phys: int) -> Optional[int]:
        """Logical position currently mapped to physical key ``phys``, or
        ``None`` if the key was freed by a delete.  O(log s): bisect for the
        covering span, then rank it by climbing parent pointers — the
        bookkeeping that replaces the O(n) scan."""
        self.counts.reverse_lookups += 1
        index = bisect.bisect_right(self._phys_starts, phys) - 1
        if index < 0:
            return None
        span = self._span_at[self._phys_starts[index]]
        if phys >= span.phys + span.length:
            return None
        rank = span.left.total if span.left is not None else 0
        node = span
        while node.parent is not None:
            parent = node.parent
            if node is parent.right:
                rank += (parent.left.total if parent.left is not None else 0)
                rank += parent.length
            node = parent
        return rank + (phys - span.phys)

    # -- splices ---------------------------------------------------------------

    def insert(self, at: int, count: int) -> List[Tuple[int, int]]:
        """Insert ``count`` fresh positions at ``at``; positions ≥ ``at``
        shift up (their physical keys do not change).  Returns the physical
        intervals pushed off the end of the universe (empty in practice)."""
        if count <= 0 or at >= LOGICAL_MAX:
            return []
        self.counts.splices += 1
        first, second = self._split(self._root, at)
        fresh = self._new_span(self._next_fresh, count)
        self._next_fresh += count
        root = _merge(_merge(first, fresh), second)
        kept, overflow = self._split(root, LOGICAL_MAX)
        dropped: List[Tuple[int, int]] = []
        self._collect_drop(overflow, dropped)
        self._set_root(kept)
        return dropped

    def delete(self, at: int, count: int) -> List[Tuple[int, int]]:
        """Delete positions ``[at, at+count)``; positions above shift down
        (physical keys unchanged) and ``count`` fresh positions pad the end.
        Returns the freed physical intervals (whose cells must be purged)."""
        if count <= 0 or at >= LOGICAL_MAX:
            return []
        count = min(count, LOGICAL_MAX - at)
        self.counts.splices += 1
        first, rest = self._split(self._root, at)
        middle, second = self._split(rest, count)
        dropped: List[Tuple[int, int]] = []
        self._collect_drop(middle, dropped)
        pad = self._new_span(self._next_fresh, count)
        self._next_fresh += count
        self._set_root(_merge(_merge(first, second), pad))
        return dropped

    # -- verification -----------------------------------------------------------

    def validate(self) -> None:
        """Invariant check for property tests: weights, heap order, parent
        pointers, reverse-lookup table, and total universe size."""
        seen: List[_Span] = []

        def rec(node: Optional[_Span], parent: Optional[_Span]) -> int:
            if node is None:
                return 0
            if node.parent is not parent:
                raise DataSpreadError("parent pointer broken")
            if node.length <= 0:
                raise DataSpreadError("empty span")
            for child in (node.left, node.right):
                if child is not None and child.priority > node.priority:
                    raise DataSpreadError("heap order broken")
            total = rec(node.left, node) + node.length + rec(node.right, node)
            if node.total != total:
                raise DataSpreadError("weight augmentation broken")
            seen.append(node)
            return total

        if rec(self._root, None) != LOGICAL_MAX:
            raise DataSpreadError("universe size drifted")
        if {span.phys for span in seen} != set(self._span_at):
            raise DataSpreadError("reverse-lookup table out of sync")
        intervals = sorted((span.phys, span.phys + span.length) for span in seen)
        for (_, prev_end), (start, _) in zip(intervals, intervals[1:]):
            if start < prev_end:
                raise DataSpreadError("physical intervals overlap")
