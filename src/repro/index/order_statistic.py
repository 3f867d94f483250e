"""Order-statistic tree: a sequence with O(log n) positional operations.

The paper introduces "a new type of index, positional, which makes
interface-oriented operations, e.g., ordered presentation, efficient" (§3).
The crux is a data structure that supports, all in logarithmic time:

* ``get(pos)`` — fetch the element currently at a position,
* ``insert(pos, x)`` — insert, implicitly renumbering everything after,
* ``delete(pos)`` — remove, implicitly renumbering,
* slicing — fetch the window ``[pos, pos+k)`` the interface is showing,
* ``rank_of(x)`` — where an element is now: elements are distinct, a dict
  finds the node, and parent links rank it by climbing to the root.

A naive database emulation (``ORDER BY rownum LIMIT 1 OFFSET pos`` plus
renumbering on insert) is O(n) per operation; experiment E5 charts the gap.

The implementation is a size-augmented **treap** with deterministic,
seed-derived priorities (so test runs and benchmarks are reproducible).
Treaps give expected O(log n) with far less code than B-tree deletion, and
``split``/``merge`` make *range* inserts and deletes (inserting k rows in
the middle of a sheet) O(k + log n).
"""

from __future__ import annotations

import random
from typing import Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import DataSpreadError

__all__ = ["OrderStatisticTree"]

T = TypeVar("T")


class _Node(Generic[T]):
    __slots__ = ("value", "priority", "size", "left", "right", "parent")

    def __init__(self, value: T, priority: int):
        self.value = value
        self.priority = priority
        self.size = 1
        self.left: Optional["_Node[T]"] = None
        self.right: Optional["_Node[T]"] = None
        self.parent: Optional["_Node[T]"] = None

    def refresh(self) -> None:
        """Re-derive ``size`` and adopt both children.  Every child link is
        assigned just before a refresh, so only the root of a detached
        piece can carry a stale ``parent`` (see ``_set_root``)."""
        size = 1
        left, right = self.left, self.right
        if left is not None:
            size += left.size
            left.parent = self
        if right is not None:
            size += right.size
            right.parent = self
        self.size = size


def _merge(left: Optional[_Node], right: Optional[_Node]) -> Optional[_Node]:
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


def _split(node: Optional[_Node], count: int):
    """Split into (first ``count`` elements, rest)."""
    if node is None:
        return None, None
    left_size = node.left.size if node.left is not None else 0
    if count <= left_size:
        first, second = _split(node.left, count)
        node.left = second
        node.refresh()
        return first, node
    first, second = _split(node.right, count - left_size - 1)
    node.right = first
    node.refresh()
    return node, second


class OrderStatisticTree(Generic[T]):
    """A mutable sequence of distinct hashable values with logarithmic
    positional updates and a logarithmic value → position lookup."""

    def __init__(self, values: Optional[Sequence[T]] = None, seed: int = 0x5EED):
        self._rng = random.Random(seed)
        self._root: Optional[_Node[T]] = None
        # value -> its node: where rank_of starts its climb.
        self._nodes: Dict[T, _Node[T]] = {}
        if values:
            self._set_root(self._build(list(values)))

    # -- construction -----------------------------------------------------

    def _set_root(self, root: Optional[_Node[T]]) -> None:
        self._root = root
        if root is not None:
            root.parent = None

    def _new_node(self, value: T) -> _Node[T]:
        if value in self._nodes:
            raise DataSpreadError(f"value {value!r} is already in the sequence")
        node = self._nodes[value] = _Node(value, self._rng.getrandbits(62))
        return node

    def _build(self, values: List[T]) -> Optional[_Node[T]]:
        """O(n) bulk load: balanced by construction (midpoint recursion),
        the heap invariant established by lifting the subtree maximum to
        the root (duplicate priorities are fine for treap correctness)."""
        fresh = set(values)
        if len(fresh) != len(values) or not self._nodes.keys().isdisjoint(fresh):
            raise DataSpreadError("values are already in the sequence or repeat")

        def rec(lo: int, hi: int) -> Optional[_Node[T]]:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            node = self._new_node(values[mid])
            node.left = rec(lo, mid)
            node.right = rec(mid + 1, hi)
            for child in (node.left, node.right):
                if child is not None and child.priority > node.priority:
                    node.priority = child.priority
            node.refresh()
            return node

        return rec(0, len(values))

    # -- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    def _check_pos(self, pos: int, upper: int) -> int:
        if pos < 0:
            pos += len(self)
        if not (0 <= pos < upper):
            raise IndexError(f"position {pos} out of range for size {len(self)}")
        return pos

    def _node_at(self, pos: int) -> _Node[T]:
        pos = self._check_pos(pos, len(self))
        node = self._root
        while node is not None:
            left_size = node.left.size if node.left is not None else 0
            if pos < left_size:
                node = node.left
            elif pos == left_size:
                return node
            else:
                pos -= left_size + 1
                node = node.right
        raise DataSpreadError("unreachable: tree size out of sync")

    def get(self, pos: int) -> T:
        return self._node_at(pos).value

    def set(self, pos: int, value: T) -> None:
        node = self._node_at(pos)
        if self._nodes.get(value, node) is not node:
            raise DataSpreadError(f"value {value!r} is already in the sequence")
        del self._nodes[node.value]
        node.value = value
        self._nodes[value] = node

    def rank_of(self, value: T) -> Optional[Tuple[int, int]]:
        """``(position, parent links climbed)`` of ``value``, or None when
        it is not in the sequence — O(log n): its rank is its left subtree
        plus, for every ancestor it hangs to the right of, that ancestor
        and its left subtree (``parent.size - node.size``)."""
        node = self._nodes.get(value)
        if node is None:
            return None
        rank = node.left.size if node.left is not None else 0
        steps = 0
        parent = node.parent
        while parent is not None:
            if parent.right is node:
                rank += parent.size - node.size
            steps += 1
            node, parent = parent, parent.parent
        return rank, steps

    # -- mutation ----------------------------------------------------------

    def _insert_pos(self, pos: int) -> int:
        if pos < 0:
            pos += len(self) + 1
        if not (0 <= pos <= len(self)):
            raise IndexError(f"insert position {pos} out of range for size {len(self)}")
        return pos

    def insert(self, pos: int, value: T) -> None:
        pos = self._insert_pos(pos)
        node = self._new_node(value)  # may refuse: before the tree is split
        first, second = _split(self._root, pos)
        self._set_root(_merge(_merge(first, node), second))

    def append(self, value: T) -> None:
        """Insert at the end: one merge down the right spine, no split."""
        self._set_root(_merge(self._root, self._new_node(value)))

    def delete(self, pos: int) -> T:
        pos = self._check_pos(pos, len(self))
        first, rest = _split(self._root, pos)
        target, second = _split(rest, 1)
        assert target is not None
        self._set_root(_merge(first, second))
        del self._nodes[target.value]
        return target.value

    def insert_slice(self, pos: int, values: Sequence[T]) -> None:
        """Insert ``values`` starting at ``pos`` in O(k + log n)."""
        pos = self._insert_pos(pos)
        if not values:
            return
        middle = self._build(list(values))
        first, second = _split(self._root, pos)
        self._set_root(_merge(_merge(first, middle), second))

    def delete_slice(self, pos: int, count: int) -> List[T]:
        """Delete ``count`` elements starting at ``pos``; returns them."""
        if count < 0:
            raise IndexError("count must be non-negative")
        if count == 0:
            return []
        pos = self._check_pos(pos, len(self))
        if pos + count > len(self):
            raise IndexError(f"slice [{pos}, {pos + count}) exceeds size {len(self)}")
        first, rest = _split(self._root, pos)
        middle, second = _split(rest, count)
        self._set_root(_merge(first, second))
        removed = _collect(middle)
        for value in removed:
            del self._nodes[value]
        return removed

    # -- iteration -----------------------------------------------------------

    def iter_slice(self, pos: int, count: int) -> Iterator[T]:
        """Iterate the window ``[pos, pos+count)`` — the viewport fetch."""
        return _walk(self._root, max(pos, 0), count)

    def __iter__(self) -> Iterator[T]:
        return _walk(self._root, 0, len(self))

    def to_list(self) -> List[T]:
        """The whole sequence at once — a third faster than ``list(self)``,
        which resumes the lazy walk once per element."""
        return _collect(self._root)

    # -- verification ---------------------------------------------------------

    def validate(self) -> None:
        """Check size augmentation, heap order, parent links and that the
        value → node map holds exactly the nodes in the tree."""
        nodes = self._nodes

        def rec(node: Optional[_Node], parent: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.parent is not parent:
                raise DataSpreadError("parent pointer broken")
            if nodes.get(node.value) is not node:
                raise DataSpreadError("value -> node map out of sync")
            if node.size != rec(node.left, node) + rec(node.right, node) + 1:
                raise DataSpreadError("size augmentation broken")
            if parent is not None and node.priority > parent.priority:
                raise DataSpreadError("heap order broken")
            return node.size

        if rec(self._root, None) != len(nodes):
            raise DataSpreadError("value -> node map out of sync")


def _collect(node: Optional[_Node]) -> List:
    """Every value of the subtree, in order, eagerly."""
    out: List = []
    stack = []
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        out.append(node.value)
        node = node.right
    return out


def _walk(node: Optional[_Node], skip: int, count: int) -> Iterator:
    """Lazily yield up to ``count`` in-order values of the subtree from
    rank ``skip`` on: descend to that rank keeping the ancestors still to
    be visited, then continue the in-order walk from there."""
    stack = []
    while node is not None:
        left_size = node.left.size if node.left is not None else 0
        if skip <= left_size:
            stack.append(node)
            if skip == left_size:
                break
            node = node.left
        else:
            skip -= left_size + 1
            node = node.right
    while stack and count > 0:
        node = stack.pop()
        yield node.value
        count -= 1
        node = node.right
        while node is not None:
            stack.append(node)
            node = node.left
