"""B+-tree key index.

Used for primary-key lookups in :class:`~repro.engine.table.Table` and for
the interface manager's key↔position mapping (paper §3: "the interface
manager maintains a mapping between a tuple's key attribute and its
corresponding location").

The tree keeps all values in sorted leaves linked left-to-right, supporting
point lookups, ordered iteration and range scans.  Deletion is *lazy* (keys
are removed from leaves without merging underfull nodes) — the standard
engineering trade-off (PostgreSQL nbtree behaves similarly); asymptotic
bounds are preserved for our read-heavy uses and the structure stays simple
enough to verify exhaustively in property tests.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError

__all__ = ["BPlusTree"]

_ORDER = 32  # max keys per node


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[Any] = []       # separator keys; len == len(children) - 1
        self.children: List[Any] = []   # _Leaf or _Internal


class BPlusTree:
    """Sorted key → value map with range scans.

    ``unique=True`` (default) raises :class:`~repro.errors.StorageError` on
    duplicate inserts; with ``unique=False`` the value slot holds a list and
    lookups return lists.
    """

    def __init__(self, unique: bool = True):
        self.unique = unique
        self._root: Any = _Leaf()
        self._size = 0

    @classmethod
    def from_sorted(
        cls, keys: Sequence[Any], values: Sequence[Any], unique: bool = True
    ) -> "BPlusTree":
        """The tree mapping ``keys`` — sorted, equal keys in the order their
        ``values`` keep — to the aligned ``values``, built bottom-up in O(n):
        full leaves, then each level of separators over the one below.
        Refuses NULL and, when ``unique``, a repeated key, as :meth:`insert`
        does."""
        tree = cls(unique)
        tree._size = len(keys)
        if None in keys:
            raise StorageError("cannot index NULL key")
        if any(map(operator.eq, keys, itertools.islice(keys, 1, None))):  # a key repeats
            if unique:
                repeated = next(a for a, b in zip(keys, keys[1:]) if a == b)
                raise StorageError(f"duplicate key {repeated!r}")
            first, second = operator.itemgetter(0), operator.itemgetter(1)
            runs = itertools.groupby(zip(keys, values), first)
            keys, values = zip(*((key, list(map(second, run))) for key, run in runs))
        elif not unique:
            values = [[value] for value in values]
        level: List[Any] = []
        for start in range(0, len(keys), _ORDER):
            leaf = _Leaf()
            leaf.keys = list(keys[start : start + _ORDER])
            leaf.values = list(values[start : start + _ORDER])
            if level:
                level[-1].next = leaf
            level.append(leaf)
        firsts = keys[::_ORDER]  # each node's smallest key
        while len(level) > 1:
            step = -(-len(level) // -(-len(level) // (_ORDER + 1)))  # spread evenly
            above = []
            for start in range(0, len(level), step):
                node = _Internal()
                node.children = level[start : start + step]
                node.keys = list(firsts[start + 1 : start + step])
                above.append(node)
            level, firsts = above, firsts[::step]
        if level:
            tree._root = level[0]
        return tree

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        if key is None:
            raise StorageError("cannot index NULL key")
        result = self._insert(self._root, key, value)
        if result is not None:
            separator, right = result
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: Any, key: Any, value: Any):
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if self.unique:
                    raise StorageError(f"duplicate key {key!r}")
                node.values[index].append(value)
                self._size += 1
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value if self.unique else [value])
            self._size += 1
            if len(node.keys) > _ORDER:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[index], key, value)
        if result is None:
            return None
        separator, right = result
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > _ORDER:
            return self._split_internal(node)
        return None

    @staticmethod
    def _split_leaf(leaf: _Leaf) -> Tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    @staticmethod
    def _split_internal(node: _Internal) -> Tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return separator, right

    # -- deletion (lazy) -------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> bool:
        """Remove ``key`` (or, for non-unique trees, one ``value`` under the
        key).  Returns True if something was removed."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        if self.unique:
            del leaf.keys[index]
            del leaf.values[index]
            self._size -= 1
            return True
        bucket = leaf.values[index]
        if value is None:
            self._size -= len(bucket)
            del leaf.keys[index]
            del leaf.values[index]
            return True
        try:
            bucket.remove(value)
        except ValueError:
            return False
        self._size -= 1
        if not bucket:
            del leaf.keys[index]
            del leaf.values[index]
        return True

    # -- iteration ----------------------------------------------------------------

    def _leftmost(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def items(self) -> Iterator[Tuple[Any, Any]]:
        leaf: Optional[_Leaf] = self._leftmost()
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                yield key, value
            leaf = leaf.next

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` for keys in the given interval."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost()
            start = 0
        else:
            leaf = self._find_leaf(low)
            start = (
                bisect.bisect_left(leaf.keys, low)
                if include_low
                else bisect.bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            for index in range(start, len(leaf.keys)):
                key = leaf.keys[index]
                if high is not None:
                    if include_high and key > high:
                        return
                    if not include_high and key >= high:
                        return
                yield key, leaf.values[index]
            leaf = leaf.next
            start = 0

    # -- verification -----------------------------------------------------------

    def validate(self) -> None:
        """Check sortedness and separator invariants (property tests)."""
        previous = None
        count = 0
        for key, value in self.items():
            if previous is not None and key <= previous:
                raise StorageError("keys out of order")
            previous = key
            count += len(value) if not self.unique else 1
        if count != self._size:
            raise StorageError(f"size drift: counted {count}, recorded {self._size}")
