"""Table schemas with *attribute groups* and cheap evolution.

Paper §2.2 (*Support for Dynamic Schema*): adding an attribute on a
spreadsheet is as natural as adding a tuple, so the database "should be able
to handle this schema change with an efficiency similar to tuple updates".
Paper §3 (*Relational Storage Manager*): "data is structured along a
collection of attribute groups, thereby radically reducing the disk blocks
that need an update during a schema change."

A :class:`TableSchema` therefore records, besides the ordered column list,
the partition of columns into attribute groups.  The hybrid store
(:mod:`repro.engine.store`) materialises one page chain per group, so
``ADD COLUMN`` only rewrites the group the column lands in — by default a
brand-new group, touching **zero** existing blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.types import DBType
from repro.errors import SchemaError

__all__ = ["Column", "TableSchema"]


@dataclass
class Column:
    """One attribute of a relation."""

    name: str
    dtype: DBType = DBType.TEXT
    primary_key: bool = False
    not_null: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.primary_key:
            self.not_null = True

    def rename(self, new_name: str) -> "Column":
        return Column(new_name, self.dtype, self.primary_key, self.not_null, self.default)


class TableSchema:
    """Ordered columns plus their partition into attribute groups.

    The *logical* column order (what ``SELECT *`` returns) is independent of
    the *physical* grouping.  ``group_of[name]`` gives the group index for a
    column; ``groups[g]`` lists the column names stored in group ``g``.
    """

    def __init__(
        self,
        columns: Sequence[Column],
        groups: Optional[Sequence[Sequence[str]]] = None,
    ):
        self._columns: List[Column] = []
        self._by_name: Dict[str, int] = {}
        for column in columns:
            self._add_column_internal(column)
        if not self._columns:
            raise SchemaError("a table needs at least one column")
        if groups is None:
            # Default physical layout: every column in one group (row store
            # behaviour) — the hybrid store overrides this when configured.
            groups = [[c.name for c in self._columns]]
        self._groups: List[List[str]] = [list(g) for g in groups if g]
        self._check_groups()

    # -- internal helpers ---------------------------------------------

    def _add_column_internal(self, column: Column) -> None:
        key = column.name.lower()
        if key in self._by_name:
            raise SchemaError(f"duplicate column {column.name!r}")
        self._by_name[key] = len(self._columns)
        self._columns.append(column)

    def _check_groups(self) -> None:
        seen = set()
        for group in self._groups:
            for name in group:
                key = name.lower()
                if key not in self._by_name:
                    raise SchemaError(f"group references unknown column {name!r}")
                if key in seen:
                    raise SchemaError(f"column {name!r} appears in two groups")
                seen.add(key)
        missing = set(self._by_name) - seen
        if missing:
            raise SchemaError(f"columns not assigned to any group: {sorted(missing)}")

    def _rebuild_names(self) -> None:
        self._by_name = {c.name.lower(): i for i, c in enumerate(self._columns)}

    # -- read API --------------------------------------------------------

    @property
    def columns(self) -> Tuple[Column, ...]:
        return tuple(self._columns)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self._columns]

    @property
    def groups(self) -> List[List[str]]:
        return [list(g) for g in self._groups]

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._columns[self._by_name[name.lower()]]
        except KeyError:
            raise SchemaError(f"no such column {name!r}") from None

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(f"no such column {name!r}") from None

    def group_of(self, name: str) -> int:
        key = name.lower()
        for group_index, group in enumerate(self._groups):
            if any(member.lower() == key for member in group):
                return group_index
        raise SchemaError(f"column {name!r} not in any group")

    def group_column_indexes(self, group_index: int) -> List[int]:
        """Logical column positions of the members of one group."""
        return [self.column_index(name) for name in self._groups[group_index]]

    @property
    def primary_key(self) -> Optional[str]:
        for column in self._columns:
            if column.primary_key:
                return column.name
        return None

    def copy(self) -> "TableSchema":
        return TableSchema(
            [Column(c.name, c.dtype, c.primary_key, c.not_null, c.default) for c in self._columns],
            [list(g) for g in self._groups],
        )

    def set_groups(self, groups: Sequence[Sequence[str]]) -> None:
        """Re-partition the columns into the given attribute groups.

        Used by stores at construction time to impose a layout policy
        (row store = one group, column store = one group per column).
        """
        self._groups = [list(g) for g in groups if g]
        self._check_groups()

    # -- evolution (the cheap-schema-change API) --------------------------

    def add_column(
        self,
        column: Column,
        group_index: Optional[int] = None,
        new_group: bool = True,
    ) -> int:
        """Add a column; returns the group index it was placed in.

        ``new_group=True`` (default) appends a fresh attribute group — the
        layout under which the hybrid store makes ADD COLUMN touch no
        existing blocks.  Passing ``group_index`` co-locates the column with
        an existing group instead (the store then rewrites just that group).
        """
        self._add_column_internal(column)
        if group_index is not None:
            if not (0 <= group_index < len(self._groups)):
                self._columns.pop()
                self._rebuild_names()
                raise SchemaError(f"no group {group_index}")
            self._groups[group_index].append(column.name)
            return group_index
        if new_group or not self._groups:
            self._groups.append([column.name])
            return len(self._groups) - 1
        self._groups[-1].append(column.name)
        return len(self._groups) - 1

    def drop_column(self, name: str) -> int:
        """Drop a column; returns the group index it was removed from.

        Dropping the last member of a group removes the (now empty) group.
        """
        if not self.has_column(name):
            raise SchemaError(f"no such column {name!r}")
        if self.n_columns == 1:
            raise SchemaError("cannot drop the only column")
        group_index = self.group_of(name)
        key = name.lower()
        self._groups[group_index] = [
            member for member in self._groups[group_index] if member.lower() != key
        ]
        removed_group = False
        if not self._groups[group_index]:
            del self._groups[group_index]
            removed_group = True
        del self._columns[self._by_name[key]]
        self._rebuild_names()
        return group_index if not removed_group else group_index

    def move_column(self, name: str, index: int) -> None:
        """Move a column to logical position ``index``; the physical
        grouping is untouched (the two orders are independent)."""
        column = self._columns.pop(self.column_index(name))
        self._columns.insert(index, column)
        self._rebuild_names()

    def rename_column(self, old: str, new: str) -> None:
        if not self.has_column(old):
            raise SchemaError(f"no such column {old!r}")
        if self.has_column(new) and old.lower() != new.lower():
            raise SchemaError(f"column {new!r} already exists")
        index = self.column_index(old)
        group_index = self.group_of(old)
        self._groups[group_index] = [
            new if member.lower() == old.lower() else member
            for member in self._groups[group_index]
        ]
        self._columns[index] = self._columns[index].rename(new)
        self._rebuild_names()

    # -- row helpers -----------------------------------------------------

    def split_row(self, row: Sequence[Any]) -> List[Tuple[Any, ...]]:
        """Split a logical row into per-group fragments (physical layout)."""
        if len(row) != self.n_columns:
            raise SchemaError(
                f"row has {len(row)} values, schema has {self.n_columns} columns"
            )
        fragments = []
        for group_index in range(self.n_groups):
            indexes = self.group_column_indexes(group_index)
            fragments.append(tuple(row[i] for i in indexes))
        return fragments

    def join_fragments(self, fragments: Sequence[Sequence[Any]]) -> Tuple[Any, ...]:
        """Reassemble a logical row from per-group fragments."""
        row: List[Any] = [None] * self.n_columns
        for group_index, fragment in enumerate(fragments):
            for offset, column_index in enumerate(self.group_column_indexes(group_index)):
                row[column_index] = fragment[offset]
        return tuple(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return self._columns == other._columns and self._groups == other._groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.dtype}" for c in self._columns)
        return f"TableSchema({cols}; groups={self._groups})"

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[str, DBType]],
        primary_key: Optional[str] = None,
        group_size: Optional[int] = None,
    ) -> "TableSchema":
        """Convenience constructor; ``group_size`` chunks columns into
        fixed-size attribute groups (``None`` = single group)."""
        columns = [
            Column(name, dtype, primary_key=(primary_key is not None and name == primary_key))
            for name, dtype in pairs
        ]
        groups = None
        if group_size is not None:
            if group_size <= 0:
                raise SchemaError("group_size must be positive")
            names = [c.name for c in columns]
            iterator = iter(names)
            groups = [
                list(chunk)
                for chunk in iter(lambda: list(itertools.islice(iterator, group_size)), [])
            ]
        return cls(columns, groups)
