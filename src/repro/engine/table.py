"""Tables: schema + physical store + positional index + key index.

A table row has three identities:

* its **rid** — immutable storage handle assigned by the store,
* its **position** — 0-based presentation order, maintained by the
  positional index (paper §3) so the interface can show rows in a stable,
  user-visible order and fetch any window in O(log n + window),
* its **primary key** (optional) — the database identity the interface
  manager uses to translate sheet edits into updates (paper §3, Interface
  Manager).

Every row change — insert, update, delete, and the undo of each — is one
call of :meth:`Table._change`, which holds the store's mutation lock across
the whole change: all key constraints are checked before anything is
touched, then the store, the positional index and every key index (the
primary key's included) are written together and the inverse is handed to
the open statement's undo scope; once the lock is released the
:class:`ChangeEvent` that drives the two-way sync layer is emitted.
``insert`` / ``update_rid`` / ``delete_at`` / ``delete_rids`` only work out
the before and after row; nothing else in the engine calls the store's row
mutators.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER
from repro.engine.hybridstore import restructure_blocks
from repro.engine.layout import LayoutAdvisor, LayoutMigration, LayoutRecommendation
from repro.engine.pager import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.store import DEFAULT_BATCH_SIZE, GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType, coerce_value
from repro.errors import ConstraintError, ExecutionError, SchemaError, StorageError
from repro.index.btree import BPlusTree
from repro.index.posmap import KeySequence

__all__ = ["Table", "ChangeEvent", "TableIndex"]

#: The class a type's coerced values have: :func:`coerce_value` returns
#: such a value unchanged (a float only when it is not NaN).
_EXACT_CLASS = {
    DBType.INTEGER: int, DBType.REAL: float, DBType.TEXT: str,
    DBType.BOOLEAN: bool, DBType.DATE: date,
}


def _coerce_column(values: List[Any], dtype: DBType) -> None:
    """Coerce one column in place, as :func:`coerce_value` would value by
    value — which only the values not of the exact class need."""
    exact = _EXACT_CLASS.get(dtype)
    classes = set(map(type, values)) - {type(None), exact}
    if not classes and (exact is not float or all(value == value for value in values)):
        return
    for index, value in enumerate(values):
        if value is not None:
            values[index] = coerce_value(value, dtype)


@dataclass
class TableIndex:
    """One key index: ``column`` value → rid (unique) or rid bucket.

    NULL keys are not indexed (SQL: NULL never equals anything, and an
    ``IS NULL`` probe is served by zone maps instead), so ``len(tree)``
    counts the *non-null* rows only.  The primary key is one of these
    (``Table.primary_index``: unique, NULL rejected, neither persisted nor
    droppable — it follows from the schema)."""

    name: str
    column: str
    unique: bool
    tree: BPlusTree = field(default_factory=BPlusTree)


@dataclass(frozen=True)
class ChangeEvent:
    """A committed change, delivered to sync listeners.

    ``kind`` is one of ``insert``, ``update``, ``delete``, ``add_column``,
    ``drop_column``, ``rename_column`` and — from the database, not the
    table — ``create_table`` / ``drop_table``.  ``position`` is the
    presentation position the change happened at (None for schema
    changes)."""

    table: str
    kind: str
    position: Optional[int] = None
    rid: Optional[int] = None
    row: Optional[Tuple[Any, ...]] = None
    old_row: Optional[Tuple[Any, ...]] = None
    column: Optional[str] = None
    extra: Optional[str] = None


class Table:
    """One relation with positional presentation order."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        layout: LayoutPolicy = LayoutPolicy.HYBRID,
        pool: Optional[BufferPool] = None,
        page_capacity: int = 128,
    ):
        self.name = name
        self.schema = schema
        self.store = GroupedTupleStore(schema, pool, layout, page_capacity, owner=name)
        # The positional index: rids in presentation order.
        self.positions = KeySequence()
        # Adaptive layout: off by default; ALTER TABLE ... SET LAYOUT AUTO
        # (or set_auto_layout) turns the advisor loop on.
        self.auto_layout = False
        # Page encodings ride the same maintenance loop; turn this off to
        # keep an auto-layout table migrating on plain pages only (used
        # by benchmarks that isolate the advisor's grouping decisions).
        self.auto_encode = True
        self.layout_advisor = LayoutAdvisor()
        self.layout_stats_horizon = 2048
        self._layout_migration: Optional[LayoutMigration] = None
        self.primary_index: Optional[TableIndex] = None
        if schema.primary_key is not None:
            self.primary_index = TableIndex("PRIMARY", schema.primary_key, True)
        # Named (CREATE INDEX) indexes by lowered index name.
        self.indexes: Dict[str, TableIndex] = {}
        # The owning Database's TransactionManager (wired in on attach):
        # while one of its statement scopes is open, _change hands it each
        # change's inverse.  None = nothing to undo into.
        self.transactions = None
        self.listeners: List[Callable[[ChangeEvent], None]] = []
        # Maintenance event sink (a repro.obs.EventLog); the owning
        # Database wires its shared log in on attach.  None = no eventing.
        self.events = None
        # Runtime invariant checks; the catalog swaps in the database's
        # Sanitizer when sanitize mode is on.
        self.sanitizer = NULL_SANITIZER

    # -- basics -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.store.n_rows

    @property
    def column_names(self) -> List[str]:
        return self.schema.column_names

    def _emit(self, event: ChangeEvent) -> None:
        for listener in self.listeners:
            listener(event)

    def _record_event(self, kind: str, **data: Any) -> None:
        if self.events is not None:
            self.events.record(kind, table=self.name, **data)

    # -- validation -----------------------------------------------------------

    def _prepare_row(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        if len(values) != self.schema.n_columns:
            raise ExecutionError(
                f"table {self.name!r} expects {self.schema.n_columns} values, "
                f"got {len(values)}"
            )
        prepared = []
        for column, value in zip(self.schema.columns, values):
            coerced = coerce_value(value, column.dtype)
            if coerced is None:
                coerced = column.default
                if coerced is None and column.not_null:
                    raise self._null_violation(column)
            prepared.append(coerced)
        return tuple(prepared)

    def _null_violation(self, column: Column) -> ConstraintError:
        return ConstraintError(
            f"column {column.name!r} of table {self.name!r} is NOT NULL"
        )

    # -- reads ---------------------------------------------------------------

    def rid_at(self, position: int) -> int:
        return self.positions.key_at(position)

    def row_at(self, position: int) -> Tuple[Any, ...]:
        return self.store.get(self.positions.key_at(position))

    def get(self, rid: int) -> Tuple[Any, ...]:
        return self.store.get(rid)

    def window(self, position: int, count: int) -> List[Tuple[Any, ...]]:
        """The viewport fetch: rows ``[position, position+count)`` in
        presentation order — O(log n + count)."""
        return [self.store.get(rid) for rid in self.positions.window(position, count)]

    def scan(self) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
        """Yield ``(position, rid, row)`` in presentation order.

        The row view of :meth:`scan_column_batches` over the full column
        set, so a scan opened before a concurrent write or layout
        migration streams exactly the pre-write rows (snapshot
        isolation)."""
        batches = self.scan_column_batches(self.column_names)
        return (
            item
            for positions, rids, cols in batches
            for item in zip(positions, rids, zip(*cols))
        )

    def scan_column_batches(
        self,
        names: Sequence[str],
        batch_size: int = DEFAULT_BATCH_SIZE,
        predicate_ranges: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Tuple[Sequence[int], List[int], List[List[Any]]]]:
        """Yield ``(positions, rids, columns)`` batches in presentation
        order, touching only the page chains covering ``names``;
        ``columns`` holds one rid-aligned value list per name and
        ``positions`` is a ``range`` when the batch is contiguous.

        The narrow scan the query pipeline rides: the store walks each
        covering chain sequentially (charging per-column and co-access
        statistics), and the positional index restores presentation order
        on top of the rid-aligned fragments.  The snapshot is acquired *at
        operator open* — the positional order and the store chains are
        captured atomically under the store's mutation lock, so the
        iterator is isolated from concurrent DML and background
        restructure swaps.  While presentation order tracks heap order (no
        positional inserts — the common case) the store's batches
        stream straight through, so an early-exiting consumer (LIMIT)
        touches only a page prefix; from the first batch that breaks the
        order on, the remainder is buffered and re-emitted sorted by
        position.

        An empty ``names`` is row counting: rid-only batches straight off
        the positional index, no page touched — what a bare ``COUNT(*)``
        costs.

        ``predicate_ranges`` (lowered column name → ``expr.IntervalSet``)
        turns on zone-map data skipping: pages proven to hold no possible
        match are dropped before decode, leaving holes in ``positions``
        (the only source of holes).
        Survivors are a superset of the true matches; callers still apply
        the full predicate."""
        names = list(names)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not names:
            with self.store.mutation_lock:
                order = list(self.positions)

            def rid_batches() -> Iterator[Tuple[Sequence[int], List[int], List[List[Any]]]]:
                for lo in range(0, len(order), batch_size):
                    rids = order[lo : lo + batch_size]
                    yield range(lo, lo + len(rids)), rids, []

            return rid_batches()
        with self.store.mutation_lock:
            # One critical section pins both identities of the table: the
            # presentation order and the physical chains must describe the
            # same set of rows or the merge below would report a missing
            # rid on a perfectly healthy table.
            snap = self.store.snapshot()
            try:
                spans = self.positions.intervals(0, len(self.positions) - 1)
                expected = list(self.positions)
                source = self.store.scan_group_batches(
                    names,
                    batch_size,
                    snapshot=snap,
                    predicate_ranges=predicate_ranges,
                )
            except BaseException:
                snap.release()
                raise

        def batches() -> Iterator[Tuple[Sequence[int], List[int], List[List[Any]]]]:
            cursor = 0  # first presentation position not yet emitted
            seen = 0
            order: Optional[KeySequence] = None
            held: List[Tuple[int, int, Tuple[Any, ...]]] = []
            try:
                for rids, cols in source:
                    n = len(rids)
                    seen += n
                    if not held and rids == expected[cursor : cursor + n]:
                        yield range(cursor, cursor + n), rids, cols
                        cursor += n
                        continue
                    # Skipped pages or a positional insert: place rids by
                    # position from here on, in the order the scan opened on.
                    if order is None:
                        order = KeySequence.from_intervals(spans)
                    positions = [order.position_of(rid) for rid in rids]
                    if None in positions:
                        raise StorageError(
                            f"rid {rids[positions.index(None)]} missing from "
                            f"positional index of {self.name!r}"
                        )
                    if (
                        predicate_ranges  # only skipping may leave holes
                        and not held
                        and positions[0] >= cursor
                        and all(a < b for a, b in zip(positions, positions[1:]))
                    ):
                        yield positions, rids, cols
                        cursor = positions[-1] + 1
                        continue
                    held.extend(zip(positions, rids, zip(*cols)))
                if not predicate_ranges and seen != len(expected):
                    raise StorageError(
                        f"column scan of {self.name!r} returned {seen} rows "
                        f"for {len(expected)} positions"
                    )
                held.sort()
                for lo in range(0, len(held), batch_size):
                    chunk = held[lo : lo + batch_size]
                    yield (
                        [position for position, _, _ in chunk],
                        [rid for _, rid, _ in chunk],
                        [list(column) for column in zip(*(row for _, _, row in chunk))],
                    )
            finally:
                snap.release()

        return batches()

    def rows(self) -> List[Tuple[Any, ...]]:
        return [row for _, _, row in self.scan()]

    def find_by_key(self, key: Any) -> Optional[int]:
        """rid for a primary-key value, or None."""
        if self.primary_index is None:
            raise ExecutionError(f"table {self.name!r} has no primary key")
        return self.primary_index.tree.get(key)

    def positions_of(self, rids: Iterable[int]) -> Dict[int, int]:
        """rid → presentation position of the live rows among ``rids``,
        in position order.  Each rid costs a bisect plus a climb of
        O(log s) links, s being the positional index's span count (no
        link at all on a table that was only ever appended to), so there
        is no k at which one walk of the index would win — the only
        rid → position lookup in the engine."""
        position_of = self.positions.position_of
        with self.store.mutation_lock:
            located = {rid: position_of(rid) for rid in rids}
        live = sorted((pos, rid) for rid, pos in located.items() if pos is not None)
        return {rid: pos for pos, rid in live}

    # -- key indexes ------------------------------------------------------------

    def key_indexes(self) -> List[TableIndex]:
        """The primary key's index, then every named one: the sequence
        :meth:`_change` checks and re-keys and :meth:`index_for` searches."""
        if self.primary_index is None:
            return list(self.indexes.values())
        return [self.primary_index, *self.indexes.values()]

    def index_for(self, column: str) -> Optional[TableIndex]:
        """Any index over ``column`` (unique preferred), or None."""
        column_l = column.lower()
        best: Optional[TableIndex] = None
        for index in self.key_indexes():
            if index.column.lower() == column_l:
                if index.unique:
                    return index
                best = best or index
        return best

    def _build_tree(
        self,
        rids: Sequence[int],
        keys: Sequence[Any],
        unique: bool,
        duplicate: Callable[[Any], str],
    ) -> BPlusTree:
        """A key index over rid-aligned ``keys``, NULLs skipped, stable-sorted
        (a bucket keeps ``rids`` order) and built bottom-up.  A repeated
        unique key raises ``duplicate(key)`` for the first key seen twice in
        ``keys`` order — where a row-at-a-time build would have stopped."""
        sorted_keys, values = keys, rids
        if None in keys:
            live = [i for i, key in enumerate(keys) if key is not None]
            sorted_keys, values = [keys[i] for i in live], [rids[i] for i in live]
        if not all(map(operator.le, sorted_keys, itertools.islice(sorted_keys, 1, None))):
            order = sorted(range(len(sorted_keys)), key=sorted_keys.__getitem__)  # stable
            sorted_keys = [sorted_keys[i] for i in order]
            values = [values[i] for i in order]
        try:
            return BPlusTree.from_sorted(sorted_keys, values, unique)
        except StorageError:
            seen = set()
            for key in keys:
                if key in seen:
                    raise ConstraintError(duplicate(key)) from None
                if key is not None:
                    seen.add(key)
            raise

    def create_index(self, name: str, column: str, unique: bool) -> TableIndex:
        """Build a secondary index over ``column`` from the current rows:
        the column is read chain by chain and the tree built bottom-up.

        Runs under the store mutation lock so the initial build and
        subsequent DML maintenance cannot interleave."""
        name_l = name.lower()
        # key_indexes, not self.indexes: the primary key's name is taken too.
        if any(index.name.lower() == name_l for index in self.key_indexes()):
            raise SchemaError(f"index {name!r} already exists")
        self.schema.column(column)  # raises SchemaError on unknown column
        with self.store.mutation_lock:
            rids, (keys,) = self.store.read_columns([column])
            # One point read per row: the layout advisor prices the
            # workload from these counts.
            self.store.access_stats.point_reads += len(rids)
            tree = self._build_tree(rids, keys, unique, lambda key: (
                f"cannot create unique index {name!r}: duplicate key {key!r} "
                f"in table {self.name!r}"
            ))
            index = self.indexes[name_l] = TableIndex(name, column, unique, tree)
        self._record_event(
            "index_create", index=name, column=column, unique=unique
        )
        return index

    def drop_index(self, name: str) -> TableIndex:
        name_l = name.lower()
        index = self.indexes.pop(name_l, None)
        if index is None:
            raise SchemaError(f"no such index {name!r}")
        self._record_event("index_drop", index=index.name)
        return index

    # -- writes -----------------------------------------------------------------

    def _check_keys(
        self,
        keyed: Sequence[Tuple[TableIndex, int]],
        rid: Optional[int],
        old: Optional[Sequence[Any]],
        new: Sequence[Any],
    ) -> None:
        """Raise if any unique index would refuse ``new`` for ``rid``."""
        for index, col in keyed:
            if not index.unique:
                continue
            key = new[col]
            primary = index is self.primary_index
            if key is None:
                if primary:
                    raise ConstraintError(
                        f"primary key of {self.name!r} may not be NULL"
                    )
                continue
            if old is not None and old[col] == key:
                continue
            if index.tree.get(key, rid) != rid:
                raise ConstraintError(self._duplicate_message(index, key))

    def _duplicate_message(self, index: TableIndex, key: Any) -> str:
        if index is self.primary_index:
            return f"duplicate primary key {key!r} in table {self.name!r}"
        return (
            f"duplicate key {key!r} violates unique index "
            f"{index.name!r} of table {self.name!r}"
        )

    def _change(
        self,
        rid: Optional[int],
        position: Optional[int],
        old: Optional[Tuple[Any, ...]],
        new: Optional[Tuple[Any, ...]],
        emit: bool,
        touched: Sequence[str] = (),
    ) -> int:
        """The one place a row changes: ``old`` → ``new``, ``None``
        standing for "no row" (so insert, update and delete are one shape
        and a change's inverse is the same call with the two swapped).
        ``touched`` names the columns an update assigned; a delete
        without a ``position`` looks its row up.

        The store mutation lock is held from the first check to the last
        index write, so a scan opening from another thread sees store,
        positional index and key indexes all before or all after the
        change; a constraint violation raises before anything is written."""
        with self.store.mutation_lock:
            column_index = self.schema.column_index
            keyed = [(index, column_index(index.column)) for index in self.key_indexes()]
            if new is not None:
                self._check_keys(keyed, rid, old, new)
            if old is None:
                rid = self.store.insert(new, rid=rid)
                if position is None or position >= len(self.positions):
                    position = len(self.positions)
                self.positions.insert(position, rid)
            elif new is None:
                if position is None:
                    position = self.positions_of([rid])[rid]
                self.positions.delete(position)
                self.store.delete(rid)
            elif len(touched) == 1:
                # Single-column update: touch only that column's group (the
                # tuple-update cost baseline for E6).
                (name,) = touched
                self.store.update_column(rid, name, new[column_index(name)])
            else:
                self.store.update(rid, new)
            for index, col in keyed:
                old_key = None if old is None else old[col]
                new_key = None if new is None else new[col]
                if old_key is new_key or old_key == new_key:
                    continue
                if old_key is not None:
                    index.tree.delete(old_key, None if index.unique else rid)
                if new_key is not None:
                    index.tree.insert(new_key, rid)
            undo = self.transactions
            if undo is not None and undo.statement is not None:
                # Un-delete where the row was; un-insert wherever it is by then.
                back = position if new is None else None
                undo.statement.append(
                    partial(self._change, rid, back, new, old, emit, touched)
                )
        if emit:
            kind = "delete" if new is None else "insert" if old is None else "update"
            self._emit(ChangeEvent(self.name, kind, position, rid, new, old))
        return rid

    def insert(
        self,
        values: Sequence[Any],
        position: Optional[int] = None,
        emit: bool = True,
        rid: Optional[int] = None,
    ) -> int:
        """Insert a row, by default appending; ``position`` inserts into the
        middle of the presentation order (paper's positional insert).
        ``rid`` restores a specific record id."""
        row = self._prepare_row(values)
        if position is not None and position < 0:
            raise ExecutionError(f"negative position {position}")
        return self._change(rid, position, None, row, emit)

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        return [self.insert(row) for row in rows]

    def load(
        self, rows: Iterable[Sequence[Any]], encodings: Sequence[Dict[str, Any]] = ()
    ) -> None:
        """Bulk-load stored ``rows``, in presentation order, into this empty
        table: the snapshot restore, the one entry to the store's rows
        besides :meth:`_change`.  Values coerce as :func:`coerce_value`
        does, a column at a time; a NULL stays NULL (stored rows, not an
        INSERT: no DEFAULT) and a NOT NULL column refuses it.  Positions
        become one span and every key index is built bottom-up
        (``encodings``: see :meth:`GroupedTupleStore.load`).  A violation
        raises what an insert would and leaves the table empty.  No change
        event, no undo entry."""
        if self.store.n_rows:
            raise StorageError(f"table {self.name!r} is not empty")
        width = self.schema.n_columns
        block = list(rows)
        for length in set(map(len, block)) - {width}:
            raise ExecutionError(f"table {self.name!r} expects {width} values, got {length}")
        columns = [list(values) for values in zip(*block)] or [[] for _ in range(width)]
        del block
        for column, values in zip(self.schema.columns, columns):
            _coerce_column(values, column.dtype)
            if column.not_null and None in values:
                raise self._null_violation(column)
        rids = list(range(len(columns[0])))
        trees = [
            self._build_tree(
                rids, columns[self.schema.column_index(index.column)], index.unique,
                partial(self._duplicate_message, index),
            )
            for index in self.key_indexes()
        ]
        with self.store.mutation_lock:
            self.store.load(rids, columns, encodings)
            for index, tree in zip(self.key_indexes(), trees):
                index.tree = tree
            self.positions = KeySequence.from_intervals(
                [(0, len(rids) - 1, 0)] if rids else []
            )

    def update_rid(
        self,
        rid: int,
        changes: Dict[str, Any],
        position: Optional[int] = None,
        emit: bool = True,
    ) -> Tuple[Any, ...]:
        """Update named columns of one row; returns the new full row."""
        old_row = self.store.get(rid)
        new_values = list(old_row)
        for column_name, value in changes.items():
            column = self.schema.column(column_name)
            coerced = coerce_value(value, column.dtype)
            if coerced is None and column.not_null:
                raise self._null_violation(column)
            new_values[self.schema.column_index(column_name)] = coerced
        new_row = tuple(new_values)
        self._change(rid, position, old_row, new_row, emit, list(changes))
        return new_row

    def delete_at(self, position: int, emit: bool = True) -> Tuple[Any, ...]:
        """Delete the row at a presentation position."""
        rid = self.positions.key_at(position)
        row = self.store.get(rid)
        self._change(rid, position, row, None, emit)
        return row

    def delete_rids(self, rids: Sequence[int], emit: bool = True) -> int:
        """Delete rows by rid (used by DELETE ... WHERE plans)."""
        located = list(self.positions_of(rids).items())
        # From the tail backwards so earlier positions stay valid.
        for rid, position in reversed(located):
            self._change(rid, position, self.store.get(rid), None, emit)
        return len(located)

    # -- schema evolution ----------------------------------------------------------

    def add_column(
        self,
        column: Column,
        group_index: Optional[int] = None,
        new_group: Optional[bool] = None,
        emit: bool = True,
        position: Optional[int] = None,
    ) -> int:
        """ADD COLUMN; returns pages rewritten (0 for a fresh group).
        ``position``: logical index instead of last — the undo of DROP
        COLUMN puts the column back where row inverses recorded before
        the drop expect it."""
        with self.store.mutation_lock:
            rewritten = self.store.add_column(column, group_index, new_group)
            if position is not None:
                self.schema.move_column(column.name, position)
        if emit:
            self._emit(ChangeEvent(self.name, "add_column", column=column.name))
        return rewritten

    def drop_column(self, name: str, emit: bool = True) -> int:
        if self.schema.primary_key is not None and name.lower() == self.schema.primary_key.lower():
            raise SchemaError(f"cannot drop primary key column {name!r}")
        rewritten = self.store.drop_column(name)
        # Indexes over the dropped column go with it (sqlite drops the
        # column's indexes the same way on table rewrite).
        doomed = [
            key
            for key, index in self.indexes.items()
            if index.column.lower() == name.lower()
        ]
        for key in doomed:
            self.indexes.pop(key)
        if emit:
            self._emit(ChangeEvent(self.name, "drop_column", column=name))
        return rewritten

    def rename_column(self, old: str, new: str, emit: bool = True) -> None:
        self.store.rename_column(old, new)
        for index in self.key_indexes():
            if index.column.lower() == old.lower():
                index.column = new
        if emit:
            self._emit(ChangeEvent(self.name, "rename_column", column=old, extra=new))

    # -- adaptive layout ---------------------------------------------------------------

    @property
    def migration_active(self) -> bool:
        return self._layout_migration is not None

    @property
    def wants_maintenance(self) -> bool:
        """Whether maintenance beats tick this table: it opted into
        adaptive layout, or a migration is in flight."""
        return self.auto_layout or self.migration_active

    @property
    def layout_migration_target(self) -> Optional[List[List[str]]]:
        """The in-flight migration's target grouping (None when idle) —
        what persistence carries so a recovered server resumes the
        half-done migration instead of waiting for the advisor to
        re-learn it from cold statistics."""
        if self._layout_migration is None:
            return None
        return [list(group) for group in self._layout_migration.target]

    def set_auto_layout(self, enabled: bool) -> None:
        self.auto_layout = enabled

    def set_static_layout(self, mode: str) -> LayoutMigration:
        """Migrate synchronously to a static extreme (``row``/``column``)
        and suspend the advisor loop — otherwise the next maintenance
        tick would consult the same accumulated stats and migrate right
        back.  Shared by the live ``ALTER ... SET LAYOUT`` path and WAL
        replay of ``layout_set`` records, so the two cannot drift."""
        if mode == "row":
            target: List[List[str]] = [list(self.schema.column_names)]
        elif mode == "column":
            target = [[name] for name in self.schema.column_names]
        else:
            raise SchemaError(f"unknown static layout mode {mode!r}")
        self.set_auto_layout(False)
        return self.migrate_layout(target, online=False)

    def cancel_layout_migration(self) -> None:
        """Abandon any in-flight migration (the store keeps its current,
        fully consistent intermediate layout)."""
        self._layout_migration = None

    def reconcile_layout_migration(self) -> None:
        """Drop an armed migration whose (reconciled) target the store has
        already reached — needed after an externally applied restructure
        (WAL replay of a layout_step) so a migration that completed before
        a crash is not reported as still in flight."""
        if self._layout_migration is not None and self._layout_migration.done:
            self._layout_migration = None

    def migrate_layout(
        self, target_groups: Sequence[Sequence[str]], online: bool = True
    ) -> LayoutMigration:
        """Start (or, with ``online=False``, fully run) a re-partition of
        the physical layout toward ``target_groups``.  Either way the new
        target supersedes any migration already in flight — otherwise a
        later maintenance tick would keep pulling the layout toward the
        abandoned target."""
        migration = LayoutMigration(self.store, target_groups)
        if online:
            self._layout_migration = None if migration.done else migration
        else:
            self._layout_migration = None
            migration.run_to_completion()
        return migration

    def advise_layout(self) -> Optional[LayoutRecommendation]:
        return self.layout_advisor.advise(self.store)

    def layout_tick(
        self,
        steps: int = 1,
        observer: Optional[Callable[[str, str, List[List[str]]], None]] = None,
        max_blocks: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One beat of the adaptive-layout maintenance loop.

        Advances an in-flight migration by up to ``steps`` bounded
        restructure steps; otherwise (with auto layout on) consults the
        advisor and starts a migration when the predicted saving clears
        the migration cost.  Returns a small report dict for observability.

        ``max_blocks`` additionally budgets the restructure work of one
        beat: after the first step (which always runs, so a migration can
        never stall outright), further steps are taken only while the
        beat's written pages plus the next step's predicted cost stay
        within the budget.  ``None`` (the default) keeps the unbudgeted
        behaviour.

        ``observer(table_name, event, groups)`` is called with
        ``("start", target_groups)`` when the advisor launches a migration
        and ``("step", new_groups)`` after each applied restructure step —
        the hook the durable server uses to WAL-log layout transitions so
        replay converges to the live physical layout.

        The whole beat runs under the store's mutation lock: the stats
        decay, the advisor's read of those stats, and any restructure
        step form one atomic unit against concurrent DML and snapshot
        acquisition (open snapshots keep streaming the pre-step chains).
        """
        with self.store.mutation_lock:
            return self._layout_tick_locked(steps, observer, max_blocks)

    def _layout_tick_locked(
        self,
        steps: int,
        observer: Optional[Callable[[str, str, List[List[str]]], None]],
        max_blocks: Optional[int],
    ) -> Dict[str, Any]:
        report: Dict[str, Any] = {"table": self.name, "action": "idle"}
        # Age the workload window first so it keeps tracking recent
        # behaviour on every tick — including the ticks spent stepping a
        # migration (a multi-step migration must not freeze the window).
        if self.store.access_stats.total_ops > self.layout_stats_horizon:
            self.store.access_stats.decay()
        migration = self._layout_migration
        if migration is not None:
            done = False
            written_before = migration.pages_written
            for index in range(max(1, steps)):
                if index > 0 and max_blocks is not None:
                    spent = migration.pages_written - written_before
                    if spent >= max_blocks:
                        break
                    upcoming = migration.peek()
                    if upcoming is not None:
                        predicted = restructure_blocks(
                            self.schema.groups,
                            upcoming,
                            self.store.n_rows,
                            self.store.pool.page_capacity,
                        )
                        if spent + predicted > max_blocks:
                            break
                before = self.schema.groups
                done = migration.step()
                if self.schema.groups != before:
                    if observer is not None:
                        observer(self.name, "step", self.schema.groups)
                    self._record_event("migration_step", groups=self.schema.groups)
                if done:
                    break
            if done:
                self._layout_migration = None
                self._record_event(
                    "migration_finish",
                    steps=migration.steps_taken,
                    pages_written=migration.pages_written,
                )
            report.update(
                action="migrated" if done else "migrating",
                steps_taken=migration.steps_taken,
                pages_written=migration.pages_written,
                blocks_this_tick=migration.pages_written - written_before,
                groups=self.schema.groups,
            )
            if self.sanitizer.enabled:
                # Post-migration consistency: the grouping must still
                # partition the columns and the positional index must agree
                # with the store — checked after every tick that moved data.
                self.sanitizer.check_table(self)
            return report
        if self.auto_layout:
            # No migration in flight: let the encoder compact chains the
            # workload scans before consulting the advisor (whose cost
            # model then sees the measured compression ratios).
            encoded = self.store.encoding_tick() if self.auto_encode else []
            for group_index, ratio in encoded:
                self._record_event(
                    "encode_group",
                    group=group_index,
                    ratio=round(ratio, 2),
                    columns=list(self.schema.groups[group_index]),
                )
            if encoded:
                report["encoded_groups"] = [group for group, _ in encoded]
            recommendation = self.layout_advisor.advise(self.store)
            if recommendation is not None:
                self._record_event(
                    "layout_advice",
                    current_cost=recommendation.current_cost,
                    target_cost=recommendation.target_cost,
                    migration_cost=recommendation.migration_cost,
                    saving=recommendation.saving,
                    worthwhile=recommendation.worthwhile,
                    target_groups=[list(g) for g in recommendation.target_groups],
                )
            if recommendation is not None and recommendation.worthwhile:
                self._layout_migration = LayoutMigration(
                    self.store, recommendation.target_groups
                )
                if observer is not None:
                    observer(
                        self.name,
                        "start",
                        [list(g) for g in recommendation.target_groups],
                    )
                self._record_event(
                    "migration_start",
                    groups=[list(g) for g in recommendation.target_groups],
                )
                report.update(
                    action="migration_started",
                    recommendation=recommendation.to_dict(),
                )
        return report

    # -- maintenance ------------------------------------------------------------------

    def checkpoint(self) -> int:
        return self.store.checkpoint()

    def validate(self) -> None:
        self.store.validate()
        self.positions.validate()
        live = self.store.rids()
        if sorted(self.positions) != sorted(live):
            raise StorageError(
                f"positional index of {self.name!r} does not hold exactly the "
                f"stored rows ({len(self.positions)} entries, {len(live)} rows)"
            )
        rows = {rid: self.store.read_row(rid) for rid in live}
        for index in self.key_indexes():
            index.tree.validate()
            col = self.schema.column_index(index.column)
            expected: Dict[Any, List[int]] = {}
            for rid, row in rows.items():
                if row[col] is not None:
                    expected.setdefault(row[col], []).append(rid)
            if index is self.primary_index and len(expected) != len(rows):
                raise StorageError(
                    f"primary key of {self.name!r} is NULL or repeated in the rows"
                )
            actual = {
                key: sorted(hit) if isinstance(hit, list) else [hit]
                for key, hit in index.tree.items()
            }
            if actual != {key: sorted(rids) for key, rids in expected.items()}:
                raise StorageError(
                    f"index {index.name!r} of table {self.name!r} drifted from "
                    f"the rows ({len(actual)} keys indexed, {len(expected)} stored)"
                )
