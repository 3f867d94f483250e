"""The grouped tuple store — common machinery for all three layouts.

Paper §3, *Relational Storage Manager*: "the relational storage manager uses
a hybrid of column-store and row-store to physically store the table.  Here,
data is structured along a collection of attribute groups, thereby radically
reducing the disk blocks that need an update during a schema change."

:class:`GroupedTupleStore` materialises **one page chain per attribute
group**; each page holds ``(rid, fragment)`` records where the fragment is
the tuple of that group's column values.  The three layouts are then just
grouping policies:

* ``ROW``    — a single group holding every column (classic heap file);
  ``ADD COLUMN`` must rewrite *every* page,
* ``COLUMN`` — one group per column; ``ADD COLUMN`` allocates a fresh chain
  and rewrites nothing, but every tuple operation touches one page per
  column,
* ``HYBRID`` — the paper's design: arbitrary groups; new columns go into a
  new group by default (zero rewrites) and can later be co-located.

Records are addressed by a store-assigned **rid** that never changes; the
positional order of a table lives in the positional index
(``Table.positions``, a :class:`~repro.index.posmap.KeySequence`), not in
the store.

**Concurrency model** (HTAP isolation): one writer at a time mutates the
store under ``_mutation_lock``; readers never take it for iteration.
Instead, scans open a :class:`StoreSnapshot` — an epoch-stamped, immutable
capture of the grouping and every page-id chain.  Writers copy-on-write any
page an open snapshot can still see and *retire* (instead of free) pages
they unlink; retired pages are reclaimed when the last snapshot whose epoch
can observe them is released.  This is what lets a background
:class:`~repro.engine.maintenance.MaintenanceWorker` restructure chains
while analytical scans stream the pre-migration version.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.encoding import (
    PLAIN_VALUE_BYTES,
    EncodedPage,
    choose_encoding,
    decode_column,
    encode_column,
    encoded_size,
)
from repro.analysis.sanitizer import NULL_SANITIZER
from repro.engine.pager import BufferPool, DEFAULT_PAGE_CAPACITY, IOStats
from repro.engine.schema import Column, TableSchema
from repro.errors import SchemaError, StorageError

__all__ = [
    "LayoutPolicy",
    "GroupedTupleStore",
    "StoreSnapshot",
    "ColumnAccessStats",
    "AccessStats",
    "DEFAULT_BATCH_SIZE",
]

#: Rows per column-fragment batch yielded by :meth:`scan_group_batches`.
DEFAULT_BATCH_SIZE = 1024

#: Distinguishes anonymous stores in the shared pool's per-tag accounting.
_store_counter = itertools.count()


class LayoutPolicy(Enum):
    """Physical layout policy applied to the schema's attribute groups."""

    ROW = "row"
    COLUMN = "column"
    HYBRID = "hybrid"


@dataclass
class ColumnAccessStats:
    """Access counters for one column (workload signal for the advisor)."""

    scans: int = 0  # scans whose column set includes this column
    updates: int = 0  # single-column updates

    def total(self) -> int:
        return self.scans + self.updates


@dataclass
class AccessStats:
    """Workload profile of one store, fed to the layout advisor.

    Counts *logical* operations (not blocks): how the table is being used,
    so :class:`~repro.engine.layout.LayoutAdvisor` can price candidate
    attribute-group partitions with the E6 cost table and pick the layout
    this workload wants.
    """

    inserts: int = 0
    deletes: int = 0
    point_reads: int = 0  # full-row get()
    full_updates: int = 0  # whole-row update()
    full_scans: int = 0  # scan() passes over the table
    schema_changes: int = 0
    columns: Dict[str, ColumnAccessStats] = field(default_factory=dict)
    # Co-access sets: how many times each *set* of columns was scanned
    # together (one query = one count), keyed by the sorted lower-cased
    # column-name tuple.  Single-column scans record singleton sets, so
    # ``column(name).scans`` always equals the sum over sets containing
    # the column — the invariant the joint-scan cost model relies on.
    group_scans: Dict[Tuple[str, ...], int] = field(default_factory=dict)

    def column(self, name: str) -> ColumnAccessStats:
        key = name.lower()
        stats = self.columns.get(key)
        if stats is None:
            stats = self.columns[key] = ColumnAccessStats()
        return stats

    def record_scan(self, names: Sequence[str]) -> None:
        """Charge one scan request over ``names`` (a column set scanned
        *together*): bumps each column's scan counter and the co-access
        set counter the layout advisor clusters on."""
        key = tuple(sorted(name.lower() for name in names))
        if not key:
            return
        for name in key:
            self.column(name).scans += 1
        self.group_scans[key] = self.group_scans.get(key, 0) + 1

    def remap_scan_sets(self, transform) -> None:
        """Rewrite every co-access set key through ``transform(names)``
        (returning the new sorted tuple, or a falsy value to discard the
        set), merging counts that collide — the shared machinery behind
        column renames and drops."""
        remapped: Dict[Tuple[str, ...], int] = {}
        for names, count in self.group_scans.items():
            key = transform(names)
            if key:
                remapped[key] = remapped.get(key, 0) + count
        self.group_scans = remapped

    def co_access_pairs(self) -> List[Tuple[Tuple[str, str], int]]:
        """Pairwise joint-scan affinity, highest first — the signal the
        CLI surfaces and the advisor clusters on."""
        pairs: Dict[Tuple[str, str], int] = {}
        for names, count in self.group_scans.items():
            if len(names) < 2 or count <= 0:
                continue
            for i, first in enumerate(names):
                for second in names[i + 1 :]:
                    pairs[(first, second)] = pairs.get((first, second), 0) + count
        return sorted(pairs.items(), key=lambda item: (-item[1], item[0]))

    @property
    def total_ops(self) -> int:
        return (
            self.inserts
            + self.deletes
            + self.point_reads
            + self.full_updates
            + self.full_scans
            + self.schema_changes
            + sum(c.total() for c in self.columns.values())
        )

    def reset(self) -> None:
        self.inserts = self.deletes = self.point_reads = 0
        self.full_updates = self.full_scans = self.schema_changes = 0
        self.columns.clear()
        self.group_scans.clear()

    def decay(self, factor: float = 0.5) -> None:
        """Age the profile so the advisor tracks the *recent* workload."""
        self.inserts = int(self.inserts * factor)
        self.deletes = int(self.deletes * factor)
        self.point_reads = int(self.point_reads * factor)
        self.full_updates = int(self.full_updates * factor)
        self.full_scans = int(self.full_scans * factor)
        self.schema_changes = int(self.schema_changes * factor)
        for stats in self.columns.values():
            stats.scans = int(stats.scans * factor)
            stats.updates = int(stats.updates * factor)
        for key in list(self.group_scans):
            aged = int(self.group_scans[key] * factor)
            if aged:
                self.group_scans[key] = aged
            else:
                del self.group_scans[key]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "inserts": self.inserts,
            "deletes": self.deletes,
            "point_reads": self.point_reads,
            "full_updates": self.full_updates,
            "full_scans": self.full_scans,
            "schema_changes": self.schema_changes,
            "columns": {
                name: {"scans": c.scans, "updates": c.updates}
                for name, c in sorted(self.columns.items())
            },
            # JSON objects need string keys; serialise the set as a list
            # of [member-list, count] pairs instead of joining names.
            "group_scans": [
                [list(names), count]
                for names, count in sorted(self.group_scans.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AccessStats":
        """Rebuild a persisted profile (inverse of :meth:`to_dict`).

        A recovered store resumes advising from the live (decayed) window
        it had at snapshot time instead of re-learning from cold counters
        — without this, a restarted server's advisor is blind until the
        workload has been replayed against it a second time."""
        stats = cls(
            inserts=int(payload.get("inserts", 0)),
            deletes=int(payload.get("deletes", 0)),
            point_reads=int(payload.get("point_reads", 0)),
            full_updates=int(payload.get("full_updates", 0)),
            full_scans=int(payload.get("full_scans", 0)),
            schema_changes=int(payload.get("schema_changes", 0)),
        )
        for name, counters in (payload.get("columns") or {}).items():
            column = stats.column(name)
            column.scans = int(counters.get("scans", 0))
            column.updates = int(counters.get("updates", 0))
        for names, count in payload.get("group_scans") or []:
            key = tuple(sorted(str(name).lower() for name in names))
            if key and int(count) > 0:
                stats.group_scans[key] = stats.group_scans.get(key, 0) + int(count)
        return stats


def _zone_of(values: Sequence[Any]) -> Optional[Tuple[Any, Any, int]]:
    """``(min, max, null_count)`` over one fragment's values, or ``None``
    when the non-null values do not mutually order (mixed types) — such a
    page can never be proven skippable."""
    lo = hi = None
    nulls = 0
    for value in values:
        if value is None:
            nulls += 1
        elif lo is None:
            lo = hi = value
        else:
            try:
                if value < lo:
                    lo = value
                elif value > hi:
                    hi = value
            except TypeError:
                return None
    return (lo, hi, nulls)


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and merge half-open ``(start, stop)`` intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, stop in intervals[1:]:
        if start <= merged[-1][1]:
            if stop > merged[-1][1]:
                merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def _alive_offsets(
    dead: List[Tuple[int, int]], cursor: int, position: int, count: int
) -> Optional[List[int]]:
    """In-page record offsets *not* covered by the ``dead`` position
    intervals (``dead[cursor:]`` is the still-relevant suffix); ``None``
    when the whole page is alive, ``[]`` when it is entirely dead."""
    stop = position + count
    alive: List[int] = []
    start = 0
    covered = False
    j = cursor
    while j < len(dead) and dead[j][0] < stop:
        lo = max(dead[j][0], position) - position
        hi = min(dead[j][1], stop) - position
        if hi > lo:
            covered = True
            alive.extend(range(start, lo))
            start = hi
        j += 1
    if not covered:
        return None
    alive.extend(range(start, count))
    return alive


class _BatchCursor:
    """Buffers page-sized ``(rids, columns)`` chunks from a chain stream
    and serves exact-size slices, so batch boundaries are independent of
    page boundaries (encoded pages hold more rows than plain ones)."""

    def __init__(self, source: Iterator[Tuple[List[int], List[List[Any]]]]):
        self._source = source
        self._rids: List[int] = []
        self._cols: List[List[Any]] = []

    def take(self, n: int) -> Tuple[List[int], List[List[Any]]]:
        while len(self._rids) < n:
            chunk = next(self._source, None)
            if chunk is None:
                break
            rids, cols = chunk
            if not self._rids:
                self._rids = list(rids)
                self._cols = [list(col) for col in cols]
            else:
                self._rids.extend(rids)
                for have, more in zip(self._cols, cols):
                    have.extend(more)
        if len(self._rids) <= n:
            rids, cols = self._rids, self._cols
            self._rids, self._cols = [], []
            return rids, cols
        rids, self._rids = self._rids[:n], self._rids[n:]
        cols = [col[:n] for col in self._cols]
        self._cols = [col[n:] for col in self._cols]
        return rids, cols


class _Group:
    """The store's one record per attribute group (members live in the
    schema).  ``gid`` survives group-index shifts, so the pager's per-group
    I/O tag does too.  A chain is an encoded prefix plus plain pages
    (fresh records always land on a plain tail; ``plain_pages`` counts
    them), and ``ratio`` is the plain/encoded byte ratio of the last encode
    pass (1.0 = plain), which also scales records per encoded page.  Scans
    charge the skip/scan counters to the record their snapshot captured,
    so a group's counters die with it."""

    __slots__ = (
        "gid",
        "chain",
        "rid_page",
        "encoded",
        "ratio",
        "enc_failed",
        "plain_pages",
        "pages_skipped",
        "pages_scanned",
    )

    def __init__(
        self,
        gid: int,
        chain: Optional[List[int]] = None,
        rid_page: Optional[Dict[int, int]] = None,
    ):
        self.gid = gid
        self.chain: List[int] = chain if chain is not None else []
        self.rid_page: Dict[int, int] = rid_page if rid_page is not None else {}
        self.pages_skipped = 0
        self.pages_scanned = 0
        self.reset_encoding()

    def reset_encoding(self) -> None:
        """Forget the encoding state after a plain (re)write of the chain."""
        self.encoded = False
        self.ratio = 1.0
        self.enc_failed = False
        self.plain_pages = len(self.chain)


def _locate(groups: Sequence[Sequence[str]], column_name: str) -> Tuple[int, int]:
    """``(group index, fragment offset)`` of a column in a grouping — the
    live schema's or a snapshot's captured one."""
    key = column_name.lower()
    for group_index, members in enumerate(groups):
        for offset, name in enumerate(members):
            if name.lower() == key:
                return group_index, offset
    raise SchemaError(f"column {column_name!r} not in any group")


def _decode_page(
    page: Any, offsets: Optional[Sequence[int]], alive: Optional[List[int]] = None
) -> Tuple[List[int], List[List[Any]], int, bool]:
    """The page codec — the one reader of a page's ``"enc"`` header.

    Returns ``(rids, columns, n_bytes, encoded)``: the page's rids, one
    value list per fragment offset in ``offsets`` (``None``: every offset
    the page stores), the simulated payload bytes a scan charges for
    decoding them, and whether the page is encoded.  A plain page holds
    ``(rid, fragment)`` records and charges ``PLAIN_VALUE_BYTES`` per value
    served; an encoded page holds no records, only per-column compressed
    payloads, and charges each requested column's encoded size.  ``alive``
    (in-page record offsets) keeps only those rows — a plain page is
    filtered before its values are copied, an encoded one after its
    columns are decoded."""
    enc = page.header.get("enc")
    if enc is None:
        records = page.records
        if alive is not None:
            records = [records[i] for i in alive]
        if offsets is None:
            offsets = range(len(records[0][1]) if records else 0)
        columns = [[fragment[offset] for _, fragment in records] for offset in offsets]
        n_bytes = len(records) * len(offsets) * PLAIN_VALUE_BYTES
        return [rid for rid, _ in records], columns, n_bytes, False
    rids = list(enc.rids)
    if offsets is None:
        offsets = range(len(enc.cols))
    columns = [decode_column(*enc.cols[offset]) for offset in offsets]
    n_bytes = sum(enc.col_bytes[offset] for offset in offsets)
    if alive is not None:
        rids = [rids[i] for i in alive]
        columns = [[column[i] for i in alive] for column in columns]
    return rids, columns, n_bytes, True


def _page_rids(page: Any) -> List[int]:
    return _decode_page(page, ())[0]


def _page_fragment(page: Any, rid: int) -> Tuple[Any, ...]:
    """Extract one rid's fragment from a (possibly encoded) page."""
    # The point-read hot path scans a plain page's records in place; an
    # encoded page holds none, so its fragment comes from the codec.
    for record_rid, fragment in page.records:
        if record_rid == rid:
            return fragment
    rids, columns, _, _ = _decode_page(page, None)
    try:
        index = rids.index(rid)
    except ValueError:
        raise StorageError(
            f"rid {rid} missing from page {page.page_id} (corrupt directory)"
        ) from None
    return tuple(column[index] for column in columns)


class StoreSnapshot:
    """An immutable, epoch-stamped view of a :class:`GroupedTupleStore`.

    Captured atomically under the store's mutation lock: the attribute
    grouping, every group's record and page-id chain, and the snapshot
    epoch.  Pages referenced here are protected two ways: the
    store's epoch-based reclamation keeps them *allocated* (a writer that
    unlinks one retires it instead of freeing), and each chain head is
    *pinned* in the buffer pool so eviction pressure cannot push the
    reader's working set out mid-scan.

    Readers iterate only this captured state — never the live chains — so
    a scan opened before a write or an in-flight ``restructure()`` swap
    returns exactly the pre-write rows.  Release promptly (scans do so in
    a ``finally``); an unreleased snapshot keeps retired chains alive.
    """

    __slots__ = (
        "epoch",
        "groups",
        "group_records",
        "chains",
        "n_rows",
        "_store",
        "_rid_maps",
        "released",
    )

    def __init__(
        self,
        store: "GroupedTupleStore",
        epoch: int,
        groups: List[List[str]],
        group_records: List[_Group],
        n_rows: int,
    ):
        self._store = store
        self.epoch = epoch
        self.groups = groups
        # Records are shared with the live store (scans charge them); their
        # chains are copied, because writers mutate a live chain in place.
        self.group_records = group_records
        self.chains = [tuple(group.chain) for group in group_records]
        self.n_rows = n_rows
        # Lazily-built rid → page-id directories over the captured chains,
        # only materialised by the lockstep-violation fallback path.
        self._rid_maps: Dict[int, Dict[int, int]] = {}
        self.released = False

    def release(self) -> None:
        """Drop this snapshot's epoch; idempotent.  The store reclaims any
        retired pages no remaining snapshot can observe."""
        self._store._release_snapshot(self)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def placements(self, names: Sequence[str]) -> List[Tuple[int, int, int]]:
        """``(group_index, fragment_offset, output_offset)`` per column,
        resolved against the captured grouping (the live one may have
        migrated since)."""
        placements: List[Tuple[int, int, int]] = []
        for out_offset, column_name in enumerate(names):
            group_index, frag_offset = _locate(self.groups, column_name)
            placements.append((group_index, frag_offset, out_offset))
        return placements

    def column_set(self) -> set:
        return {name.lower() for members in self.groups for name in members}

    def fragment_at(self, group_index: int, rid: int) -> Tuple[Any, ...]:
        """Directory lookup against the *captured* chains — the snapshot
        equivalent of the store's point-read fallback."""
        rid_map = self._rid_maps.get(group_index)
        if rid_map is None:
            rid_map = self._rid_maps[group_index] = self._build_rid_map(group_index)
        page_id = rid_map.get(rid)
        if page_id is None:
            raise StorageError(
                f"rid {rid} not found in snapshot group {group_index}"
            )
        page = self._store.pool.get(page_id)
        return _page_fragment(page, rid)

    def _build_rid_map(self, group_index: int) -> Dict[int, int]:
        directory: Dict[int, int] = {}
        for page_id in self.chains[group_index]:
            page = self._store.pool.get(page_id)
            for rid in _page_rids(page):
                directory[rid] = page_id
        return directory


class GroupedTupleStore:
    """rid-addressed tuple storage partitioned into attribute-group chains."""

    def __init__(
        self,
        schema: TableSchema,
        pool: Optional[BufferPool] = None,
        layout: LayoutPolicy = LayoutPolicy.HYBRID,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        owner: Optional[str] = None,
    ):
        self.schema = schema
        self.layout = layout
        # The owner string is only an accounting key; the counter suffix
        # keeps it unique so a table dropped and re-created under the same
        # name does not inherit the dead store's per-group I/O counters.
        self.owner = f"{owner if owner is not None else 'store'}#{next(_store_counter)}"
        self.pool = pool if pool is not None else BufferPool(page_capacity=page_capacity)
        if layout is LayoutPolicy.ROW:
            schema.set_groups([schema.column_names])
        elif layout is LayoutPolicy.COLUMN:
            schema.set_groups([[name] for name in schema.column_names])
        # HYBRID keeps whatever grouping the schema was built with.
        # One record per attribute group, in the schema's group order.
        self._groups: List[_Group] = [_Group(gid) for gid in range(schema.n_groups)]
        self._next_gid = schema.n_groups
        self._next_rid = 0
        self._n_rows = 0
        self.access_stats = AccessStats()
        # Store-level batch-scan counters (metrics exporter).
        self.batch_scans = 0
        self.batches_emitted = 0
        self.bytes_decoded = 0
        # Pages whose decode was proven unnecessary by zone maps (the
        # per-group split lives on the group records).
        self.pages_skipped = 0
        # Per-page zone-map cache: page_id -> (record_count, {fragment
        # offset -> (min, max, null_count) | None}).  ``None`` marks an
        # offset whose values do not order (mixed types) — never skippable.
        # Entries are dropped whenever a page is mutated in place and
        # recomputed lazily on the next zone-consulting scan, so a stale
        # entry cannot exist: a zone either describes the page's current
        # contents exactly or is absent.  Page ids are never reused
        # (DiskManager allocates monotonically), so a dropped entry cannot
        # be resurrected for different data.
        self._page_meta: Dict[int, Tuple[int, Dict[int, Optional[Tuple[Any, Any, int]]]]] = {}
        # Runtime invariant checks; the owning Database swaps in a real
        # Sanitizer (via the catalog) when sanitize mode is on.
        self.sanitizer = NULL_SANITIZER
        # -- snapshot isolation state (see the module docstring) ---------
        # All structural mutation happens under this lock; readers never
        # take it for iteration, only for the instant of snapshot capture.
        self._mutation_lock = threading.RLock()
        # The epoch counter advances on every snapshot acquisition.  A
        # page's "allocation mark" is the counter value when it was
        # allocated: snapshots with epoch >= mark were captured after the
        # page existed and may reference it.
        self._epoch = 0
        self._active_snapshots: Dict[int, int] = {}  # epoch -> refcount
        self._page_epoch: Dict[int, int] = {}  # page_id -> allocation mark
        # Pages/tags unlinked while a snapshot could still see them:
        # (retire_epoch, page_id | tag), freed once no active snapshot has
        # epoch < retire_epoch.
        self._retired_pages: List[Tuple[int, int]] = []
        self._retired_tags: List[Tuple[int, Tuple[str, int]]] = []

    # -- snapshot isolation ------------------------------------------------

    @property
    def mutation_lock(self) -> threading.RLock:
        """The store's writer lock — public so the table layer can capture
        its positional order and a store snapshot atomically."""
        return self._mutation_lock

    def snapshot(self) -> StoreSnapshot:
        """Capture an immutable view of the current grouping and chains.

        The caller must :meth:`StoreSnapshot.release` it (scans do this
        automatically when their iterator is exhausted or closed)."""
        with self._mutation_lock:
            epoch = self._epoch
            self._epoch += 1
            self._active_snapshots[epoch] = self._active_snapshots.get(epoch, 0) + 1
            snap = StoreSnapshot(
                self,
                epoch,
                [list(members) for members in self.schema.groups],
                list(self._groups),
                self._n_rows,
            )
            for chain in snap.chains:
                if chain:
                    self.pool.pin(chain[0])
            return snap

    def _release_snapshot(self, snap: StoreSnapshot) -> None:
        with self._mutation_lock:
            if snap.released:
                return
            snap.released = True
            count = self._active_snapshots.get(snap.epoch, 0) - 1
            if count <= 0:
                self._active_snapshots.pop(snap.epoch, None)
            else:
                self._active_snapshots[snap.epoch] = count
            for chain in snap.chains:
                if chain:
                    self.pool.unpin(chain[0])
            self._reclaim()

    def _newest_active_epoch(self) -> int:
        """Largest active snapshot epoch, or -1 when none are open.
        Caller holds the mutation lock."""
        return max(self._active_snapshots) if self._active_snapshots else -1

    def _reclaim(self) -> None:
        """Free retired pages/tags no open snapshot can observe.

        A snapshot with epoch E sees a page retired at R iff E < R, so a
        retirement is reclaimable once ``min(active epochs) >= R`` (or no
        snapshot is open at all).  Caller holds the mutation lock."""
        if not self._retired_pages and not self._retired_tags:
            return
        floor = (
            min(self._active_snapshots) if self._active_snapshots else None
        )
        keep_pages: List[Tuple[int, int]] = []
        for retire_epoch, page_id in self._retired_pages:
            if floor is not None and retire_epoch > floor:
                keep_pages.append((retire_epoch, page_id))
            else:
                self._page_epoch.pop(page_id, None)
                self._page_meta.pop(page_id, None)
                self.pool.free_page(page_id)
        self._retired_pages = keep_pages
        keep_tags: List[Tuple[int, Tuple[str, int]]] = []
        for retire_epoch, tag in self._retired_tags:
            if floor is not None and retire_epoch > floor:
                keep_tags.append((retire_epoch, tag))
            else:
                self.pool.drop_tag_stats(tag)
        self._retired_tags = keep_tags

    def _new_page(self, tag: Tuple[str, int]):
        """Allocate a pool page stamped with the current epoch mark.
        Caller holds the mutation lock."""
        page = self.pool.new_page(tag=tag)
        self._page_epoch[page.page_id] = self._epoch
        return page

    def _release_page(self, page_id: int) -> None:
        """Unlink a page: free it now if private, else retire it until the
        last snapshot that can see it is released.  Caller holds the
        mutation lock."""
        mark = self._page_epoch.get(page_id, 0)
        if self._active_snapshots and mark <= self._newest_active_epoch():
            self._retired_pages.append((self._epoch, page_id))
        else:
            self._page_epoch.pop(page_id, None)
            self._page_meta.pop(page_id, None)
            self.pool.free_page(page_id)

    def _release_tag(self, tag: Tuple[str, int]) -> None:
        """Drop a dead group's I/O counters once the snapshots still
        charging reads to it are gone.  Caller holds the mutation lock."""
        if self._active_snapshots:
            self._retired_tags.append((self._epoch, tag))
        else:
            self.pool.drop_tag_stats(tag)

    def _writable_page(self, group_index: int, page: Any) -> Any:
        """Copy-on-write gate for in-place page mutation.

        With no open snapshot able to see ``page`` it is returned as-is —
        the historical zero-overhead path.  Otherwise the page is cloned
        onto a fresh page id, the clone replaces the original in the live
        chain and rid directory, and the original is retired for the open
        snapshots to finish with.  Caller holds the mutation lock."""
        newest = self._newest_active_epoch()
        if newest < 0 or self._page_epoch.get(page.page_id, 0) > newest:
            return page
        group = self._groups[group_index]
        clone = self._new_page(self._tag(group_index))
        # Page images are immutable past their list and dict: share them.
        clone.records = list(page.records)
        clone.header = dict(page.header)
        clone.mark_dirty()
        chain = group.chain
        for i in range(len(chain) - 1, -1, -1):
            if chain[i] == page.page_id:
                chain[i] = clone.page_id
                break
        for rid in _page_rids(clone):
            group.rid_page[rid] = clone.page_id
        self._release_page(page.page_id)
        return clone

    def snapshot_stats(self) -> Dict[str, int]:
        """Observability: open snapshots and deferred reclamation debt."""
        with self._mutation_lock:
            return {
                "epoch": self._epoch,
                "active_snapshots": sum(self._active_snapshots.values()),
                "retired_pages": len(self._retired_pages),
                "retired_tags": len(self._retired_tags),
            }

    # -- basic properties --------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def pages_in_group(self, group_index: int) -> int:
        return len(self._groups[group_index].chain)

    @property
    def n_pages(self) -> int:
        return sum(len(group.chain) for group in self._groups)

    def rids(self) -> List[int]:
        """All live rids, in insertion order of their first group."""
        with self._mutation_lock:
            if not self._groups:
                return []
            result: List[int] = []
            for page_id in self._groups[0].chain:
                page = self.pool.get(page_id)
                result.extend(_page_rids(page))
            return result

    # -- internal page helpers ---------------------------------------------

    def _tag(self, group_index: int) -> Tuple[str, int]:
        """Pager accounting tag for one group's pages."""
        return (self.owner, self._groups[group_index].gid)

    def group_io_stats(self, group_index: int) -> IOStats:
        """Cumulative block I/O charged to one group's page chain."""
        return self.pool.tag_stats(self._tag(group_index))

    def _group_capacity(self, group_index: int) -> int:
        """Records per page for one group's chain.

        ``page_capacity`` is a *value* budget per block (standing in for the
        byte budget of a real 8 KB page), so narrow fragments pack more
        records per block — the physical effect that makes the hybrid
        store's fresh-chain ADD COLUMN cheap in blocks, not just in
        rewrites."""
        width = max(1, len(self.schema.groups[group_index]))
        return max(1, self.pool.page_capacity // width)

    def _append_record(self, group_index: int, rid: int, fragment: Tuple[Any, ...]) -> None:
        """Append one fragment to a group's tail page.  Caller holds the
        mutation lock (every public mutator takes it)."""
        group = self._groups[group_index]
        page = None
        if group.chain:
            last = self.pool.get(group.chain[-1])
            # Encoded pages are immutable; fresh records go on a plain tail.
            # (An encoded page holds no plain records, only some rids.)
            if last.n_records < self._group_capacity(group_index) and (
                last.records or not _page_rids(last)
            ):
                page = self._writable_page(group_index, last)
        if page is None:
            page = self._new_page(self._tag(group_index))
            group.chain.append(page.page_id)
            group.plain_pages += 1
        page.records.append((rid, fragment))
        page.mark_dirty()
        self._page_meta.pop(page.page_id, None)
        group.rid_page[rid] = page.page_id

    # -- encoded-page helpers ----------------------------------------------

    def _charge_decode_tag(self, tag: Tuple[str, int], n_bytes: int) -> None:
        """Account simulated payload bytes decoded from one group's pages,
        addressed by tag: snapshot scans charge the tag of the record
        captured at open, which stays correct even if the live group index
        moved."""
        if n_bytes <= 0:
            return
        self.bytes_decoded += n_bytes
        self.pool.add_bytes(tag, bytes_read=n_bytes)

    def _thaw_page(self, group_index: int, page: Any) -> None:
        """Decode an encoded page back into plain records, in place.

        Mutations (update/delete) land here; read paths never thaw, so a
        snapshot taken after pure scans still sees the encoded chain."""
        enc = page.header.pop("enc", None)
        if enc is None:
            return
        columns = [decode_column(kind, payload) for kind, payload in enc.cols]
        page.records = [
            (rid, tuple(column[i] for column in columns))
            for i, rid in enumerate(enc.rids)
        ]
        page.mark_dirty()
        self._groups[group_index].plain_pages += 1
        self._charge_decode_tag(self._tag(group_index), enc.bytes)

    def _find_slot(self, group_index: int, rid: int) -> Tuple[Any, int]:
        """Locate (and thaw) a rid's page for in-place mutation, routing
        through the copy-on-write gate.  Caller holds the mutation lock."""
        page_id = self._groups[group_index].rid_page.get(rid)
        if page_id is None:
            raise StorageError(f"rid {rid} not found in group {group_index}")
        page = self._writable_page(group_index, self.pool.get(page_id))
        self._thaw_page(group_index, page)
        self._page_meta.pop(page.page_id, None)
        for slot, (record_rid, _) in enumerate(page.records):
            if record_rid == rid:
                return page, slot
        raise StorageError(f"rid {rid} missing from page {page.page_id} (corrupt directory)")

    # -- zone maps (data skipping) -------------------------------------------

    def _page_zone(
        self, page_id: int, frag_offset: int
    ) -> Tuple[int, Optional[Tuple[Any, Any, int]]]:
        """``(record count, zone-map entry)`` for one fragment offset of a
        page whose zone is not cached yet: fetches the page and caches both
        so the *next* scan can skip the page without fetching it.  Safe
        without the mutation lock: pages reachable from a snapshot chain
        are immutable (in-place mutators route through the copy-on-write
        gate), and concurrent recomputation writes identical values."""
        rids, (values,), _, _ = _decode_page(self.pool.get(page_id), (frag_offset,))
        meta = self._page_meta.setdefault(page_id, (len(rids), {}))
        zone = meta[1][frag_offset] = _zone_of(values)
        return meta[0], zone

    def _dead_intervals(
        self,
        snap: StoreSnapshot,
        placements: Sequence[Tuple[int, int, int]],
        names: Sequence[str],
        predicate_ranges: Dict[str, Any],
    ) -> List[Tuple[int, int]]:
        """Merged half-open *position* intervals (over the snapshot's
        shared row order) that zone maps prove cannot satisfy
        ``predicate_ranges`` (lower-cased column name → an interval set
        with a ``may_match(lo, hi, nulls, count)`` method).

        Walks each predicate column's captured chain keeping a prefix sum
        of page record counts; a page whose zone excludes the column's
        interval set contributes its position extent (AND semantics: any
        column excluding a position kills it).  Pages with no cached zone
        are fetched — they belong to covering chains the scan reads anyway
        — so the cache fills and the next scan skips without fetching.
        Position-interval (rather than page-id) form is what keeps every
        covering chain's surviving rid sequence in lockstep despite
        differing page boundaries.  Runs on immutable snapshot chains, so
        the mutation lock is not required."""
        dead: List[Tuple[int, int]] = []
        for group_index, frag_offset, out_offset in placements:
            ranges = predicate_ranges.get(names[out_offset].lower())
            if ranges is None:
                continue
            position = 0
            for page_id in snap.chains[group_index]:
                meta = self._page_meta.get(page_id)
                if meta is not None and frag_offset in meta[1]:
                    count, zone = meta[0], meta[1][frag_offset]
                else:
                    count, zone = self._page_zone(page_id, frag_offset)
                if count and zone is not None:
                    if not ranges.may_match(zone[0], zone[1], zone[2], count):
                        dead.append((position, position + count))
                position += count
        return _merge_intervals(dead)

    def _sanitize_page_zones(self, page: Any, needed_offsets: Sequence[int]) -> None:
        """Sanitize mode: verify cached zone maps against the decoded
        contents of a page about to be served — a stale zone (one that
        could exclude a live row) must never exist."""
        meta = self._page_meta.get(page.page_id)
        if meta is None:
            return
        count, zones = meta
        offsets = [offset for offset in needed_offsets if zones.get(offset) is not None]
        rids, columns, _, _ = _decode_page(page, offsets)
        self.sanitizer.check_zone_count(page.page_id, count, len(rids))
        for offset, values in zip(offsets, columns):
            self.sanitizer.check_zone(page.page_id, offset, zones[offset], values)

    def skip_fraction(self, column_name: str, ranges: Any) -> float:
        """Fraction of ``column_name``'s chain pages whose *cached* zone
        maps prove they cannot match ``ranges`` — the planner's estimate
        of how much a zone-map-skipping scan saves.  Only cached zones
        count (uncached pages must be fetched regardless), so a cold store
        prices as a full scan — matching what the next scan actually pays.
        """
        with self._mutation_lock:
            group_index, offset = _locate(self.schema.groups, column_name)
            chain = self._groups[group_index].chain
            if not chain:
                return 0.0
            skippable = 0
            for page_id in chain:
                meta = self._page_meta.get(page_id)
                if meta is None or not meta[0]:
                    continue
                zone = meta[1].get(offset)
                if zone is not None and not ranges.may_match(
                    zone[0], zone[1], zone[2], meta[0]
                ):
                    skippable += 1
            return skippable / len(chain)

    def zone_coverage(self, group_index: int) -> float:
        """Fraction of one group's chain pages carrying a cached zone map
        (observability; coverage grows as scans touch the chain)."""
        with self._mutation_lock:
            chain = self._groups[group_index].chain
            if not chain:
                return 0.0
            cached = sum(
                1
                for page_id in chain
                if self._page_meta.get(page_id, (0, {}))[1]
            )
            return cached / len(chain)

    # -- tuple operations ---------------------------------------------------

    def insert(self, row: Sequence[Any], rid: Optional[int] = None) -> int:
        """Append a logical row; returns its rid.

        Passing ``rid`` restores a previously-deleted record id — used by
        transaction rollback so later undo entries that captured the old
        rid stay valid."""
        with self._mutation_lock:
            fragments = self.schema.split_row(tuple(row))
            if rid is not None:
                if self.exists(rid):
                    raise StorageError(f"rid {rid} is already live")
                self._next_rid = max(self._next_rid, rid + 1)
            else:
                rid = self._next_rid
                self._next_rid += 1
            for group_index, fragment in enumerate(fragments):
                self._append_record(group_index, rid, fragment)
            self._n_rows += 1
            self.access_stats.inserts += 1
            return rid

    def read_row(self, rid: int) -> Tuple[Any, ...]:
        """Fetch a full row without charging workload statistics.

        Scans, migration and validation use this so that bulk access is
        accounted at its own (cheaper, chain-sequential) cost rather than
        as per-row point reads.  Held under the mutation lock so the row
        is assembled against one consistent grouping even while the
        maintenance worker migrates chains.  Pages are read without
        thawing them."""
        with self._mutation_lock:
            fragments = []
            for group_index, group in enumerate(self._groups):
                page_id = group.rid_page.get(rid)
                if page_id is None:
                    raise StorageError(f"rid {rid} not found in group {group_index}")
                fragments.append(_page_fragment(self.pool.get(page_id), rid))
            return self.schema.join_fragments(fragments)

    def get(self, rid: int) -> Tuple[Any, ...]:
        """Point read of one full row (one page per group)."""
        self.access_stats.point_reads += 1
        return self.read_row(rid)

    def exists(self, rid: int) -> bool:
        with self._mutation_lock:
            return bool(self._groups) and rid in self._groups[0].rid_page

    def update(self, rid: int, row: Sequence[Any]) -> None:
        with self._mutation_lock:
            fragments = self.schema.split_row(tuple(row))
            for group_index, fragment in enumerate(fragments):
                page, slot = self._find_slot(group_index, rid)
                page.records[slot] = (rid, fragment)
                page.mark_dirty()
            self.access_stats.full_updates += 1

    def update_column(self, rid: int, column_name: str, value: Any) -> None:
        """Partial update touching only the column's own group — the
        tuple-update cost the paper wants schema changes to match."""
        with self._mutation_lock:
            group_index, offset = _locate(self.schema.groups, column_name)
            self.access_stats.column(column_name).updates += 1
            page, slot = self._find_slot(group_index, rid)
            old_rid, fragment = page.records[slot]
            new_fragment = tuple(
                value if i == offset else item for i, item in enumerate(fragment)
            )
            page.records[slot] = (old_rid, new_fragment)
            page.mark_dirty()

    def delete(self, rid: int) -> None:
        with self._mutation_lock:
            for group_index in range(self.n_groups):
                page, slot = self._find_slot(group_index, rid)
                del page.records[slot]
                page.mark_dirty()
                del self._groups[group_index].rid_page[rid]
            self._n_rows -= 1
            self.access_stats.deletes += 1

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield ``(rid, row)`` in heap order of the first group's chain."""
        self.access_stats.full_scans += 1
        for rid in self.rids():
            yield rid, self.read_row(rid)

    def scan_groups(
        self,
        column_names: Sequence[str],
        snapshot: Optional[StoreSnapshot] = None,
    ) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """``(rid, values)`` view of :meth:`scan_group_batches`, ``values``
        ordered like ``column_names``, in the heap order of the covering
        chains.  Same snapshot, statistics and laziness contract: the
        snapshot is pinned and the workload charged at call time, and an
        early-exiting consumer reads only the page prefix behind the
        batches it pulled."""
        batches = self.scan_group_batches(column_names, snapshot=snapshot)
        return (pair for rids, cols in batches for pair in zip(rids, zip(*cols)))

    def _chain_batches(
        self,
        snap: StoreSnapshot,
        group_index: int,
        needed_offsets: Sequence[int],
        dead: Optional[List[Tuple[int, int]]] = None,
    ) -> Iterator[Tuple[List[int], List[List[Any]]]]:
        """Stream one captured chain page-at-a-time as ``(rids, columns)``
        where ``columns`` holds one value list per ``needed_offsets``.

        ``dead`` (merged half-open position intervals from
        :meth:`_dead_intervals`) drops the rows at those positions —
        identically in every covering chain, so rid lockstep survives
        skipping.  A page wholly inside a dead interval is skipped before
        any decode; when its record count is already cached it is skipped
        without even fetching it from the buffer pool."""
        needed = list(needed_offsets)
        group = snap.group_records[group_index]
        tag = (self.owner, group.gid)
        sanitize = self.sanitizer.enabled
        position = 0
        cursor = 0
        n_dead = len(dead) if dead else 0
        for page_id in snap.chains[group_index]:
            page = None
            alive: Optional[List[int]] = None
            if n_dead:
                meta = self._page_meta.get(page_id)
                if meta is None or not meta[0]:
                    # Record count not cached yet: fetch the page to learn it.
                    page = self.pool.get(page_id)
                    meta = self._page_meta.setdefault(
                        page_id, (len(_page_rids(page)), {})
                    )
                count = meta[0]
                while cursor < n_dead and dead[cursor][1] <= position:
                    cursor += 1
                alive = _alive_offsets(dead, cursor, position, count)
                position += count
                if alive is not None and not alive:
                    # Provably dead: skipped before any decode work, and
                    # with a cached count without touching the pool.
                    self.pages_skipped += 1
                    group.pages_skipped += 1
                    continue
            if page is None:
                page = self.pool.get(page_id)
            rids, columns, n_bytes, _ = _decode_page(page, needed, alive)
            if not n_dead and page_id not in self._page_meta:
                self._page_meta[page_id] = (len(rids), {})
            group.pages_scanned += 1
            if sanitize:
                self._sanitize_page_zones(page, needed)
            self._charge_decode_tag(tag, n_bytes)
            yield rids, columns

    def scan_group_batches(
        self,
        column_names: Sequence[str],
        batch_size: int = DEFAULT_BATCH_SIZE,
        snapshot: Optional[StoreSnapshot] = None,
        predicate_ranges: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Tuple[List[int], List[List[Any]]]]:
        """Scan a *set* of columns together, touching only the page chains
        of the groups that cover them: yields ``(rids, columns)`` with
        ``columns`` ordered like ``column_names`` and every list
        rid-aligned, ``batch_size`` rows per batch (the last one short),
        in the heap order of the covering chains.

        The covering chains are captured in a :class:`StoreSnapshot` at
        call time (or taken from the caller, whose it stays to release),
        so concurrent writes and in-flight ``restructure()`` swaps are
        invisible to the scan.  They are walked **in lockstep**: every
        mutation applies to all chains identically (inserts append
        everywhere, deletes remove everywhere, restructures rebuild in the
        shared rid order), so all chains enumerate records in the same
        order and the scan streams page-at-a-time — an early-exiting
        consumer (LIMIT) only reads the page prefix behind the batches it
        pulled.  Encoded pages are decoded lazily into whole column
        fragments; no per-row tuples are built here, late materialization
        is the *caller's* choice.  Charges one co-access scan over the set
        (or a plain full scan when the set covers every column, so
        ``SELECT *`` does not skew the advisor's hot-column ranking) — the
        workload signals the layout advisor prices.

        ``predicate_ranges`` (lower-cased column name → sargable interval
        set, see :func:`repro.engine.expr.extract_sargable_ranges`) arms
        zone-map data skipping: rows on pages whose cached min/max/null
        zones prove no value can satisfy the ranges are dropped *before
        decode* — identically across every covering chain, so batches stay
        rid-aligned.  Dropped rows are guaranteed non-matching, but
        surviving rows are **not** guaranteed matches: callers still apply
        the full predicate.  Ranges naming columns outside ``column_names``
        are ignored (ignoring a constraint only under-skips)."""
        names = list(column_names)
        if not names:
            raise ValueError("a store scan needs at least one column")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        owns = snapshot is None
        with self._mutation_lock:
            snap = snapshot if snapshot is not None else self.snapshot()
            try:
                # (group_index, fragment_offset, output_offset) per column,
                # resolved against the captured grouping.
                placements = snap.placements(names)
                if {name.lower() for name in names} == snap.column_set():
                    self.access_stats.full_scans += 1
                else:
                    self.access_stats.record_scan(names)
                self.batch_scans += 1
            except BaseException:
                if owns:
                    snap.release()
                raise
        covering = sorted({group_index for group_index, _, _ in placements})
        by_group: Dict[int, List[Tuple[int, int]]] = {}
        for group_index, frag_offset, out_offset in placements:
            by_group.setdefault(group_index, []).append((frag_offset, out_offset))
        needed = {
            group_index: [frag for frag, _ in by_group[group_index]]
            for group_index in covering
        }

        def batches() -> Iterator[Tuple[List[int], List[List[Any]]]]:
            try:
                width = len(names)
                driver = covering[0]
                others = covering[1:]
                dead: Optional[List[Tuple[int, int]]] = None
                if predicate_ranges:
                    dead = self._dead_intervals(
                        snap, placements, names, predicate_ranges
                    )
                    if not dead:
                        dead = None
                streams = {
                    group_index: _BatchCursor(
                        self._chain_batches(
                            snap, group_index, needed[group_index], dead
                        )
                    )
                    for group_index in covering
                }
                fallback: set = set()
                while True:
                    rids, driver_cols = streams[driver].take(batch_size)
                    if not rids:
                        return
                    out: List[Optional[List[Any]]] = [None] * width
                    for position, (_, out_offset) in enumerate(by_group[driver]):
                        out[out_offset] = driver_cols[position]
                    for group_index in others:
                        other_cols = None
                        if group_index not in fallback:
                            other_rids, other_cols = streams[group_index].take(
                                len(rids)
                            )
                            if other_rids != rids:
                                # Lockstep invariant violated (should not
                                # happen); under the sanitizer this is a
                                # hard error, otherwise degrade this chain
                                # to per-rid directory lookups — slower,
                                # still correct.
                                if self.sanitizer.enabled:
                                    self.sanitizer.lockstep_mismatch(
                                        group_index, rids, other_rids
                                    )
                                fallback.add(group_index)
                                other_cols = None
                        if other_cols is None:
                            frags = [
                                snap.fragment_at(group_index, rid) for rid in rids
                            ]
                            other_cols = [
                                [fragment[offset] for fragment in frags]
                                for offset in needed[group_index]
                            ]
                        for position, (_, out_offset) in enumerate(
                            by_group[group_index]
                        ):
                            out[out_offset] = other_cols[position]
                    self.batches_emitted += 1
                    if self.sanitizer.enabled:
                        self.sanitizer.check_batch(rids, out)
                    yield rids, out  # type: ignore[misc]
            finally:
                if owns:
                    snap.release()

        return batches()

    # -- schema evolution ----------------------------------------------------

    def add_column(
        self,
        column: Column,
        group_index: Optional[int] = None,
        new_group: Optional[bool] = None,
    ) -> int:
        """Add a column, placing it physically per the layout policy.

        Returns the number of **existing** pages rewritten — the quantity
        experiment E6 charts.  New-chain allocations are not counted as
        rewrites (they are sequential writes of fresh blocks).
        """
        with self._mutation_lock:
            if new_group is None:
                new_group = self.layout is not LayoutPolicy.ROW
            if self.layout is LayoutPolicy.ROW:
                target_group: Optional[int] = 0 if self.schema.n_groups > 0 else None
                placed = self.schema.add_column(column, group_index=target_group)
            elif self.layout is LayoutPolicy.COLUMN:
                placed = self.schema.add_column(column, new_group=True)
            else:
                placed = self.schema.add_column(
                    column, group_index=group_index, new_group=new_group
                )
            self.access_stats.schema_changes += 1
            self.access_stats.column(column.name)
            default = column.default
            if placed >= len(self._groups):
                # Fresh group: build its chain from scratch; zero rewrites.
                self._groups.append(_Group(self._next_gid))
                self._next_gid += 1
                for rid in self.rids():
                    self._append_record(placed, rid, (default,))
                return 0
            # Existing group: widen every fragment of that chain.
            _, offset = _locate(self.schema.groups, column.name)
            return self._rewrite_group(
                placed,
                lambda fragment: fragment[:offset] + (default,) + fragment[offset:],
            )

    def drop_column(self, column_name: str) -> int:
        """Drop a column; returns the number of existing pages rewritten."""
        with self._mutation_lock:
            group_index, offset = _locate(self.schema.groups, column_name)
            self.access_stats.schema_changes += 1
            self.access_stats.columns.pop(column_name.lower(), None)
            dropped_key = column_name.lower()
            self.access_stats.remap_scan_sets(
                lambda names: tuple(name for name in names if name != dropped_key)
            )
            if len(self.schema.groups[group_index]) == 1:
                # Sole member: unlink the whole chain, rewrite nothing.
                # Retired (not freed) while snapshots still walk it.
                tag = self._tag(group_index)
                self.schema.drop_column(column_name)
                for page_id in self._groups[group_index].chain:
                    self._release_page(page_id)
                self._release_tag(tag)
                del self._groups[group_index]
                return 0
            self.schema.drop_column(column_name)
            return self._rewrite_group(
                group_index,
                lambda fragment: fragment[:offset] + fragment[offset + 1 :],
            )

    def _rewrite_group(
        self, group_index: int, rewrite: Callable[[Tuple[Any, ...]], Tuple[Any, ...]]
    ) -> int:
        """Rewrite every fragment of one group's chain through ``rewrite``;
        returns the number of existing pages rewritten.  Each page is
        routed through the copy-on-write gate (open snapshots keep the
        pre-change fragments) and thawed, so the whole chain ends plain.
        Caller holds the mutation lock."""
        group = self._groups[group_index]
        for page_id in list(group.chain):
            page = self._writable_page(group_index, self.pool.get(page_id))
            self._thaw_page(group_index, page)
            page.records = [(rid, rewrite(fragment)) for rid, fragment in page.records]
            page.mark_dirty()
            self._page_meta.pop(page.page_id, None)
        group.reset_encoding()
        return len(group.chain)

    def rename_column(self, old: str, new: str) -> None:
        """Metadata-only operation; no pages touched in any layout."""
        with self._mutation_lock:
            self.schema.rename_column(old, new)
            self.access_stats.schema_changes += 1
            moved = self.access_stats.columns.pop(old.lower(), None)
            if moved is not None:
                self.access_stats.columns[new.lower()] = moved
            old_key = old.lower()
            self.access_stats.remap_scan_sets(
                lambda names: tuple(
                    sorted(new.lower() if name == old_key else name for name in names)
                )
                if old_key in names
                else names
            )

    # -- re-partitioning -------------------------------------------------------

    def _build_chain(
        self,
        members: Sequence[str],
        rid_order: Sequence[int],
        gid: int,
        allocated: List[int],
    ) -> Tuple[List[int], Dict[int, int]]:
        """Materialise a fresh chain for one prospective group.

        Reads each member column chain-sequentially from the live layout
        without charging workload statistics, and only allocates new pages
        (recorded in ``allocated`` so a failed restructure can release
        them); never mutates existing chains.  Caller holds the mutation
        lock."""
        width = max(1, len(members))
        capacity = max(1, self.pool.page_capacity // width)
        sources: List[Dict[int, Any]] = []
        for name in members:
            group_index, offset = _locate(self.schema.groups, name)
            values: Dict[int, Any] = {}
            for page_id in self._groups[group_index].chain:
                rids, (column,), _, _ = _decode_page(self.pool.get(page_id), (offset,))
                values.update(zip(rids, column))
            sources.append(values)
        chain: List[int] = []
        directory: Dict[int, int] = {}
        page = None
        tag = (self.owner, gid)
        for rid in rid_order:
            fragment = tuple(source[rid] for source in sources)
            if page is None or page.n_records >= capacity:
                page = self._new_page(tag)
                chain.append(page.page_id)
                allocated.append(page.page_id)
            page.records.append((rid, fragment))
            page.mark_dirty()
            directory[rid] = page.page_id
        return chain, directory

    def restructure(self, target_groups: Sequence[Sequence[str]]) -> int:
        """Re-partition into ``target_groups``, rebuilding only the groups
        whose member list actually changes; returns new pages written
        (:attr:`n_pages` gives the size of the resulting layout).

        **Build-then-swap-then-retire**, all under the mutation lock:
        every changed group gets a fresh record whose chain is fully
        materialised through the buffer pool *before* the schema and the
        record list are swapped; unchanged groups keep their record.  An
        exception at any point (bad grouping discovered late, allocation
        failure, crash injection) leaves the store exactly as it was.  The
        dropped records' pages are *retired* after the swap: freed
        immediately when no snapshot is open, otherwise kept alive until
        the last snapshot whose epoch can see them is released, so
        concurrent scans finish against the pre-migration chains.  This is
        the offline compaction that amortises many cheap ADD COLUMNs, and
        one step of the online :class:`repro.engine.layout.LayoutMigration`.
        """
        with self._mutation_lock:
            targets = [list(group) for group in target_groups if group]
            flat = [name.lower() for group in targets for name in group]
            expected = sorted(name.lower() for name in self.schema.column_names)
            if sorted(flat) != expected:
                raise SchemaError(
                    "target groups must cover exactly the current columns"
                )
            old_keys = {
                tuple(name.lower() for name in group): index
                for index, group in enumerate(self.schema.groups)
            }
            rid_order = self.rids()
            groups: List[_Group] = []
            allocated: List[int] = []
            pages_written = 0
            try:
                for members in targets:
                    key = tuple(name.lower() for name in members)
                    old_index = old_keys.get(key)
                    if old_index is not None:
                        groups.append(self._groups[old_index])
                        continue
                    gid = self._next_gid
                    self._next_gid += 1
                    chain, directory = self._build_chain(
                        members, rid_order, gid, allocated
                    )
                    groups.append(_Group(gid, chain, directory))
                    pages_written += len(chain)
            except BaseException:
                for page_id in allocated:
                    # Freshly allocated under the lock: no snapshot can
                    # reference them, so _release_page frees immediately.
                    self._release_page(page_id)
                raise
            # Swap: from here on nothing can fail.
            old_groups = self._groups
            self.schema.set_groups(targets)
            self._groups = groups
            # Retire: the dropped records' pages, now unreachable from the
            # live directory, and their I/O counters (migrations mint fresh
            # group ids, so stale tags would otherwise accumulate forever).
            # Open snapshots keep both alive until released.
            for group in old_groups:
                if group not in groups:
                    for page_id in group.chain:
                        self._release_page(page_id)
                    self._release_tag((self.owner, group.gid))
            return pages_written

    # -- page encodings ------------------------------------------------------

    def group_encoded(self, group_index: int) -> bool:
        return self._groups[group_index].encoded

    def group_encoding_ratio(self, group_index: int) -> float:
        return self._groups[group_index].ratio

    @property
    def encoded_group_count(self) -> int:
        return sum(1 for group in self._groups if group.encoded)

    def encode_group(self, group_index: int) -> int:
        """Rewrite one group's chain with per-column page encodings.

        Picks the smallest of plain/packed/dict/rle per column over the
        whole chain (:func:`repro.engine.encoding.choose_encoding`), then
        rebuilds the chain with each page holding ``capacity × ratio``
        records — the byte savings become *block* savings, which is what
        the pager counts.  Build-then-swap like :meth:`restructure`.
        Returns the new chain's page count, or 0 when the group does not
        compress (remembered, so maintenance stops retrying)."""
        with self._mutation_lock:
            group = self._groups[group_index]
            width = max(1, len(self.schema.groups[group_index]))
            rid_list: List[int] = []
            columns: List[List[Any]] = [[] for _ in range(width)]
            for page_id in group.chain:
                rids, values, _, _ = _decode_page(self.pool.get(page_id), range(width))
                rid_list.extend(rids)
                for column, more in zip(columns, values):
                    column.extend(more)
            n = len(rid_list)
            if n == 0:
                group.enc_failed = True
                return 0
            kinds: List[str] = []
            encoded_bytes = 0
            for offset in range(width):
                kind, size = choose_encoding(columns[offset])
                kinds.append(kind)
                encoded_bytes += size
            plain_bytes = n * width * PLAIN_VALUE_BYTES
            ratio = plain_bytes / max(1, encoded_bytes)
            if ratio <= 1.05:
                group.enc_failed = True
                return 0
            capacity = self._group_capacity(group_index)
            per_page = max(capacity, int(capacity * ratio))
            tag = self._tag(group_index)
            chain: List[int] = []
            directory: Dict[int, int] = {}
            allocated: List[int] = []
            try:
                for start in range(0, n, per_page):
                    stop = min(n, start + per_page)
                    page = self._new_page(tag)
                    allocated.append(page.page_id)
                    chain.append(page.page_id)
                    page_rids = tuple(rid_list[start:stop])
                    cols = tuple(
                        (kind, encode_column(column[start:stop], kind))
                        for kind, column in zip(kinds, columns)
                    )
                    col_bytes = tuple(
                        encoded_size(stop - start, kind, payload) for kind, payload in cols
                    )
                    total = sum(col_bytes)
                    page_plain = (stop - start) * width * PLAIN_VALUE_BYTES
                    page.header["enc"] = EncodedPage(page_rids, cols, col_bytes, total, page_plain)
                    page.mark_dirty()
                    # The column slices are in hand: compute zone maps
                    # eagerly so the encoded chain skips on its first scan.
                    self._page_meta[page.page_id] = (
                        stop - start,
                        {
                            offset: _zone_of(columns[offset][start:stop])
                            for offset in range(width)
                        },
                    )
                    self.pool.add_bytes(tag, bytes_written=total)
                    for rid in page_rids:
                        directory[rid] = page.page_id
            except BaseException:
                for page_id in allocated:
                    self._release_page(page_id)
                raise
            # Swap in the encoded chain; the plain one is retired for any
            # open snapshot still streaming it.
            for page_id in group.chain:
                self._release_page(page_id)
            group.chain = chain
            group.rid_page = directory
            group.encoded = True
            group.ratio = ratio
            group.enc_failed = False
            group.plain_pages = 0
            return len(chain)

    def encoding_tick(
        self, min_scans: int = 8, min_pages: int = 2
    ) -> List[Tuple[int, float]]:
        """Maintenance pass: encode the chains the workload scans.

        A group qualifies when its members have accumulated ``min_scans``
        scans and its chain has at least ``min_pages`` plain pages (an
        encoded chain re-qualifies once its plain tail grows back).
        Returns ``(group_index, ratio)`` for every group encoded."""
        encoded: List[Tuple[int, float]] = []
        with self._mutation_lock:
            for group_index, members in enumerate(self.schema.groups):
                group = self._groups[group_index]
                if group.enc_failed:
                    continue
                if group.plain_pages < min_pages:
                    continue
                scans = sum(
                    self.access_stats.column(name).scans for name in members
                ) + self.access_stats.full_scans
                if scans < min_scans:
                    continue
                if self.encode_group(group_index):
                    encoded.append((group_index, group.ratio))
        return encoded

    def column_encoding_ratios(self) -> Dict[str, float]:
        """Lower-cased column name → measured compression ratio for every
        column living in an encoded group (the cost model's discount)."""
        ratios: Dict[str, float] = {}
        for group, members in zip(self._groups, self.schema.groups):
            if not group.encoded:
                continue
            for name in members:
                ratios[name.lower()] = group.ratio
        return ratios

    def encoding_snapshot(self) -> List[Dict[str, Any]]:
        """Per-group encoding state, in group order, for persistence."""
        return [
            {
                "encoded": group.encoded,
                "ratio": group.ratio,
                "failed": group.enc_failed,
            }
            for group in self._groups
        ]

    def restore_encodings(self, payloads: Sequence[Dict[str, Any]]) -> None:
        """Re-establish persisted encoding state after a load.

        Snapshots persist *rows*, so the loader re-inserts plain pages;
        re-encoding the flagged groups here restores the physical layout
        (call before :meth:`restore_group_io` so the pre-crash counters
        overwrite the re-encode burst)."""
        for group_index, payload in enumerate(payloads[: self.n_groups]):
            if payload.get("encoded"):
                self.encode_group(group_index)
            elif payload.get("failed"):
                self._groups[group_index].enc_failed = True

    def covering_io_snapshot(self, column_names: Sequence[str]) -> IOStats:
        """Aggregated cumulative I/O of the groups covering a column set.

        The trace instrumentation snapshots this before and after a
        projected scan: the delta is the block I/O the scan charged to
        exactly the page chains it was allowed to touch."""
        groups = sorted({_locate(self.schema.groups, name)[0] for name in column_names})
        total = IOStats()
        for group_index in groups:
            total.add(self.group_io_stats(group_index))
        return total

    def group_io_snapshot(self) -> List[Dict[str, int]]:
        """Cumulative per-group I/O counters, in group order — what the
        persistence layer carries so the ``stats`` surface survives a
        restart (pager tags are process-local and rebuilt on load)."""
        return [self.group_io_stats(index).to_dict() for index in range(self.n_groups)]

    def restore_group_io(self, payloads: Sequence[Dict[str, int]]) -> None:
        """Overwrite the live per-group I/O counters with persisted ones.

        Called after a load's row inserts, so the restart-time page
        allocations are *replaced* by the pre-crash cumulative counters
        rather than stacked on top of them.  Extra/missing entries (the
        grouping changed between snapshot and load — should not happen,
        but a truncated payload must not corrupt the store) are ignored.
        """
        for group_index, payload in enumerate(payloads[: self.n_groups]):
            self.pool.set_tag_stats(self._tag(group_index), IOStats.from_dict(payload))

    def group_skip_stats(self, group_index: int) -> Dict[str, Any]:
        """One group's cumulative data-skipping counters: pages skipped,
        pages decoded, and the resulting skip ratio."""
        group = self._groups[group_index]
        skipped, scanned = group.pages_skipped, group.pages_scanned
        total = skipped + scanned
        return {
            "pages_skipped": skipped,
            "pages_scanned": scanned,
            "skip_ratio": round(skipped / total, 3) if total else 0.0,
        }

    def group_summary(self) -> List[dict]:
        """Per-group statistics (columns, pages, cumulative block I/O)."""
        return [
            {
                "group": index,
                "group_id": self._groups[index].gid,
                "columns": list(members),
                "pages": self.pages_in_group(index),
                "encoded": self._groups[index].encoded,
                "ratio": round(self._groups[index].ratio, 2),
                "zones": round(self.zone_coverage(index), 2),
                "skip": self.group_skip_stats(index),
                "io": {
                    "reads": self.group_io_stats(index).reads,
                    "writes": self.group_io_stats(index).writes,
                    "bytes_read": self.group_io_stats(index).bytes_read,
                },
            }
            for index, members in enumerate(self.schema.groups)
        ]

    # -- maintenance ---------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush dirty buffered pages to the simulated disk; returns the
        number of blocks written (what E6 measures)."""
        return self.pool.flush_all()

    def validate(self) -> None:
        """Internal consistency check used by property-based tests."""
        with self._mutation_lock:
            self._validate_locked()

    def _validate_locked(self) -> None:
        """Body of :meth:`validate`; mutation lock held."""
        if len(self._groups) != self.schema.n_groups:
            raise StorageError("group records do not match schema groups")
        counts = set()
        for group, members in zip(self._groups, self.schema.groups):
            width = len(members)
            seen = 0
            plain_pages = 0
            for page_id in group.chain:
                page = self.pool.get(page_id)
                if any(len(fragment) != width for _, fragment in page.records):
                    raise StorageError("fragment width mismatch")
                rids, columns, _, encoded = _decode_page(page, None)
                if encoded and page.records:
                    raise StorageError("encoded page still holds plain records")
                if encoded and len(columns) != width:
                    raise StorageError("encoded column count mismatch")
                if any(len(column) != len(rids) for column in columns):
                    raise StorageError("encoded column length mismatch")
                for rid in rids:
                    if group.rid_page.get(rid) != page_id:
                        raise StorageError(f"directory mismatch for rid {rid}")
                seen += len(rids)
                plain_pages += not encoded
            if plain_pages != group.plain_pages:
                raise StorageError(
                    f"group {group.gid} counts {group.plain_pages} plain pages, "
                    f"its chain holds {plain_pages}"
                )
            counts.add(seen)
        if len(counts) > 1:
            raise StorageError(f"groups disagree on row count: {counts}")
        if counts and counts.pop() != self._n_rows:
            raise StorageError("row count drifted")
