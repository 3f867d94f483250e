"""Page-based storage substrate with block-I/O accounting.

The paper's storage-manager claims are about *disk blocks touched* ("with an
insight to reduce the disk blocks to update during a schema change", §3).
To reproduce those claims on a laptop we simulate a disk: a
:class:`DiskManager` holds immutable page images and counts every read,
write and allocation; a :class:`BufferPool` sits in front with an LRU of
mutable :class:`Page` frames.  Records are tuples of scalars and an
encoded page's payload is a frozen record, so a read or write copies
pointers, never values.  Benchmarks (E6, E8) read the counters off
:class:`IOStats` rather than wall-clock alone, which makes the *shape* of the
paper's claims measurable deterministically.

A page stores an ordered list of Python-tuple records plus a small header
dict.  ``page_capacity`` bounds the number of records per page, standing in
for the byte budget of a real 8 KB block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER
from repro.errors import StorageError

__all__ = [
    "IOStats",
    "EMPTY_IO_STATS",
    "Page",
    "DiskManager",
    "BufferPool",
    "DEFAULT_PAGE_CAPACITY",
]

#: Records per page; ~8KB block / ~64B row in spirit.
DEFAULT_PAGE_CAPACITY = 128


@dataclass
class IOStats:
    """Counters for the simulated disk.  Block granularity, plus the
    *simulated payload bytes* moved — the page-encoding layer charges
    decoded bytes here so layout tooling can see that an encoded chain
    moves less data per block than a plain one."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def snapshot(self) -> "IOStats":
        return IOStats(**self.to_dict())

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counts accumulated since ``earlier`` (an older snapshot)."""
        return IOStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _IO_FIELDS
            }
        )

    def add(self, other: "IOStats") -> None:
        """Accumulate ``other``'s counts into this one."""
        for name in _IO_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        for name in _IO_FIELDS:
            setattr(self, name, 0)

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def to_dict(self) -> Dict[str, int]:
        """The counters by field name, in declaration order (the persisted
        per-group ``group_io`` shape)."""
        return {name: getattr(self, name) for name in _IO_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IOStats":
        """Inverse of :meth:`to_dict`; a missing counter reads as 0, so
        payloads written before a counter existed still load."""
        return cls(**{name: int(payload.get(name, 0)) for name in _IO_FIELDS})


#: The counter names, in declaration order.
_IO_FIELDS = tuple(spec.name for spec in fields(IOStats))


class _FrozenIOStats(IOStats):
    """An immutable all-zero :class:`IOStats` shared across callers.

    ``tag_stats`` misses used to allocate a fresh ``IOStats()`` per call,
    which both wasted allocations on read-heavy stat paths and invited the
    bug of mutating a throwaway object; this one raises instead.  Use
    :meth:`snapshot` to get a private mutable copy."""

    _sealed = False

    def __setattr__(self, name: str, value: Any) -> None:
        if _FrozenIOStats._sealed:
            raise StorageError(
                "the shared empty IOStats is immutable; use .snapshot() for a copy"
            )
        super().__setattr__(name, value)

    def reset(self) -> None:
        pass  # already all zeros, and must stay that way


#: The shared all-zero stats returned for untouched tags.
EMPTY_IO_STATS = _FrozenIOStats()
_FrozenIOStats._sealed = True


@dataclass
class Page:
    """An in-buffer, mutable page."""

    page_id: int
    records: List[Tuple[Any, ...]] = field(default_factory=list)
    header: Dict[str, Any] = field(default_factory=dict)
    dirty: bool = False

    def mark_dirty(self) -> None:
        self.dirty = True

    @property
    def n_records(self) -> int:
        return len(self.records)


class DiskManager:
    """The simulated disk: page id → immutable image.

    An image is a tuple of records and a header dict over immutable values;
    ``read`` hands out a new list and dict over them, ``write`` stores a
    tuple and a dict copy.  So buffer-pool mutations cannot leak to "disk"
    without an explicit write — exactly the property that makes the write
    counters trustworthy — and no page is ever deep-copied.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, Tuple[Tuple[Tuple[Any, ...], ...], Dict[str, Any]]] = {}
        self._next_id = 0
        self.stats = IOStats()
        # Per-tag accounting: a tag identifies the logical owner of a page
        # (the stores tag pages ``(owner, group_id)`` so layout tooling can
        # read per-attribute-group I/O).  Tag stats survive page frees so
        # counters stay cumulative.
        self._tags: Dict[int, Any] = {}
        self._tag_stats: Dict[Any, IOStats] = {}
        # The maintenance worker charges I/O from its own thread; every
        # counter bump is read-modify-write, so all accounting and page-map
        # mutation happens under this lock.
        self._lock = threading.Lock()

    def _bump(self, page_id: int, field_name: str) -> None:
        """Charge one block operation to ``page_id``'s tag.

        Caller holds ``_lock`` — every public entry point that reaches
        here takes it first."""
        tag = self._tags.get(page_id)
        if tag is None:
            return
        stats = self._tag_stats.get(tag)
        if stats is None:
            stats = self._tag_stats[tag] = IOStats()
        setattr(stats, field_name, getattr(stats, field_name) + 1)

    def add_bytes(self, tag: Any, bytes_read: int = 0, bytes_written: int = 0) -> None:
        """Charge simulated payload bytes globally and to ``tag``.

        Block counters move automatically with read/write; byte counters
        are charged explicitly by the store, which alone knows whether a
        page held encoded fragments (fewer bytes) or plain records."""
        with self._lock:
            self.stats.bytes_read += bytes_read
            self.stats.bytes_written += bytes_written
            if tag is None:
                return
            stats = self._tag_stats.get(tag)
            if stats is None:
                stats = self._tag_stats[tag] = IOStats()
            stats.bytes_read += bytes_read
            stats.bytes_written += bytes_written

    def allocate(self, tag: Any = None) -> int:
        with self._lock:
            page_id = self._next_id
            self._next_id += 1
            self._pages[page_id] = ((), {})
            self.stats.allocations += 1
            if tag is not None:
                self._tags[page_id] = tag
                self._bump(page_id, "allocations")
            return page_id

    def tag_stats(self, tag: Any) -> IOStats:
        """Cumulative I/O charged to one tag.

        A never-touched tag gets the shared immutable
        :data:`EMPTY_IO_STATS` — no allocation per miss, and accidental
        mutation raises instead of silently updating a throwaway."""
        with self._lock:
            return self._tag_stats.get(tag, EMPTY_IO_STATS)

    def stats_snapshot(self) -> Dict[str, Any]:
        """One-pass aggregate over the global counters and every tag,
        shaped for the metrics exporter."""
        tagged = IOStats()
        with self._lock:
            for stats in self._tag_stats.values():
                tagged.add(stats)
        return {
            **{f"pager_{name}": value for name, value in self.stats.to_dict().items()},
            "pager_pages": self.n_pages,
            "pager_tags": len(self._tag_stats),
            "pager_tagged_reads": tagged.reads,
            "pager_tagged_writes": tagged.writes,
        }

    def drop_tag_stats(self, tag: Any) -> None:
        """Forget a tag's counters once its owner is gone — migrations
        mint fresh group tags, so dead ones would pile up forever."""
        with self._lock:
            self._tag_stats.pop(tag, None)

    def set_tag_stats(self, tag: Any, stats: IOStats) -> None:
        """Overwrite a tag's cumulative counters (recovery: restores the
        pre-crash per-group I/O that page tags, being process-local,
        cannot carry across a restart themselves)."""
        with self._lock:
            self._tag_stats[tag] = stats.snapshot()

    def read(self, page_id: int) -> Page:
        with self._lock:
            if page_id not in self._pages:
                raise StorageError(f"read of unallocated page {page_id}")
            records, header = self._pages[page_id]
            self.stats.reads += 1
            self._bump(page_id, "reads")
        # Stored images are never mutated in place (writes replace them
        # wholesale), so the frame's containers are built outside the lock.
        return Page(page_id, list(records), dict(header))

    def write(self, page: Page) -> None:
        records = tuple(page.records)
        header = dict(page.header)
        with self._lock:
            if page.page_id not in self._pages:
                raise StorageError(f"write to unallocated page {page.page_id}")
            self._pages[page.page_id] = (records, header)
            self.stats.writes += 1
            self._bump(page.page_id, "writes")

    def free(self, page_id: int) -> None:
        with self._lock:
            if page_id not in self._pages:
                raise StorageError(f"free of unallocated page {page_id}")
            del self._pages[page_id]
            self.stats.frees += 1
            self._bump(page_id, "frees")
            self._tags.pop(page_id, None)

    @property
    def n_pages(self) -> int:
        return len(self._pages)

    def page_ids(self) -> List[int]:
        return sorted(self._pages)


class BufferPool:
    """LRU buffer pool over a :class:`DiskManager`.

    ``capacity`` is the number of buffered pages; evicting a dirty page
    writes it back.  A capacity of ``None`` means unbounded (still counts
    first-touch reads, which is what most benchmarks want).
    """

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        capacity: Optional[int] = None,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
    ):
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        if capacity is not None and capacity < 1:
            # capacity <= 0 would make _admit evict the page it just
            # admitted, so mutations through the still-held Page reference
            # would never be seen by flush_all — silent lost writes.
            raise StorageError("buffer pool capacity must be >= 1 (or None)")
        self.disk = disk if disk is not None else DiskManager()
        self.capacity = capacity
        self.page_capacity = page_capacity
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        # Per-frame pin counts: store snapshots pin chain heads so that a
        # concurrent writer's evictions/frees cannot push a page an open
        # reader still walks out from under it.  Guarded by ``_mutation_lock``
        # (an RLock: ``get`` is re-entered from ``_admit`` paths).
        self._pins: Dict[int, int] = {}
        self._mutation_lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        # Runtime invariant checks (repro.analysis.sanitizer); the null
        # object keeps the off cost to one attribute load + boolean test.
        self.sanitizer = NULL_SANITIZER

    # -- page access ------------------------------------------------------

    def get(self, page_id: int) -> Page:
        """Fetch a page, reading from disk on a miss."""
        with self._mutation_lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                self.hits += 1
                # Only encoded pages carry the freshness invariant; the header
                # test keeps the armed cost off the plain-page fast path.
                if self.sanitizer.enabled and "enc" in frame.header:
                    self.sanitizer.check_page(frame)
                return frame
            self.misses += 1
            page = self.disk.read(page_id)
            if self.sanitizer.enabled and "enc" in page.header:
                self.sanitizer.check_page(page)
            self._admit(page)
            return page

    def new_page(self, tag: Any = None) -> Page:
        """Allocate a fresh page (optionally tagged) and admit it dirty."""
        with self._mutation_lock:
            page_id = self.disk.allocate(tag)
            page = Page(page_id, dirty=True)
            self._admit(page)
            return page

    # -- snapshot pinning --------------------------------------------------

    def pin(self, page_id: int) -> None:
        """Hold ``page_id`` in the pool: eviction skips pinned frames.

        Pins are counted, so overlapping snapshots stack; the pin applies
        even while the page is not currently framed (the id stays
        pin-protected for its next admission)."""
        with self._mutation_lock:
            self._pins[page_id] = self._pins.get(page_id, 0) + 1

    def unpin(self, page_id: int) -> None:
        """Release one pin; the frame becomes evictable at zero."""
        with self._mutation_lock:
            count = self._pins.get(page_id, 0) - 1
            if count <= 0:
                self._pins.pop(page_id, None)
            else:
                self._pins[page_id] = count

    def pin_count(self, page_id: int) -> int:
        with self._mutation_lock:
            return self._pins.get(page_id, 0)

    def tag_stats(self, tag: Any) -> IOStats:
        return self.disk.tag_stats(tag)

    def add_bytes(self, tag: Any, bytes_read: int = 0, bytes_written: int = 0) -> None:
        self.disk.add_bytes(tag, bytes_read, bytes_written)

    def stats_snapshot(self) -> Dict[str, Any]:
        """The disk's one-pass aggregate plus the pool's own hit/miss
        counters (what the metrics exporter scrapes)."""
        snap = self.disk.stats_snapshot()
        snap["buffer_hits"] = self.hits
        snap["buffer_misses"] = self.misses
        snap["buffer_hit_ratio"] = round(self.hit_ratio, 4)
        snap["buffer_frames"] = len(self._frames)
        snap["buffer_pinned"] = len(self._pins)
        return snap

    def drop_tag_stats(self, tag: Any) -> None:
        self.disk.drop_tag_stats(tag)

    def set_tag_stats(self, tag: Any, stats: IOStats) -> None:
        self.disk.set_tag_stats(tag, stats)

    def free_page(self, page_id: int) -> None:
        with self._mutation_lock:
            self._frames.pop(page_id, None)
            self._pins.pop(page_id, None)
            self.disk.free(page_id)

    def _admit(self, page: Page) -> None:
        """Frame a page, evicting LRU victims past capacity.

        Caller holds ``_mutation_lock``.  Pinned frames are skipped when
        hunting for a victim; if every candidate is pinned the pool runs
        over capacity until a snapshot releases its pins — correctness
        over the frame budget."""
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        if self.capacity is not None:
            while len(self._frames) > self.capacity:
                victim_id = next(
                    (
                        pid
                        for pid in self._frames
                        if pid not in self._pins and pid != page.page_id
                    ),
                    None,
                )
                if victim_id is None:
                    break
                victim = self._frames[victim_id]
                if victim.dirty:
                    if self.sanitizer.enabled:
                        self.sanitizer.check_page(victim)
                    self.disk.write(victim)
                    victim.dirty = False
                del self._frames[victim_id]

    # -- durability ------------------------------------------------------

    def flush(self, page_id: int) -> None:
        with self._mutation_lock:
            frame = self._frames.get(page_id)
            if frame is not None and frame.dirty:
                if self.sanitizer.enabled:
                    self.sanitizer.check_page(frame)
                self.disk.write(frame)
                frame.dirty = False

    def flush_all(self) -> int:
        """Write back every dirty frame; returns the number written."""
        written = 0
        with self._mutation_lock:
            for frame in self._frames.values():
                if frame.dirty:
                    if self.sanitizer.enabled:
                        self.sanitizer.check_page(frame)
                    self.disk.write(frame)
                    frame.dirty = False
                    written += 1
        return written

    def drop_cache(self) -> None:
        """Write back and forget all frames (cold-cache benchmarking)."""
        with self._mutation_lock:
            self.flush_all()
            self._frames.clear()

    # -- stats -----------------------------------------------------------

    @property
    def stats(self) -> IOStats:
        return self.disk.stats

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
