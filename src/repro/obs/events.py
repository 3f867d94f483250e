"""Bounded structured log of maintenance and recovery events.

The layout advisor, online migrations, snapshot compaction, WAL repair
and crash recovery all make decisions that are invisible after the fact
— "why did this table regroup?" has no answer once the migration is
done.  :class:`EventLog` keeps the last N such decisions as structured
records with a monotonic sequence number, a wall-clock timestamp, a
``kind`` tag and free-form payload fields.

Event vocabulary used across the repo (payload keys in parentheses):

========================  =====================================================
kind                      payload
========================  =====================================================
``layout_advice``         table, current_cost, target_cost, migration_cost,
                          saving, worthwhile, target_groups
``migration_start``       table, groups
``migration_step``        table, groups
``migration_finish``      table
``migration_resume``      table (recovery re-armed an unfinished migration)
``wal_repair``            path, truncated_bytes, cause
``recovery``              directory, snapshot_lsn, replayed_ops, tables
``snapshot_compaction``   directory, lsn, wal_bytes_dropped
``maintenance_drain``     worker, beats
``maintenance_error``     worker, error (a background beat raised)
========================  =====================================================

The log is a ``deque(maxlen=...)`` — recording is O(1) and the memory
bound is fixed; ``tail(n)`` serves the CLI ``events`` command.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = ["Event", "EventLog"]


class Event:
    """One recorded decision/outcome: seq, timestamp, kind, payload."""

    __slots__ = ("seq", "timestamp", "kind", "data")

    def __init__(self, seq: int, timestamp: float, kind: str, data: Dict[str, Any]):
        self.seq = seq
        self.timestamp = timestamp
        self.kind = kind
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "ts": self.timestamp, "kind": self.kind, **self.data}

    def render(self) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(self.timestamp))
        fields = " ".join(f"{key}={value}" for key, value in self.data.items())
        return f"[{self.seq:>4}] {stamp} {self.kind:<20} {fields}".rstrip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.seq}, {self.kind!r}, {self.data!r})"


class EventLog:
    """Bounded append-only event buffer (drops the oldest past maxlen)."""

    def __init__(self, maxlen: int = 512):
        self.maxlen = maxlen
        self._events: Deque[Event] = deque(maxlen=maxlen)
        self._seq = 0
        # Recorders now include the background maintenance thread; the
        # lock keeps sequence numbers dense under concurrent record().
        self._lock = threading.Lock()
        self.enabled = True

    def record(self, kind: str, **data: Any) -> Optional[Event]:
        """Append one event; returns it (None when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            self._seq += 1
            event = Event(self._seq, time.time(), kind, data)
            self._events.append(event)
        return event

    def tail(self, n: Optional[int] = None) -> List[Event]:
        """The most recent ``n`` events, oldest first (all when None)."""
        events = list(self._events)
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return events

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self._events if event.kind == kind]

    def kinds(self) -> List[str]:
        """Distinct kinds in arrival order (debugging/tests)."""
        seen: List[str] = []
        for event in self._events:
            if event.kind not in seen:
                seen.append(event.kind)
        return seen

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
