"""Viewport-scoped delta subscriptions.

When an edit wins, every *other* session should learn about it — but only
if it can see it: a session panned to row 90,000 does not care that A1
changed, and at millions of users shipping every change to every client
is exactly the O(users × edits) blow-up the windowing architecture
avoids.  The :class:`Broadcaster` therefore filters each outgoing
:class:`Delta` against the receiving session's viewport
(:meth:`~repro.window.viewport.Viewport.contains` for single cells,
:meth:`~repro.window.viewport.Viewport.overlaps` for region re-renders)
and counts what it suppressed.

Three delta shapes cover the workbook's change vocabulary:

* ``cell`` — one cell's new value (a direct edit, a formula recompute, an
  error render);
* ``region`` — a display region re-rendered (DBTABLE window refresh,
  DBSQL re-query); the delta carries the region's extent rather than
  every cell, so a 10k-row refresh is one message;
* ``shift`` — a structural edit (rows/columns inserted or deleted at
  ``at`` on ``axis``); one compact message describes the whole half-space
  translation, matching the storage layer's key-space splice — a million
  shifted rows is *one* delta, never a million cell deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.address import RangeAddress
from repro.obs.counters import Counters
from repro.server.session import Session, SessionManager

__all__ = ["Delta", "Broadcaster", "BroadcastStats"]


@dataclass
class Delta:
    """One visible change, stamped with the service version that made it."""

    kind: str            # "cell" | "region" | "shift"
    sheet: str
    version: int
    origin: Optional[int] = None     # session id that caused it (None: system)
    # cell deltas
    row: Optional[int] = None
    col: Optional[int] = None
    value: Any = None
    # region deltas
    region_id: Optional[int] = None
    area: Optional[RangeAddress] = None
    description: Optional[str] = None
    # shift deltas (structural edits): positions >= `at` on `axis` moved by
    # `count` (negative: a delete; the slice [at, at-count) vanished)
    axis: Optional[str] = None       # "row" | "col"
    at: Optional[int] = None
    count: Optional[int] = None

    def visible_to(self, session: Session) -> bool:
        viewport = session.viewport
        if self.kind == "cell":
            assert self.row is not None and self.col is not None
            return viewport.contains_key((self.sheet, self.row, self.col))
        if self.kind == "shift":
            if viewport.sheet != self.sheet:
                return False
            assert self.axis is not None and self.at is not None
            # Visible iff the shifted half-space reaches into the pane.
            edge = viewport.bottom if self.axis == "row" else viewport.right
            return edge >= self.at
        if self.area is None:
            return False
        return viewport.overlaps(self.area, sheet=self.sheet)


@dataclass
class BroadcastStats(Counters):
    published: int = 0
    #: (session, delta) pairs delivered / filtered out by the viewport.
    delivered: int = 0
    suppressed: int = 0


class Broadcaster:
    """Fans deltas out to the sessions whose viewports cover them."""

    def __init__(self, sessions: SessionManager):
        self.sessions = sessions
        self.stats = BroadcastStats()

    def publish(
        self,
        deltas: List[Delta],
        origin: Optional[int] = None,
        include_origin: bool = False,
    ) -> int:
        """Deliver each delta to every covering session; returns the number
        of (session, delta) deliveries.  The originating session already
        holds the result of its own apply, so it is skipped by default."""
        if not deltas:
            return 0
        stats = self.stats
        stats.published += len(deltas)
        deliveries = 0
        for session in self.sessions.sessions():
            if session.session_id == origin and not include_origin:
                continue
            for delta in deltas:
                if delta.visible_to(session):
                    session.deliver(delta)
                    deliveries += 1
                else:
                    stats.suppressed += 1
        stats.delivered += deliveries
        return deliveries
