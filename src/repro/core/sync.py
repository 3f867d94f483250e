"""Two-way synchronisation (paper §2.2(b), §4 Feature 3).

"Using spreadsheets users are accustomed to having an always updated copy
with them.  For this we propose a real time two way synchronization of the
displayed [data] on the spreadsheet with the underlying database."

The :class:`SyncManager` subscribes to the database's committed
:class:`~repro.engine.table.ChangeEvent` feed and routes each event to the
display regions showing that table.  The *front-end → database* direction
does not pass through here: regions translate edits directly into table
mutations (see :meth:`DBTableRegion.apply_edit`), whose events then fan out
through this manager to every interested region, the edited one included —
which is exactly the Fig 2c demonstration: edit a DBTABLE cell, and a DBSQL
region referencing the same table is updated immediately.

Each region decides what an event means for what it shows
(``region.on_db_change``):

* **patch** — a maintainable DBSQL aggregate folds the row change into its
  per-group state and a windowed DBTABLE records the new version of a row
  it displays; the region is marked *patched* and later rewrites only the
  rows that changed (:mod:`repro.core.maintain` lists the rules);
* **nothing** — the change cannot show (its old and new row both fail the
  region's ``WHERE``, or the row is outside a DBTABLE window);
* **fallback** — everything else (schema changes, ``DROP TABLE``, the last
  holder of a group's ``MIN``/``MAX`` leaving, a sum that may overflow a
  double, queries the classifier rejects) marks the region *stale*, and
  ``region.refresh()`` re-runs its query and rebuilds its state.

Both are batched per "round": the workbook flushes after the originating
mutation completes, so a 100-row bulk insert renders (or re-queries) each
region once, not 100 times.  Rendering writes only the cells whose value
changed, and a region whose cells did not change announces nothing.  The
maintained state is never persisted: a region's first refresh — at
install, or when a snapshot is loaded — builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.engine.table import ChangeEvent
from repro.obs.counters import Counters

__all__ = ["SyncManager", "SyncStats"]


@dataclass
class SyncStats(Counters):
    events_received: int = 0
    #: full re-queries (``region.refresh``): the fallback.
    regions_refreshed: int = 0
    #: renders of a maintained result (``region.render``).
    regions_patched: int = 0
    events_by_kind: Dict[str, int] = field(default_factory=dict)


class SyncManager:
    """Routes database change events to display regions."""

    def __init__(self, workbook):
        self.workbook = workbook
        self.stats = SyncStats()
        self._stale_region_ids: Set[int] = set()
        self._patched_region_ids: Set[int] = set()
        self._log: List[ChangeEvent] = []
        self.keep_log = False

    # -- event intake (registered as a Database listener) -------------------

    def on_event(self, event: ChangeEvent) -> None:
        self.stats.events_received += 1
        self.stats.events_by_kind[event.kind] = (
            self.stats.events_by_kind.get(event.kind, 0) + 1
        )
        if self.keep_log:
            self._log.append(event)
        for region in self.workbook.regions.regions_of_table(event.table):
            region.on_db_change(event)

    def event_log(self) -> List[ChangeEvent]:
        return list(self._log)

    # -- batching ---------------------------------------------------------------

    def mark_stale(self, region_id: int) -> None:
        self._stale_region_ids.add(region_id)

    def mark_patched(self, region_id: int) -> None:
        self._patched_region_ids.add(region_id)

    @property
    def n_stale(self) -> int:
        return len(self._stale_region_ids)

    def flush(self) -> int:
        """Refresh every stale region and render every other patched one,
        once each; returns the refresh count.

        Refreshing a region can itself mark other regions stale (a DBSQL
        whose spill feeds a RANGETABLE of another DBSQL); the loop runs to
        fixpoint with a safety bound."""
        refreshed = 0
        rounds = 0
        while self._stale_region_ids or self._patched_region_ids:
            rounds += 1
            if rounds > 32:
                raise RuntimeError(
                    "sync did not converge: regions keep invalidating each other"
                )
            stale = self._stale_region_ids
            batch = sorted(stale | self._patched_region_ids)
            self._stale_region_ids = set()
            self._patched_region_ids = set()
            for region_id in batch:
                region = self.workbook.regions.get(region_id)
                if region is None:
                    continue
                if region_id in stale:
                    region.refresh()
                    refreshed += 1
                    self.stats.regions_refreshed += 1
                else:
                    region.render()
                    self.stats.regions_patched += 1
        return refreshed
