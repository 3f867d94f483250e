"""Snapshot compaction: bound recovery time by log length.

Replaying a long WAL from an empty workbook is O(total edits ever made).
A snapshot pins a full :mod:`repro.core.persist`-format dump of the
workbook *plus the WAL position it covers*, so recovery becomes

    load snapshot  +  replay the WAL suffix past ``wal_offset``

— O(workbook) + O(edits since last compaction).  Snapshots are written
atomically (temp file + ``os.replace``) so a crash mid-compaction leaves
the previous snapshot intact, and the WAL itself is never rewritten: the
snapshot only *advances the replay start position*.

The compaction *policy* lives here too (:meth:`SnapshotStore.should_compact`);
the service calls it after every applied operation and compacts when the
suffix grows past ``compact_every`` operations.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.core.persist import workbook_from_dict, workbook_to_dict
from repro.core.workbook import Workbook
from repro.errors import ServerError

__all__ = ["SnapshotStore"]

#: Version 2 snapshots carry the workbook's tuned-layout state (advisor
#: flags, access statistics, in-flight migration targets) via the v2
#: persist format; version-1 snapshots still load (layout state defaults).
_SNAPSHOT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class SnapshotStore:
    """Reads and writes ``snapshot.json`` inside a service directory."""

    FILENAME = "snapshot.json"

    def __init__(self, directory: str, compact_every: int = 256):
        self.directory = directory
        self.compact_every = compact_every
        self.snapshots_written = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, self.FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- write ---------------------------------------------------------------

    def write(self, workbook: Workbook, wal_lsn: int, wal_offset: int) -> str:
        """Atomically persist the workbook + the WAL position it covers."""
        payload = {
            "version": _SNAPSHOT_VERSION,
            "wal_lsn": wal_lsn,
            "wal_offset": wal_offset,
            "workbook": workbook_to_dict(workbook),
        }
        temp_path = self.path + ".tmp"
        os.makedirs(self.directory, exist_ok=True)
        with open(temp_path, "w") as handle:
            # dumps, not dump: only the one-shot call runs the C encoder
            # (dump streams through the pure-Python one, ~3x slower here).
            handle.write(json.dumps(payload, separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.path)
        self.snapshots_written += 1
        return self.path

    # -- read ------------------------------------------------------------------

    def load(self) -> Optional[Dict[str, Any]]:
        """The raw snapshot payload, or None when no snapshot exists."""
        if not self.exists():
            return None
        with open(self.path) as handle:
            payload = json.load(handle)
        if payload.get("version") not in _SUPPORTED_VERSIONS:
            raise ServerError(
                f"unsupported snapshot version {payload.get('version')!r}"
            )
        return payload

    def load_workbook(self, eager: bool = True) -> Optional[Workbook]:
        payload = self.load()
        if payload is None:
            return None
        return workbook_from_dict(payload["workbook"], eager=eager)

    # -- policy -----------------------------------------------------------------

    def should_compact(self, wal_lsn: int, snapshot_lsn: int, in_transaction: bool) -> bool:
        """Compact when the un-snapshotted suffix is long enough and no
        transaction is open (a snapshot must not capture uncommitted
        state)."""
        if in_transaction or self.compact_every <= 0:
            return False
        return (wal_lsn - snapshot_lsn) >= self.compact_every
