"""Append-only JSONL write-ahead log of workbook operations.

The single-user demo path (:mod:`repro.core.persist`) rewrites the whole
workbook as one JSON blob on every save — O(workbook) bytes per edit.  The
server instead logs each *operation* (cell edit, SQL statement, region
bind, structural edit, physical-layout transition — ``layout_set`` /
``layout_step``) as one JSONL record and makes it durable with a batched
``fsync``; a full dump only happens at snapshot/compaction time
(:mod:`repro.server.snapshot`).

Record format (one JSON object per line)::

    {"crc": <crc32>, "rec": {"lsn": <n>, "op": {"type": ..., ...}}}

``crc`` is the CRC-32 of the canonical JSON encoding of ``rec``
(sorted keys, no whitespace), so any torn or bit-flipped record is
detectable.  LSNs are dense and start at 1, so a gap is corruption.

Crash tolerance: a crash mid-append leaves a *torn tail* — a final line
without a newline, or a final line whose checksum does not verify.
:func:`read_wal` stops at the last intact record in that case; a damaged
record with more data *after* it is real corruption and raises
:class:`~repro.errors.WALError`.  :class:`WriteAheadLog` repairs a torn
tail on open (truncates it) before appending new records.

Transactions appear in the log as marker records (:data:`TXN_MARKERS`)
written by the service's transaction hook — framing, never client ops; a
rollback *physically discards* the un-committed records by truncating back
to the :meth:`WriteAheadLog.mark` taken at begin.
:func:`transaction_brackets` is the one reader of the replay rule:
operations inside a begin..commit bracket apply only when the commit marker
made it to disk; everything outside a bracket is autocommitted.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.analysis.sanitizer import NULL_SANITIZER
from repro.core.persist import _decode_value, _encode_value
from repro.errors import WALError
from repro.obs.counters import Counters

__all__ = [
    "WalRecord",
    "WalMark",
    "WalStats",
    "WriteAheadLog",
    "read_wal",
    "committed_ops",
    "transaction_brackets",
]

#: Marker record types (written by the transaction hook, never applied).
TXN_MARKERS = ("txn_begin", "txn_commit", "txn_rollback")


def _encode_tree(value: Any) -> Any:
    """Deep-encode an op payload to JSON-native values (dates tagged)."""
    if isinstance(value, dict):
        return {key: _encode_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_tree(item) for item in value]
    return _encode_value(value)


def _decode_tree(value: Any) -> Any:
    if isinstance(value, dict):
        if "$date" in value or "$datetime" in value:
            return _decode_value(value)
        return {key: _decode_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_tree(item) for item in value]
    return value


def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class WalRecord:
    """One intact log record plus its byte extent in the file."""

    lsn: int
    op: Dict[str, Any]
    offset: int      # byte offset of the record's first byte
    end_offset: int  # byte offset just past the trailing newline


@dataclass(frozen=True)
class WalMark:
    """A resumable position: byte offset + the LSN already consumed there.

    Taken at transaction begin so a rollback can discard everything the
    transaction appended (``truncate_to``)."""

    offset: int
    last_lsn: int


@dataclass
class WalStats(Counters):
    appends: int = 0
    syncs: int = 0
    truncations: int = 0
    bytes_written: int = 0


def read_wal(path: str, payload_from: int = 0) -> Tuple[List[WalRecord], int, int]:
    """Read every intact record; returns ``(records, intact_end, file_size)``.

    ``intact_end`` is the byte offset of the end of the last intact record
    — the truncation point a repair should use.  Tolerates a torn tail;
    raises :class:`WALError` on interior corruption or an LSN gap.

    Records that begin before byte ``payload_from`` are checked like the
    rest but keep only the ``type`` of their op: a snapshot covers them,
    so recovery reads their extent, LSN and kind and never replays them —
    and at 0.6 KiB a record they would otherwise make recovery's memory
    grow with the age of the log."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, 0
    records: List[WalRecord] = []
    covered: Dict[str, Dict[str, Any]] = {}  # one stand-in op per type
    position = 0
    previous_lsn = 0
    size = len(data)
    while position < size:
        newline = data.find(b"\n", position)
        if newline == -1:
            break  # torn tail: partial final line with no terminator
        line = data[position:newline]
        record = _parse_line(line, previous_lsn)
        if record is None:
            if newline == size - 1:
                break  # damaged final line: treat as torn tail
            raise WALError(
                f"corrupt WAL record at byte {position} of {path} "
                "(damaged record followed by more data)"
            )
        lsn, op = record
        if position < payload_from:
            op = covered.setdefault(op["type"], {"type": op["type"]})
        records.append(WalRecord(lsn, op, position, newline + 1))
        previous_lsn = lsn
        position = newline + 1
    return records, position, size


def _parse_line(line: bytes, previous_lsn: int) -> Optional[Tuple[int, Dict[str, Any]]]:
    """(lsn, op) if the line is an intact next record, else None."""
    try:
        envelope = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(envelope, dict) or "rec" not in envelope or "crc" not in envelope:
        return None
    rec = envelope["rec"]
    if zlib.crc32(_canonical(rec)) != envelope["crc"]:
        return None
    lsn = rec.get("lsn")
    if lsn != previous_lsn + 1:
        return None
    op = _decode_tree(rec.get("op"))
    if not isinstance(op, dict) or "type" not in op:
        return None
    return lsn, op


def transaction_brackets(
    records: List[WalRecord],
) -> Tuple[List[Dict[str, Any]], Optional[WalRecord]]:
    """The one reader of the bracket rule: ``(committed, open_begin)`` — the
    durable operation sequence (autocommitted ops plus begin..commit bodies)
    and the ``txn_begin`` record a crash before commit left open at the end
    of the log (else None), whose partial batch is never replayed."""
    committed: List[Dict[str, Any]] = []
    pending: List[Dict[str, Any]] = []
    open_begin: Optional[WalRecord] = None
    for record in records:
        kind = record.op.get("type")
        if kind == "txn_begin":
            pending, open_begin = [], record
        elif kind in TXN_MARKERS:  # commit or rollback closes the bracket
            if kind == "txn_commit" and open_begin is not None:
                committed.extend(pending)
            open_begin = None
        elif open_begin is not None:
            pending.append(record.op)
        else:
            committed.append(record.op)
    return committed, open_begin


def committed_ops(records: List[WalRecord]) -> List[Dict[str, Any]]:
    """The operations recovery replays (see :func:`transaction_brackets`)."""
    return transaction_brackets(records)[0]


class WriteAheadLog:
    """Appendable, checksummed, crash-tolerant operation log.

    ``sync_every`` batches fsyncs: every Nth append pays the fsync (plus
    any append with ``sync=True``, plus :meth:`sync` / :meth:`close`).
    ``fsync=False`` turns the physical fsync off (fast mode for tests and
    benchmarks) while keeping the flush-to-OS write ordering."""

    #: Runtime invariant checks; the owning service swaps in the
    #: database's Sanitizer when sanitize mode is on.
    sanitizer = NULL_SANITIZER

    def __init__(
        self,
        path: str,
        sync_every: int = 32,
        fsync: bool = True,
        preread: Optional[Tuple[List[WalRecord], int, int]] = None,
    ):
        self.path = path
        self.sync_every = max(1, sync_every)
        self.fsync = fsync
        self.stats = WalStats()
        # Open + lock before reading: the log is single-writer, and a
        # second process appending its own LSN sequence would corrupt the
        # shared history (flock auto-releases if this process dies).
        # Unbuffered: every append reaches the OS page cache immediately,
        # so a process crash loses nothing — only the batched *fsync*
        # window is exposed to power loss.
        self._file = open(path, "ab", buffering=0)
        if fcntl is not None:
            try:
                fcntl.flock(self._file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._file.close()
                raise WALError(
                    f"write-ahead log {path} is locked by another process"
                ) from None
        records, intact_end, size = preread if preread is not None else read_wal(path)
        # Repair 1: drop the torn tail left by a crash mid-append.
        truncate_at = intact_end if intact_end < size else None
        # Repair 2: drop a dangling open transaction bracket.  New appends
        # must not land "inside" the dead bracket, where a future recovery
        # would discard them too.
        _, open_begin = transaction_brackets(records)
        if open_begin is not None:
            records = [r for r in records if r.offset < open_begin.offset]
            truncate_at = open_begin.offset
        #: Bytes physically discarded by open-time repair (torn tail and/or
        #: dangling transaction bracket); 0 on a clean open.  Surfaced so
        #: recovery can report *that* a repair happened and how big it was.
        self.repaired_bytes = 0
        if truncate_at is not None:
            self.repaired_bytes = size - truncate_at
            os.ftruncate(self._file.fileno(), truncate_at)
            intact_end = truncate_at
        self._last_lsn = records[-1].lsn if records else 0
        self._offset = intact_end
        self._unsynced = 0

    # -- append path --------------------------------------------------------

    def append(self, op: Dict[str, Any], sync: Optional[bool] = None) -> WalRecord:
        """Durably (modulo batching) log one operation; returns the record."""
        if self._file.closed:
            raise WALError("write-ahead log is closed")
        lsn = self._last_lsn + 1
        if self.sanitizer.enabled:
            # Offset drift means the tracked end position and the physical
            # file disagree — the record about to be written would tear.
            self.sanitizer.check_wal_append(
                lsn, self._offset, os.fstat(self._file.fileno()).st_size
            )
        rec = {"lsn": lsn, "op": _encode_tree(op)}
        line = (
            json.dumps({"crc": zlib.crc32(_canonical(rec)), "rec": rec},
                       sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        offset = self._offset
        self._file.write(line)
        self._offset += len(line)
        self._last_lsn = lsn
        self._unsynced += 1
        self.stats.appends += 1
        self.stats.bytes_written += len(line)
        if sync or (sync is None and self._unsynced >= self.sync_every):
            self.sync()
        return WalRecord(lsn, op, offset, self._offset)

    def append_many(
        self, ops: List[Dict[str, Any]], sync: Optional[bool] = None
    ) -> List[WalRecord]:
        """Append a batch of operations in order; returns their records.

        The handoff path for background maintenance: layout transitions
        observed off the apply thread are queued and flushed here in one
        call, so their relative order in the log — which replay re-applies
        verbatim — matches the order the transitions were observed in.
        ``sync`` applies once, after the last record (a mid-batch crash
        loses a suffix, never a middle record)."""
        records = [self.append(op, sync=False) for op in ops]
        if sync or (sync is None and self._unsynced >= self.sync_every):
            self.sync()
        return records

    def sync(self) -> None:
        """Flush buffered records and (if enabled) fsync to disk."""
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        if self._unsynced:
            self.stats.syncs += 1
        self._unsynced = 0

    # -- transaction support -------------------------------------------------

    def mark(self) -> WalMark:
        """The current end position, for a later :meth:`truncate_to`."""
        return WalMark(self._offset, self._last_lsn)

    def truncate_to(self, mark: WalMark) -> int:
        """Discard every record appended after ``mark``; returns bytes cut.

        This is the rollback path: the discarded records were never
        covered by a commit marker, so dropping them keeps the log equal
        to the committed history."""
        if mark.offset > self._offset:
            raise WALError("cannot truncate forward")
        removed = self._offset - mark.offset
        if removed:
            self._file.flush()
            os.ftruncate(self._file.fileno(), mark.offset)
            # Records appended before the mark may still be un-fsynced;
            # make them durable now rather than widening the batch window.
            if self.fsync:
                os.fsync(self._file.fileno())
            self._offset = mark.offset
            self._last_lsn = mark.last_lsn
            self._unsynced = 0
            self.stats.truncations += 1
        return removed

    # -- state ----------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def end_offset(self) -> int:
        return self._offset

    def records(self) -> List[WalRecord]:
        """Re-read the intact records currently on disk."""
        if not self._file.closed:
            self._file.flush()
        records, _, _ = read_wal(self.path)
        return records

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
