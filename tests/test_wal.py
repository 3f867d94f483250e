"""Write-ahead log: records, checksums, torn tails, transactions, and
crash recovery through structural edits."""

from __future__ import annotations

import datetime
import json
import os

import pytest

from repro.core.workbook import Workbook
from repro.errors import WALError
from repro.server.service import WorkbookService, apply_op, recover_state
from repro.server.wal import (
    WriteAheadLog,
    committed_ops,
    read_wal,
    transaction_brackets,
)


def wal_path(tmp_path) -> str:
    return str(tmp_path / "wal.jsonl")


def op(n: int) -> dict:
    return {"type": "set_cell", "sheet": "Sheet1", "ref": f"A{n}", "raw": n}


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            for n in range(1, 6):
                record = wal.append(op(n))
                assert record.lsn == n
        records, intact_end, size = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert [r.op["ref"] for r in records] == ["A1", "A2", "A3", "A4", "A5"]
        assert intact_end == size
        # byte extents tile the file exactly
        assert records[0].offset == 0
        for previous, current in zip(records, records[1:]):
            assert previous.end_offset == current.offset
        assert records[-1].end_offset == size

    def test_payloads_a_snapshot_covers_are_not_kept(self, tmp_path):
        """``payload_from``: records that begin before it are still checked
        and keep their extent, LSN and op type — what recovery reads of
        them — but not the payload it never replays."""
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            appended = [wal.append(op(n)) for n in range(1, 6)]
        full, _, _ = read_wal(path)
        records, intact_end, size = read_wal(path, payload_from=appended[3].offset)
        assert [r.op for r in records[:3]] == [{"type": "set_cell"}] * 3
        assert [r.op for r in records[3:]] == [op(4), op(5)]
        assert [(r.lsn, r.offset, r.end_offset) for r in records] == [
            (r.lsn, r.offset, r.end_offset) for r in full
        ]
        assert intact_end == size
        with open(path, "r+b") as handle:  # damage a covered record: still refused
            handle.seek(appended[1].offset + 12)
            handle.write(b"#")
        with pytest.raises(WALError):
            read_wal(path, payload_from=appended[3].offset)

    def test_reopen_continues_lsn(self, tmp_path):
        path = wal_path(tmp_path)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(op(1))
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.last_lsn == 1
            assert wal.append(op(2)).lsn == 2
        records, _, _ = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]

    def test_date_values_roundtrip(self, tmp_path):
        path = wal_path(tmp_path)
        when = datetime.date(2026, 7, 28)
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append({"type": "sql", "sql": "INSERT ...", "params": [when]})
        records, _, _ = read_wal(path)
        assert records[0].op["params"] == [when]

    def test_missing_file_is_empty(self, tmp_path):
        records, intact_end, size = read_wal(str(tmp_path / "nope.jsonl"))
        assert records == [] and intact_end == 0 and size == 0

    def test_batched_fsync_counts(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, sync_every=4, fsync=False)
        for n in range(1, 9):
            wal.append(op(n))
        assert wal.stats.appends == 8
        assert wal.stats.syncs == 2  # every 4th append
        wal.append(op(9), sync=True)
        assert wal.stats.syncs == 3
        wal.close()


class TestTornTail:
    def build(self, path: str, n: int = 4) -> bytes:
        with WriteAheadLog(path, fsync=False) as wal:
            for k in range(1, n + 1):
                wal.append(op(k))
        with open(path, "rb") as handle:
            return handle.read()

    def test_partial_final_line_tolerated(self, tmp_path):
        path = wal_path(tmp_path)
        data = self.build(path)
        with open(path, "wb") as handle:
            handle.write(data[:-5])  # cut through the final record
        records, intact_end, size = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3]
        assert intact_end == records[-1].end_offset
        assert size > intact_end

    def test_garbled_final_line_tolerated(self, tmp_path):
        path = wal_path(tmp_path)
        data = self.build(path)
        # flip a byte inside the final record (newline intact)
        corrupted = bytearray(data)
        corrupted[-10] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(corrupted))
        records, _, _ = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3]

    def test_interior_corruption_raises(self, tmp_path):
        path = wal_path(tmp_path)
        self.build(path)
        records, _, _ = read_wal(path)
        first = records[0]
        with open(path, "r+b") as handle:
            handle.seek(first.offset + 10)
            handle.write(b"\xff")
        with pytest.raises(WALError):
            read_wal(path)

    def test_open_repairs_torn_tail(self, tmp_path):
        path = wal_path(tmp_path)
        data = self.build(path)
        with open(path, "wb") as handle:
            handle.write(data[:-5])
        wal = WriteAheadLog(path, fsync=False)
        assert wal.last_lsn == 3
        wal.append(op(99))  # reuses lsn 4 after the repair
        wal.close()
        records, intact_end, size = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3, 4]
        assert records[-1].op["raw"] == 99
        assert intact_end == size


class TestTransactions:
    def test_mark_truncate(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync=False)
        wal.append(op(1))
        mark = wal.mark()
        wal.append({"type": "txn_begin", "txn": 1})
        wal.append(op(2))
        removed = wal.truncate_to(mark)
        assert removed > 0
        assert wal.last_lsn == 1
        wal.append(op(3))  # lsn continues from the mark
        wal.close()
        records, _, _ = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        assert records[-1].op["raw"] == 3

    def test_committed_ops_rules(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync=False)
        wal.append(op(1))                                # autocommit
        wal.append({"type": "txn_begin", "txn": 1})
        wal.append(op(2))
        wal.append({"type": "txn_commit", "txn": 1})     # committed bracket
        wal.append(op(3))                                # autocommit
        wal.append({"type": "txn_begin", "txn": 2})
        wal.append(op(4))                                # open bracket: dropped
        wal.close()
        ops = committed_ops(wal.records())
        assert [o["raw"] for o in ops] == [1, 2, 3]

    def test_one_reader_names_the_open_bracket(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync=False)
        wal.append(op(1))
        wal.append({"type": "txn_begin", "txn": 1})
        wal.append(op(2))
        wal.append({"type": "txn_commit", "txn": 1})
        closed = wal.records()
        dangling = wal.append({"type": "txn_begin", "txn": 2})
        wal.append(op(3))
        wal.close()
        assert transaction_brackets(closed) == (committed_ops(closed), None)
        ops, open_begin = transaction_brackets(wal.records())
        assert [o["raw"] for o in ops] == [1, 2]
        assert (open_begin.lsn, open_begin.offset) == (dangling.lsn, dangling.offset)
        # ...and that record is where open-time repair cuts the log
        with WriteAheadLog(path, fsync=False) as repaired:
            assert repaired.end_offset == dangling.offset

    def test_open_repairs_dangling_bracket(self, tmp_path):
        """A crash after txn_begin but before the commit marker leaves a
        dead bracket: reopening must cut it so later appends are not
        swallowed by the open bracket at the next recovery."""
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync=False)
        wal.append(op(1))
        wal.append({"type": "txn_begin", "txn": 1})
        wal.append(op(2))
        wal.close()  # simulated crash before commit
        wal = WriteAheadLog(path, fsync=False)
        assert wal.last_lsn == 1  # the dead bracket was truncated
        wal.append(op(3))
        wal.close()
        ops = committed_ops(WriteAheadLog(path, fsync=False).records())
        assert [o["raw"] for o in ops] == [1, 3]

    def test_rollback_marker_discards(self, tmp_path):
        path = wal_path(tmp_path)
        wal = WriteAheadLog(path, fsync=False)
        wal.append({"type": "txn_begin", "txn": 1})
        wal.append(op(1))
        wal.append({"type": "txn_rollback", "txn": 1})
        wal.append(op(2))
        wal.close()
        ops = committed_ops(wal.records())
        assert [o["raw"] for o in ops] == [2]


class TestStructuralCrashRecovery:
    """A WAL torn at *any* byte boundary mid-structural-edit must recover
    to exactly the committed prefix — the key-space splice makes structural
    replay order-sensitive, so a half-applied edit would corrupt every
    address below it."""

    @staticmethod
    def sheet_state(workbook: Workbook):
        return {
            (row, col): (cell.value, workbook.formula_text("Sheet1", cell))
            for row, col, cell in workbook.sheet("Sheet1").store.items()
        }

    def build_history(self, directory: str) -> bytes:
        """A history interleaving cell edits, formulas, and structural ops."""
        service = WorkbookService(str(directory), fsync=False)
        session = service.connect("writer")
        sid = session.session_id
        for n in range(1, 6):
            service.set_cell(sid, "Sheet1", f"A{n}", n)
        service.set_cell(sid, "Sheet1", "C1", "=A1+A2")
        service.apply(sid, {"type": "insert_rows", "sheet": "Sheet1", "at": 2, "count": 2})
        service.set_cell(sid, "Sheet1", "A3", 33)
        service.apply(sid, {"type": "delete_rows", "sheet": "Sheet1", "at": 0, "count": 1})
        service.apply(sid, {"type": "insert_cols", "sheet": "Sheet1", "at": 0, "count": 1})
        service.set_cell(sid, "Sheet1", "B1", "=C2*10")
        service.apply(sid, {"type": "delete_cols", "sheet": "Sheet1", "at": 3, "count": 1})
        service.close()
        with open(os.path.join(str(directory), "wal.jsonl"), "rb") as handle:
            return handle.read()

    def test_truncation_at_arbitrary_byte_boundaries(self, tmp_path):
        data = self.build_history(tmp_path / "full")
        assert len(data) > 0
        for cut in range(0, len(data) + 1, 11):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            with open(directory / "wal.jsonl", "wb") as handle:
                handle.write(data[:cut])
            # Oracle: apply the committed prefix to a fresh workbook.
            records, _, _ = read_wal(str(directory / "wal.jsonl"))
            expected = Workbook()
            prefix = committed_ops(records)
            for operation in prefix:
                apply_op(expected, operation)
            expected.recalc_all()
            # Recovery must reproduce exactly that state.
            recovery = recover_state(str(directory))
            assert recovery.ops_replayed == len(prefix)
            assert self.sheet_state(recovery.workbook) == self.sheet_state(expected)
        # Sanity: the untruncated history recovers the full final state.
        full = recover_state(str(tmp_path / "full"))
        assert full.ops_replayed == 12
