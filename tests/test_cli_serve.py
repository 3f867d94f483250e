"""CLI integration: the `serve` and `replay` commands."""

from __future__ import annotations

import os

import pytest

from repro.cli import DataSpreadShell, main, replay_report
from repro.server import WorkbookService
from repro.server.service import WAL_FILENAME


class TestServeCommand:
    def test_serve_edit_quit_reopen(self, tmp_path):
        directory = str(tmp_path / "book")
        shell = DataSpreadShell()
        banner = shell.handle_line(f"serve {directory}")
        assert "serving" in banner and "0 ops recovered" in banner
        assert shell.handle_line("A1 = 5") == "A1 = 5"
        assert shell.handle_line("A2 = =A1*3") == "A2 = 15"
        out = shell.handle_line("sql CREATE TABLE m (id INT PRIMARY KEY, t TEXT)")
        assert out.startswith("ok")
        out = shell.handle_line("sql INSERT INTO m VALUES (1,'x')")
        assert "1 rows affected" in out
        assert shell.handle_line("quit") == "bye"

        reopened = DataSpreadShell()
        banner = reopened.handle_line(f"serve {directory}")
        assert "4 ops recovered" in banner
        assert reopened.handle_line("show A1:A2") .count("15") == 1
        assert reopened.workbook.get("Sheet1", "A2") == 15
        reopened.handle_line("quit")

    def test_new_sheet_survives_recovery(self, tmp_path):
        """Regression: 'sheet' used to create sheets outside the WAL, so
        replaying edits on the new sheet bricked recovery."""
        directory = str(tmp_path / "book")
        shell = DataSpreadShell()
        shell.handle_line(f"serve {directory}")
        shell.handle_line("sheet Budget")
        assert shell.handle_line("A1 = 99") == "A1 = 99"
        shell.handle_line("quit")
        reopened = DataSpreadShell()
        banner = reopened.handle_line(f"serve {directory}")
        assert "2 ops recovered" in banner
        assert reopened.workbook.get("Budget", "A1") == 99
        reopened.handle_line("quit")

    def test_sheet_switch_moves_session_viewport(self, tmp_path):
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        shell = DataSpreadShell(service=service)
        shell.handle_line("sheet Budget")
        assert shell.session.viewport.sheet == "Budget"
        other = service.connect("other")
        service.set_cell(other.session_id, "Budget", "A1", 5)
        assert "cell Budget!A1 = 5" in shell.handle_line("deltas")
        shell.handle_line("quit")

    def test_serve_twice_is_an_error(self, tmp_path):
        shell = DataSpreadShell()
        shell.handle_line(f"serve {tmp_path / 'a'}")
        assert "already serving" in shell.handle_line(f"serve {tmp_path / 'b'}")
        shell.handle_line("quit")

    def test_deltas_feed_from_other_session(self, tmp_path):
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        shell = DataSpreadShell(service=service)
        other = service.connect("other")
        assert shell.handle_line("deltas") == "(no pending deltas)"
        service.set_cell(other.session_id, "Sheet1", "A1", 42)
        feed = shell.handle_line("deltas")
        assert "cell Sheet1!A1 = 42" in feed
        assert shell.handle_line("deltas") == "(no pending deltas)"
        shell.handle_line("quit")

    def test_stale_write_message(self, tmp_path):
        service = WorkbookService(str(tmp_path / "book"), fsync=False)
        shell = DataSpreadShell(service=service)
        other = service.connect("other")
        service.set_cell(other.session_id, "Sheet1", "A1", "theirs")
        out = shell.handle_line("A1 = mine")
        assert "stale write rejected" in out
        shell.handle_line("deltas")  # catch up
        assert shell.handle_line("A1 = mine") == "A1 = 'mine'"
        shell.handle_line("quit")

    def test_snapshot_and_stats_commands(self, tmp_path):
        shell = DataSpreadShell()
        assert "not serving" in shell.handle_line("snapshot")
        shell.handle_line(f"serve {tmp_path / 'book'}")
        shell.handle_line("A1 = 1")
        assert "snapshot written" in shell.handle_line("snapshot")
        assert "server" in shell.handle_line("stats")
        assert "error" in shell.handle_line("load nowhere.json")
        shell.handle_line("quit")


class TestReplayCommand:
    def build(self, tmp_path) -> str:
        directory = str(tmp_path / "book")
        service = WorkbookService(directory, fsync=False)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE m (id INT PRIMARY KEY, t TEXT)")
        service.execute(session.session_id, "INSERT INTO m VALUES (1,'x'),(2,'y')")
        service.set_cell(session.session_id, "Sheet1", "E1", "=2*21")
        service.close()
        return directory

    def test_replay_directory(self, tmp_path):
        directory = self.build(tmp_path)
        report = replay_report(directory)
        assert "3 committed ops replayed" in report
        assert "table m: 2 rows" in report
        assert "42" in report

    def test_replay_bare_wal_file(self, tmp_path):
        directory = self.build(tmp_path)
        report = replay_report(os.path.join(directory, WAL_FILENAME))
        assert "replayed" in report and "3 committed ops" in report
        assert "42" in report

    def test_replay_wal_next_to_snapshot_uses_directory(self, tmp_path):
        directory = self.build(tmp_path)
        service = WorkbookService(directory, fsync=False)
        service.compact()
        session = service.connect("alice")
        service.set_cell(session.session_id, "Sheet1", "F1", 9)
        service.close()
        report = replay_report(os.path.join(directory, WAL_FILENAME))
        assert "snapshot + 1 committed ops replayed" in report

    def test_bare_wal_replay_runs_the_guarded_loop(self, tmp_path):
        """Both entrances share ``replay_ops``: the advisor must not start
        its own unlogged migration while a bare log replays, whatever the
        replayed statements make it want."""
        import shutil

        from repro import Workbook
        from repro.server.service import recover_state, replay_ops
        from repro.server.wal import committed_ops, read_wal

        directory = str(tmp_path / "book")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        service.maintenance.interval = 0  # live: nothing adapts, nothing is logged
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)")
        wide = 2**33  # incompressible: keeps the encode pass out of it
        for start in range(0, 400, 10):
            values = ",".join(
                f"({j * wide},{j * wide + 1},{j * wide + 2},{j * wide + 3})"
                for j in range(start, start + 10)
            )
            service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
        for _ in range(200):  # logged narrow scans of `a`: a split looks worthwhile
            service.execute(session.session_id, "DELETE FROM t WHERE a = -1")
        service.close()
        bare = str(tmp_path / "copy.jsonl")
        shutil.copy(os.path.join(directory, WAL_FILENAME), bare)

        def table_lines(path):
            return [l for l in replay_report(path).splitlines() if l.startswith("table ")]

        assert table_lines(bare) == table_lines(directory)

        workbook = Workbook()
        replay_ops(workbook, committed_ops(read_wal(bare)[0]))
        table = workbook.database.table("t")
        recovered = recover_state(directory).workbook.database.table("t")
        assert table.schema.groups == recovered.schema.groups == [["a", "b", "c", "d"]]
        assert table.auto_layout and recovered.auto_layout
        kinds = {event.kind for event in workbook.database.events.tail(None)}
        assert not kinds & {"layout_advice", "migration_start"}
        maintenance = workbook.database.maintenance
        assert maintenance.interval and not maintenance.suspended  # cadence live again

    def test_main_replay_subcommand(self, tmp_path, capsys):
        directory = self.build(tmp_path)
        assert main(["replay", directory]) == 0
        out = capsys.readouterr().out
        assert "table m: 2 rows" in out

    def test_main_usage_errors(self, capsys):
        assert main(["replay"]) == 2
        assert main(["frobnicate"]) == 2

    def test_replay_missing_path_is_an_error(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope")]) == 1
        assert "no such WAL" in capsys.readouterr().out
        shell = DataSpreadShell()
        assert "error: no such WAL" in shell.handle_line(f"replay {tmp_path / 'nope'}")
