"""Counter structs by construction: every ``Counters`` subclass derives
reset/snapshot/delta/add/persist/export from its ``int`` fields, and the
pull collectors export the structs whole under their metric prefixes."""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import fields

import pytest

import repro
from repro.engine.pager import EMPTY_IO_STATS, IOStats, _FrozenIOStats
from repro.engine.store import ScanStats
from repro.obs.counters import Counters
from repro.server.service import WorkbookService


def _all_counter_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, todo = [], [Counters]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(set(found) - {_FrozenIOStats}, key=lambda cls: cls.__qualname__)


COUNTER_CLASSES = _all_counter_classes()


def _int_fields(cls):
    return [spec.name for spec in fields(cls) if spec.type in (int, "int")]


def _filled(cls, base=1):
    """An instance whose counters are distinct non-zero values."""
    return cls(**{name: base + i for i, name in enumerate(_int_fields(cls))})


def test_every_counter_struct_is_found():
    names = {cls.__name__ for cls in COUNTER_CLASSES}
    assert {
        "AccessStats",
        "BroadcastStats",
        "CellStoreStats",
        "ComputeStats",
        "IOStats",
        "ScanStats",
        "SyncStats",
        "WalStats",
        "_CacheStats",
    } <= names


@pytest.mark.parametrize("cls", COUNTER_CLASSES, ids=lambda cls: cls.__name__)
class TestCounterStruct:
    def test_has_counters_and_no_hand_written_reset(self, cls):
        assert _int_fields(cls)
        assert "reset" not in cls.__dict__

    def test_reset_restores_every_field(self, cls):
        stats = _filled(cls)
        for spec in fields(cls):
            if spec.name not in _int_fields(cls):
                getattr(stats, spec.name)["state"] = 1  # a per-kind dict
        stats.reset()
        assert stats == cls()
        assert all(getattr(stats, name) == 0 for name in _int_fields(cls))

    def test_delta_and_add_round_trip(self, cls):
        earlier = _filled(cls)
        increment = _filled(cls, base=100)
        later = earlier.snapshot().add(increment)
        assert later.delta(earlier).to_dict() == increment.to_dict()
        assert earlier.to_dict() == _filled(cls).to_dict()  # snapshot was a copy

    def test_to_dict_round_trips_and_tolerates_missing_counters(self, cls):
        stats = _filled(cls)
        assert cls.from_dict(stats.to_dict()) == stats
        assert cls.from_dict({}) == cls()

    def test_metrics_cover_every_int_field(self, cls):
        stats = _filled(cls)
        assert stats.metrics("p_") == {
            "p_" + name: getattr(stats, name) for name in _int_fields(cls)
        }


def test_shared_empty_io_stats_copies_are_mutable():
    copy = EMPTY_IO_STATS.snapshot()
    assert type(copy) is IOStats and copy == IOStats()
    copy.reads += 1
    assert EMPTY_IO_STATS.reads == 0
    assert type(IOStats(reads=2).delta(EMPTY_IO_STATS)) is IOStats


def test_io_stats_loads_a_group_io_payload_from_before_the_byte_counters():
    assert IOStats.from_dict({"reads": 3, "writes": 1}) == IOStats(reads=3, writes=1)


def test_service_metrics_export_every_counter_with_its_live_value(tmp_path):
    service = WorkbookService(str(tmp_path / "svc"), fsync=False)
    alice = service.connect("alice", n_rows=10, n_cols=10)
    service.connect("bob", n_rows=10, n_cols=10)
    service.connect("carol", top=500, n_rows=10, n_cols=10)
    service.execute(alice.session_id, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    rows = ", ".join(f"({i}, {i * 10})" for i in range(1, 301))
    service.execute(alice.session_id, f"INSERT INTO t VALUES {rows}")
    service.execute(alice.session_id, "CREATE INDEX idx_b ON t (b)")
    service.execute(alice.session_id, "UPDATE t SET b = 5 WHERE b = 20")
    service.execute(alice.session_id, "SELECT a, b FROM t WHERE b > 15")
    service.set_cell(alice.session_id, "Sheet1", "A1", 4)
    service.set_cell(alice.session_id, "Sheet1", "A2", "=A1*2")
    service.apply(
        alice.session_id,
        {"type": "dbsql", "sheet": "Sheet1", "anchor": "C1", "sql": "SELECT SUM(b) FROM t"},
    )
    service.execute(alice.session_id, "INSERT INTO t VALUES (0, 40)")

    workbook = service.workbook
    database = workbook.database
    scans = ScanStats()
    for table in database.catalog.tables():
        scans.add(table.store.scan_stats)
    structs = {
        "pager_": database.catalog.pool.stats,
        "db_": scans,
        "wal_": service.wal.stats,
        "compute_": workbook.compute.stats,
        "sync_": workbook.sync.stats,
        "broadcast_": service.broadcast.stats,
    }
    snap = service.metrics.snapshot()
    for prefix, stats in structs.items():
        for name in _int_fields(type(stats)):
            assert snap[prefix + name] == getattr(stats, name), prefix + name
    for key in (
        "pager_allocations",
        "db_batches",
        "db_index_lookups",
        "wal_appends",
        "compute_evaluations",
        "sync_events_received",
        "broadcast_published",
        "broadcast_delivered",
        "broadcast_suppressed",
    ):
        assert snap[key] > 0, key
    service.close()
