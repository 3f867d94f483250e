"""The observability subsystem: metrics, spans, events, and their wiring.

Covers the cross-layer claims:

* an ``EXPLAIN TRACE`` / :meth:`Database.trace_statement` span tree for a
  projected scan over a *grouped* table reports pages_read consistent
  with the pager's per-tag ``IOStats`` deltas (two independent counter
  paths agreeing),
* a crashed-then-recovered workbook's event log contains the WAL-repair
  and migration-resume events, in causal order,
* the pager satellite: ``tag_stats`` misses share one immutable empty
  ``IOStats``; ``stats_snapshot`` aggregates every tag in one pass,
* registry semantics: get-or-create, disabled no-ops, collectors,
  histogram percentiles, Prometheus rendering,
* the CLI ``metrics`` / ``events`` surfaces.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import DataSpreadShell, observability_report
from repro.engine.database import Database, is_explain_trace
from repro.engine.pager import EMPTY_IO_STATS, BufferPool
from repro.errors import StorageError
from repro.obs import EventLog, MetricsRegistry
from repro.obs.metrics import Histogram
from repro.server.service import WAL_FILENAME, WorkbookService, recover_state


def build_grouped_db(n_rows: int = 120) -> Database:
    """A 4-column table stored as two 2-column groups."""
    db = Database(page_capacity=16, buffer_frames=8)
    db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
    table = db.table("t")
    table.store.restructure([["a", "b"], ["c", "d"]])
    for i in range(n_rows):
        table.insert((i, i * 2, i * 3, i * 5), emit=False)
    db.checkpoint()
    table.store.pool.drop_cache()
    return db


def find_prefix(span, prefix: str):
    if span.name.startswith(prefix):
        return span
    for child in span.children:
        hit = find_prefix(child, prefix)
        if hit is not None:
            return hit
    return None


# -- span tracing ------------------------------------------------------------


def test_trace_pager_span_matches_tag_stats():
    """The execute span's pager child counts the same pages the per-tag
    pager accounting charges to the groups the query covered."""
    db = build_grouped_db()
    store = db.table("t").store
    before = [store.group_io_stats(g).snapshot() for g in range(store.n_groups)]

    result, trace = db.trace_statement("SELECT a, b FROM t WHERE a > 10")

    deltas = [
        store.group_io_stats(g).delta(before[g]) for g in range(store.n_groups)
    ]
    assert len(result.rows) == 109
    pager = trace.find("pager")
    assert pager is not None
    # (a, b) live in group 0: the trace's pages_read must equal that
    # group's tag delta, and the untouched (c, d) group must stay cold.
    assert pager.counters["pages_read"] == deltas[0].reads
    assert deltas[0].reads > 0
    assert deltas[1].reads == 0

    scan = find_prefix(trace, "ProjectedScan")
    assert scan is not None
    # Zone maps may prove some pages irrelevant to ``a > 10``, so the scan
    # examines at most every row and at least the survivors.
    assert 109 <= scan.counters["rows_scanned"] <= 120
    assert scan.counters["rows_scanned"] + scan.counters.get("pages_skipped", 0) >= 120 - scan.counters["rows_scanned"]
    assert scan.counters["cols_read"] == 2
    assert scan.counters["pages_read"] == deltas[0].reads
    assert scan.counters["rows_out"] == 109
    # Vectorized execution counters ride the same span: every scanned row
    # arrived in some batch, so the batch arithmetic must close.
    assert scan.counters["batches"] >= 1
    assert (
        scan.counters["rows_per_batch"]
        == scan.counters["rows_scanned"] // scan.counters["batches"]
    )


def test_trace_span_tree_shape_and_timing():
    db = build_grouped_db(n_rows=20)
    _, trace = db.trace_statement("SELECT a FROM t")
    assert trace.name == "statement"
    names = [child.name for child in trace.children]
    assert names[:3] == ["parse", "plan", "execute"]
    execute = trace.find("execute")
    assert execute.duration >= 0
    assert execute.counters["rows_out"] == 20
    assert trace.duration >= execute.duration
    # Rendering: one line per span, indented, with the counters inline.
    rendered = trace.render()
    assert "statement" in rendered and "ProjectedScan" in rendered
    assert "rows_scanned=20" in rendered
    # No trace is left active afterwards — the null-span fast path is back.
    assert not db.tracer.active
    assert db.last_trace is trace


def test_explain_trace_statement():
    db = build_grouped_db(n_rows=15)
    assert is_explain_trace("  EXPLAIN   TRACE SELECT 1")
    assert not is_explain_trace("EXPLAIN TRACER SELECT 1")
    assert not is_explain_trace("SELECT 1")
    result = db.execute("EXPLAIN TRACE SELECT a, b FROM t WHERE a > 3")
    assert result.columns == ["trace"]
    text = "\n".join(row[0] for row in result.rows)
    assert "statement" in text and "execute" in text
    assert "rows_out=11" in text
    # The traced statement really ran (EXPLAIN TRACE executes, not plans).
    assert db.metrics()["db_statements_total"] >= 2


# -- event log on the crash/recovery path ------------------------------------


def test_crash_recovery_event_order(tmp_path):
    """Crash mid-migration with a torn WAL tail: the recovered event log
    shows repair before migration-resume before the recovery summary."""
    directory = str(tmp_path / "svc")
    service = WorkbookService(directory, fsync=False, compact_every=0)
    session = service.connect("test")
    service.execute(session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)")
    # Distinct 8-byte ints: incompressible, so the maintenance loop's
    # encode-first pass cannot pre-empt the migration this test drives.
    wide = 2**33
    for start in range(0, 120, 10):
        values = ",".join(
            f"({j * wide},{j * wide + 1},{j * wide + 2},{j * wide + 3})"
            for j in range(start, start + 10)
        )
        service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
    service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
    table = service.workbook.database.table("t")
    table.layout_advisor.min_ops = 8
    table.store.access_stats.reset()
    for _ in range(24):
        service.execute(session.session_id, "SELECT a FROM t WHERE a >= 0")
    for _ in range(40):
        service.maintenance.tick(steps=1)
        if table.migration_active:
            break
    assert table.migration_active, "migration never started"
    target = table.layout_migration_target
    # The advisor's decision and the migration start were themselves logged.
    assert service.events.of_kind("layout_advice")
    assert service.events.of_kind("migration_start")
    service.close()

    # Simulate the crash: a torn final record (no newline) on the WAL.
    garbage = b'{"crc": 1234, "rec": {"lsn"'
    with open(os.path.join(directory, WAL_FILENAME), "ab") as handle:
        handle.write(garbage)

    recovery = recover_state(directory)
    events = recovery.workbook.database.events
    kinds = [event.kind for event in events]
    assert "wal_repair" in kinds
    assert "migration_resume" in kinds
    assert "recovery" in kinds
    assert (
        kinds.index("wal_repair")
        < kinds.index("migration_resume")
        < kinds.index("recovery")
    )
    repair = events.of_kind("wal_repair")[0]
    assert repair.data["cause"] == "torn_tail"
    assert repair.data["truncated_bytes"] == len(garbage)
    resume = events.of_kind("migration_resume")[0]
    assert resume.data["table"] == "t"
    assert resume.data["groups"] == target
    recovered = recovery.workbook.database.table("t")
    assert recovered.migration_active
    assert recovered.layout_migration_target == target


def test_migration_lifecycle_events():
    """Start-to-finish migration leaves start/step/finish in the log."""
    db = Database(page_capacity=16, buffer_frames=8)
    db.execute("CREATE TABLE t (a INT, b INT, c INT)")
    table = db.table("t")
    for i in range(80):
        table.insert((i, i * 2, i * 3), emit=False)
    db.execute("ALTER TABLE t SET LAYOUT AUTO")
    table.layout_advisor.min_ops = 8
    table.store.access_stats.reset()
    for _ in range(24):
        list(table.store.scan_groups(["a"]))
    for _ in range(60):
        table.layout_tick(steps=2)
        if not table.migration_active and db.events.of_kind("migration_finish"):
            break
    kinds = [event.kind for event in db.events]
    assert "layout_advice" in kinds and "migration_start" in kinds
    assert "migration_step" in kinds and "migration_finish" in kinds
    assert kinds.index("migration_start") < kinds.index("migration_finish")
    finish = db.events.of_kind("migration_finish")[0]
    assert finish.data["table"] == "t"
    assert finish.data["steps"] >= 1


def test_snapshot_compaction_event(tmp_path):
    directory = str(tmp_path / "svc")
    with WorkbookService(directory, fsync=False, compact_every=0) as service:
        session = service.connect("test")
        service.set_cell(session.session_id, "Sheet1", "A1", 42)
        assert service.compact() is not None
        event = service.events.of_kind("snapshot_compaction")[0]
        assert event.data["directory"] == directory
        assert event.data["lsn"] >= 1


# -- event log primitives ----------------------------------------------------


def test_event_log_bounded_and_ordered():
    log = EventLog(maxlen=4)
    for i in range(10):
        log.record("tick", n=i)
    assert len(log) == 4
    assert [event.data["n"] for event in log] == [6, 7, 8, 9]
    # Sequence numbers keep counting even after the deque drops entries.
    assert [event.seq for event in log] == [7, 8, 9, 10]
    assert [event.data["n"] for event in log.tail(2)] == [8, 9]
    assert log.kinds() == ["tick"]
    log.enabled = False
    assert log.record("tick", n=99) is None
    assert len(log) == 4
    rendered = log.tail(1)[0].render()
    assert "tick" in rendered and "n=9" in rendered


# -- pager satellite ---------------------------------------------------------


def test_tag_stats_miss_returns_shared_immutable_empty():
    pool = BufferPool(capacity=4, page_capacity=8)
    missing = pool.tag_stats("never-written")
    assert missing is EMPTY_IO_STATS
    assert pool.tag_stats(("other", 1)) is missing
    assert (missing.reads, missing.writes) == (0, 0)
    with pytest.raises(StorageError):
        missing.reads = 5
    with pytest.raises(StorageError):
        EMPTY_IO_STATS.writes = 1
    EMPTY_IO_STATS.reset()  # no-op, must not raise
    assert EMPTY_IO_STATS.reads == 0


def test_pager_stats_snapshot_aggregates_tags():
    db = build_grouped_db(n_rows=60)
    store = db.table("t").store
    for _ in store.scan_groups(["a"]):
        pass
    snap = store.pool.stats_snapshot()
    assert snap["pager_reads"] == store.pool.stats.reads
    assert snap["pager_writes"] == store.pool.stats.writes
    assert snap["buffer_hits"] == store.pool.hits
    assert snap["buffer_misses"] == store.pool.misses
    assert snap["pager_tags"] >= store.n_groups
    per_tag_reads = sum(
        store.group_io_stats(g).reads for g in range(store.n_groups)
    )
    assert snap["pager_tagged_reads"] >= per_tag_reads
    assert 0.0 <= snap["buffer_hit_ratio"] <= 1.0


# -- metrics registry --------------------------------------------------------


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", help="operations")
    assert registry.counter("ops_total") is counter
    counter.inc()
    counter.inc(4)
    registry.gauge("depth").set(7)
    histogram = registry.histogram("latency_seconds")
    for value in (0.001, 0.002, 0.004, 0.1):
        histogram.observe(value)
    snap = registry.snapshot()
    assert snap["ops_total"] == 5
    assert snap["depth"] == 7
    assert snap["latency_seconds"]["count"] == 4
    assert snap["latency_seconds"]["p50"] <= snap["latency_seconds"]["p99"]
    with pytest.raises(ValueError):
        registry.gauge("ops_total")  # name already taken by a counter


def test_registry_disabled_is_inert_but_collectors_run():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("ops_total")
    counter.inc()
    registry.gauge("depth").set(3)
    registry.histogram("latency_seconds").observe(0.5)
    registry.register_collector(lambda: {"pulled": 11})
    snap = registry.snapshot()
    # Push-side instruments are no-ops when disabled...
    assert snap["ops_total"] == 0
    assert snap["depth"] == 0
    assert snap["latency_seconds"]["count"] == 0
    # ...but pull collectors still report (stats_summary depends on it).
    assert snap["pulled"] == 11


def test_histogram_percentiles_log_buckets():
    histogram = Histogram("h")
    for _ in range(95):
        histogram.observe(0.001)
    for _ in range(5):
        histogram.observe(1.0)
    # Percentile resolution is one power-of-two bucket: the p50 bucket
    # upper bound is within 2x of the true median, p99 lands in the
    # outlier bucket.
    assert 0.001 <= histogram.p50 <= 0.002
    assert histogram.p99 >= 1.0
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["sum"] == pytest.approx(0.095 + 5.0)


def test_prometheus_and_table_rendering():
    registry = MetricsRegistry()
    registry.counter("ops_total", help="operations").inc(3)
    registry.histogram("latency_seconds").observe(0.01)
    text = registry.render_prometheus()
    assert "# TYPE ops_total counter" in text
    assert "ops_total 3" in text
    assert "# TYPE latency_seconds histogram" in text
    assert 'latency_seconds_bucket{le="+Inf"} 1' in text
    assert "latency_seconds_count 1" in text
    table = registry.render_table()
    assert "ops_total" in table and "3" in table


def test_database_metrics_collects_engine_state():
    db = build_grouped_db(n_rows=30)
    db.execute("SELECT a FROM t")
    snap = db.metrics()
    assert snap["db_statements_total"] >= 2
    assert snap["db_tables"] == 1
    assert snap["db_statement_seconds"]["count"] >= 2
    assert snap["pager_reads"] >= 1
    assert "buffer_hit_ratio" in snap


def test_service_stats_summary_aliases(tmp_path):
    with WorkbookService(str(tmp_path / "svc"), fsync=False) as service:
        session = service.connect("test")
        service.set_cell(session.session_id, "Sheet1", "A1", 1)
        summary = service.stats_summary()
        assert summary["ops_applied"] == summary["metrics"]["server_ops_applied"]
        assert summary["version"] == service.version
        assert summary["wal"] is service.wal.stats
        assert summary["metrics"]["wal_appends"] == service.wal.stats.appends
        assert summary["metrics"]["server_apply_seconds"]["count"] >= 1


# -- CLI surfaces ------------------------------------------------------------


def test_cli_metrics_and_events_commands():
    shell = DataSpreadShell()
    shell.handle_line("sql CREATE TABLE t (a INT, b INT)")
    shell.handle_line("sql INSERT INTO t VALUES (1, 2)")
    table = shell.handle_line("metrics")
    assert "db_statements_total" in table
    prom = shell.handle_line("metrics prom")
    assert "# TYPE db_statements_total counter" in prom
    assert shell.handle_line("metrics bogus") == "usage: metrics [prom]"
    assert shell.handle_line("events") == "(no events)"
    shell.workbook.database.events.record("tick", n=1)
    assert "tick" in shell.handle_line("events")
    assert shell.handle_line("events x") == "usage: events [n]"
    trace = shell.handle_line("sql EXPLAIN TRACE SELECT a FROM t")
    assert trace.startswith("statement") and "execute" in trace


def test_cli_observability_report(tmp_path):
    directory = str(tmp_path / "svc")
    with WorkbookService(directory, fsync=False) as service:
        session = service.connect("test")
        service.execute(session.session_id, "CREATE TABLE t (a INT)")
        service.execute(session.session_id, "INSERT INTO t VALUES (7)")
    metrics_text = observability_report("metrics", directory)
    assert "db_statements_total" in metrics_text
    prom_text = observability_report("metrics", directory, "prom")
    assert "# TYPE" in prom_text
    events_text = observability_report("events", directory)
    assert "recovery" in events_text
    with pytest.raises(Exception):
        observability_report("metrics", str(tmp_path / "missing"))
