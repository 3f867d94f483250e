"""Fast self-test of the end-to-end benchmark (collected by tier-1).

Every workload runs at 1/50 of its data size with two blocks as its
counted ops and no time beyond them — the same replay loop the full-size
run goes through.  What is checked is the benchmark itself: that a seed
fixes the trace and every count, that it emits exactly the metrics
``BENCHMARK.json`` names, that the per-layer times add up to the traced
wall time, and that the crash image really loses what was never flushed.
"""

from __future__ import annotations

import json
import os

import pytest

from . import harness, main, workloads
from .spans import DurableSize, Shims

SCALE = 0.02
#: whole blocks: one untraced and one traced block per workload.
OPS = {"sheet_edit": 200, "oltp_sql": 200, "analytic_scan": 40, "htap_sync": 40}
NAMES = sorted(workloads.WORKLOADS)

with open(
    os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json"), encoding="utf-8"
) as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with the same seed."""
    return {
        name: [main.run_traced(name, 7, SCALE, OPS[name]) for _ in range(2)]
        for name in NAMES
    }


#: the two shapes an untraced run takes: a trace that logs to the WAL and
#: the read-only one that never does (no WAL suffix to recover).
UNTRACED = ("analytic_scan", "oltp_sql")


@pytest.fixture(scope="module")
def untraced():
    # One set-up and one recovery a run: the medians need no steadying here.
    repeats = main.SETUP_REPEATS, main.RECOVER_REPEATS
    main.SETUP_REPEATS = main.RECOVER_REPEATS = 1
    try:
        return {name: main.run_untraced(name, 7, 0.0, SCALE, OPS[name]) for name in UNTRACED}
    finally:
        main.SETUP_REPEATS, main.RECOVER_REPEATS = repeats


def _ops(workload, n_ops):
    workload.extend_to(n_ops)
    return [(op.cls, op.kind, op.session, op.ops, op.scroll) for op in workload.ops[:n_ops]]


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_trace(name):
    first = workloads.build(name, 7, SCALE)
    again = workloads.build(name, 7, SCALE)
    other = workloads.build(name, 8, SCALE)
    assert first.setup == again.setup
    assert _ops(first, OPS[name]) == _ops(again, OPS[name])
    assert _ops(first, OPS[name]) != _ops(other, OPS[name])
    # Extending block by block gives the trace one call would have given.
    assert _ops(first, 3 * OPS[name]) == _ops(workloads.build(name, 7, SCALE), 3 * OPS[name])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_counts(name, traced):
    first, second = traced[name]
    assert first["correct"] and second["correct"], first["info"]["problems"]
    assert first["failed"] == 0 and first["info"]["timed_ops"] == OPS[name]
    for key, metric in first["metrics"].items():
        if metric["unit"] in ("count", "B"):
            assert metric["value"] == second["metrics"][key]["value"], key


def test_time_beyond_the_counted_ops_moves_no_count(tmp_path):
    sampled = []
    for seconds in (0.0, 0.3):
        workload = workloads.build("oltp_sql", 7, SCALE)
        durable = DurableSize()
        with Shims() as shims:
            shims.watch_wal_fsync(durable)
            target = harness.open_service(workload, str(tmp_path / f"service-{seconds}"))
            try:
                phase = harness.replay(target, workload, durable, OPS["oltp_sql"], seconds)
            finally:
                target.service.close()
        sampled.append((phase.executed, phase.disk_bytes_at_counted))
    (counted, at_counted), (longer, at_counted_again) = sampled
    assert longer > counted == OPS["oltp_sql"]
    assert at_counted_again == at_counted > 0


def test_frozen_counts_are_whole_blocks():
    for name in NAMES:
        workload = workloads.build(name, 7, SCALE)
        assert workload.counted_ops == workloads.COUNTED_OPS[name] >= 400
        assert workload.counted_ops % (2 * workload.block_size) == 0  # traced/untraced pairs
        assert main.TAIL_OPS % workload.block_size == 0


def test_emits_exactly_the_named_metrics(traced, untraced):
    results = [(result, "end_to_end") for result in untraced.values()]
    results += [(pair[0], "per_layer") for pair in traced.values()]
    for result, section in results:
        named = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert emitted == named
    for result in untraced.values():
        assert result["correct"], result["info"]["problems"]
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_layer_times_add_up_to_the_traced_wall(name, traced):
    metrics = {key: metric["value"] for key, metric in traced[name][0]["metrics"].items()}
    layers = sum(
        value
        for key, value in metrics.items()
        if key.endswith("_s")
        and not key.startswith(("server.recover.", "driver.traced_wall"))
        and key not in ("server.snapshot.load_s", "core.sync.refresh_incl_s")
    )
    assert layers == pytest.approx(metrics["driver.traced_wall_s"], rel=0.05)


def test_crash_image_drops_what_was_never_flushed(tmp_path):
    workload = workloads.build("sheet_edit", 7, SCALE)
    durable = DurableSize()
    with Shims() as shims:
        shims.watch_wal_fsync(durable)
        target = harness.open_service(workload, str(tmp_path / "service"))
        try:
            phase = harness.replay(target, workload, durable, 100)
            assert phase.undurable_acks == 0 and phase.failed == 0
            target.service.wal.append(
                {"type": "set_cell", "sheet": "Sheet1", "ref": "A1", "raw": "lost"}, sync=False
            )
            assert target.service.wal.last_lsn == phase.last_acked_lsn + 1
            discarded = harness.crash_image(target, durable, str(tmp_path / "image"))
            _, _, recovered = harness.recover(str(tmp_path / "image"), 1)
        finally:
            target.service.close()
    assert discarded > 0
    assert recovered.last_lsn == phase.last_acked_lsn
    assert recovered.workbook.get("Sheet1", "A1") != "lost"
    # Without the cut the same record is replayed: the check can fail.
    _, _, kept = harness.recover(str(tmp_path / "service"), 1)
    assert kept.workbook.get("Sheet1", "A1") == "lost"
