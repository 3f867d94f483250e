"""Set-up, the timed replay loop, the crash image and recovery.

Fixed settings, identical for every workload and on both sides of any
comparison: one process per workload, one closed-loop client (the next
operation is sent when the previous one returns), ``fsync=True`` with
``sync_every=1`` (every acknowledged operation is durable),
``compact_every=256`` (the service default), no background maintenance
thread and no timers.  Every time is expressed in reference seconds
(:func:`calibrate`).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import Database, Workbook, WorkbookService
from repro.errors import DataSpreadError
from repro.server.service import WAL_FILENAME, RecoveryResult, recover_state
from repro.server.snapshot import SnapshotStore

from .spans import DurableSize
from .workloads import SHEET, TraceOp, Workload

__all__ = [
    "FLUSH_REFERENCE", "Phase", "Service", "calibrate", "open_service", "replay",
    "crash_image", "recover", "percentile", "class_latencies", "payload_bytes",
]

COMPACT_EVERY = 256
#: share of the bounded table's pages the buffer pool may hold.
BUFFER_SHARE = 0.25

#: seconds :func:`calibrate` takes on the reference box when it is fast.
CALIBRATION_REFERENCE = 0.0040
#: seconds one WAL flush is charged: what ``os.fsync`` after a 100-byte
#: append takes on the reference box when it is quiet.
FLUSH_REFERENCE = 0.0002


def calibrate() -> float:
    """Seconds a fixed interpreter-bound kernel takes right now (best of
    three, to shed a preemption).

    The sandbox this benchmark runs in changes speed every few seconds,
    by a quarter and at times by half, whatever the process does; a run
    of any affordable length straddles a different share of each speed.
    Every timed stretch is therefore bracketed by this kernel and
    expressed in *reference seconds*: the seconds the processor was busy
    divided by ``kernel seconds / CALIBRATION_REFERENCE``, plus
    :data:`FLUSH_REFERENCE` for every WAL flush.  The time actually spent
    waiting in ``os.fsync`` is taken out first: it is the device's, drifts
    between 0.2 and 0.4 ms here on its own, and a processor kernel cannot
    follow it.  Both sides of a comparison are scaled the same way, by
    quantities the program under test cannot influence."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table: Dict[int, str] = {}
        total = 0
        for i in range(20000):
            table[i & 255] = str(i)
            total += len(table[(i * 7) & 255 if (i * 7) & 255 in table else i & 255]) + i % 7
        json.dumps(sorted(table.items())[:64])
        best = min(best, time.perf_counter() - started)
    return best


def speed_between(before: float, after: float) -> float:
    """Machine-speed divisor for a stretch bracketed by two calibrations:
    above 1 when the box was slower than the reference."""
    return (before + after) / (2.0 * CALIBRATION_REFERENCE)


@dataclass
class Service:
    """A running service plus what the harness needs to drive it."""

    service: WorkbookService
    session_ids: List[int]
    sessions: List[Any]
    directory: str
    setup_seconds: float

    def disk_bytes(self) -> int:
        """WAL plus snapshot bytes on disk right now."""
        total = self.service.wal.end_offset
        snapshot = os.path.join(self.directory, SnapshotStore.FILENAME)
        if os.path.exists(snapshot):
            total += os.path.getsize(snapshot)
        return total


def open_service(workload: Workload, directory: str) -> Service:
    """Build the workload's initial state in ``directory`` and write the
    first snapshot.  The time this takes, in reference seconds, is
    ``setup_s``."""
    setup = workload.setup
    calibration = calibrate()
    started = time.perf_counter()
    database = Database()
    workbook = Workbook(database=database, eager=False)
    for statement in setup.ddl:
        if not statement.upper().startswith("CREATE TABLE"):
            continue
        database.execute(statement)
    for table_name, rows in setup.rows.items():
        table = database.table(table_name)
        for row in rows:
            table.insert(row, emit=False)
    for statement in setup.ddl:
        if statement.upper().startswith("CREATE TABLE"):
            continue
        database.execute(statement)  # indexes, built over the loaded rows
    for table_name in setup.encode_tables:
        store = database.table(table_name).store
        for group in range(store.n_groups):
            store.encode_group(group)
    if setup.bounded_table is not None:
        # The larger-than-cache workload: bound the pool to a share of the
        # table's pages and start cold.
        pool = database.catalog.pool
        pages = database.table(setup.bounded_table).store.n_pages
        pool.capacity = max(8, int(pages * BUFFER_SHARE))
        pool.drop_cache()
    for ref, raw in setup.cells:
        workbook.set(SHEET, ref, raw)
    service = WorkbookService(
        directory,
        workbook=workbook,
        sync_every=1,
        fsync=True,
        compact_every=COMPACT_EVERY,
        background_maintenance=False,
    )
    sessions = [
        service.connect(name, sheet=SHEET, top=top, left=left, n_rows=n_rows, n_cols=n_cols)
        for name, top, left, n_rows, n_cols in setup.sessions
    ]
    session_ids = [session.session_id for session in sessions]
    for op in setup.service_ops:
        service.apply(session_ids[0], op)
    service.compact(force=True)
    elapsed = time.perf_counter() - started
    elapsed /= speed_between(calibration, calibrate())
    return Service(service, session_ids, sessions, directory, elapsed)


@dataclass
class Phase:
    """What one replay of a stretch of the trace produced."""

    #: index of the first op replayed and of the one after the last.
    start: int = 0
    executed: int = 0
    failed: int = 0
    #: time inside the blocks, in reference seconds and as measured.
    wall: float = 0.0
    raw_wall: float = 0.0
    #: measured seconds of ``raw_wall`` spent waiting in WAL flushes.
    flush_wait: float = 0.0
    #: per trace op from ``start``: reference seconds, or None when the op
    #: raised.
    latencies: List[Optional[float]] = field(default_factory=list)
    #: machine-speed divisor of each block (see :func:`calibrate`).
    speeds: List[float] = field(default_factory=list)
    block_size: int = 1
    first_error: Optional[str] = None
    #: acknowledged ops whose WAL bytes were not covered by an fsync the
    #: benchmark had observed when the acknowledgement was returned.
    undurable_acks: int = 0
    first_lsn: int = 0
    last_acked_lsn: int = 0
    #: WAL + snapshot bytes on disk when the counted ops had been replayed.
    disk_bytes_at_counted: int = 0
    #: traced replays: which ops ran in a traced block, their built-in span
    #: trees, and the wall time of the traced blocks alone.
    traced: List[bool] = field(default_factory=list)
    trees: Dict[int, List[Any]] = field(default_factory=dict)
    traced_wall: float = 0.0

    def acknowledged(self, workload: Workload) -> List[TraceOp]:
        """The ops whose call returned, in order."""
        ops = workload.ops[self.start : self.executed]
        return [op for op, seconds in zip(ops, self.latencies) if seconds is not None]

    def speed_at(self, position: int) -> float:
        """Machine-speed divisor of the block trace op ``position`` ran in."""
        return self.speeds[(position - self.start) // self.block_size]


def replay(
    target: Service,
    workload: Workload,
    durable: DurableSize,
    counted: int,
    seconds: float = 0.0,
    start: int = 0,
    tracing: Optional[Any] = None,
) -> Phase:
    """Replay the ``counted`` ops of the trace from op ``start`` and then,
    block by block, whatever more fits into ``seconds``.

    With ``tracing`` (a :class:`benchmarks.e2e.spans.Tracing`) one block
    of every pair is a traced one: the timing shims go on, every apply
    goes through ``WorkbookService.trace_apply``, and the shims come off
    again.  The other block of the pair runs exactly as in an untraced
    replay, on the same service, so the two can be compared without one
    of them having run first."""
    service = target.service
    ids = target.session_ids
    sessions = target.sessions
    wal = service.wal
    ops = workload.ops
    block = workload.block_size
    if counted % block:
        raise ValueError(f"{counted} ops are not whole blocks of {block}")
    counted_end = start + counted
    phase = Phase(start=start, first_lsn=wal.last_lsn, block_size=block)
    latencies = phase.latencies
    apply = service.apply
    trace_apply = service.trace_apply
    clock = time.perf_counter
    gc.collect()
    deadline = clock() + seconds
    index = start
    block_number = 0
    flushes: List[int] = []  # WAL flushes inside each op of the block
    calibration = calibrate()
    while index < counted_end or clock() < deadline:
        block_end = index + block
        workload.extend_to(block_end)
        traced = tracing is not None and tracing.traces_block(block_number)
        if traced:
            tracing.begin_block()
        del flushes[:]
        flushed_at_start = durable.fsyncs
        waited_at_start = durable.seconds
        block_started = ended = clock()
        for position in range(index, block_end):
            op = ops[position]
            if traced:
                trees: List[Any] = []
                tracing.recorder.current_op = position
            flushed_before, waited_before = durable.fsyncs, durable.seconds
            begun = clock()
            try:
                if op.kind == "apply" or op.kind == "txn":
                    for payload in op.ops:
                        if traced:
                            trees.append(trace_apply(ids[op.session], payload)[1])
                        else:
                            apply(ids[op.session], payload)
                else:
                    if op.kind == "scroll":
                        sessions[op.session].scroll_to(*op.scroll)
                    service.poll(ids[op.session])
                ended = clock()
                latencies.append(ended - begun - (durable.seconds - waited_before))
            except DataSpreadError as error:
                ended = clock()
                latencies.append(None)
                phase.failed += 1
                if phase.first_error is None:
                    phase.first_error = f"op {position} ({op.cls}): {error!r}"
            flushes.append(durable.fsyncs - flushed_before)
            if traced:
                phase.trees[position] = trees
            if wal.end_offset > durable.size:
                phase.undurable_acks += 1
        if traced:
            tracing.end_block()
        phase.traced.extend([traced] * block)
        # Express the block in reference seconds: processor time by the
        # speed kernel, every flush at its fixed charge.
        previous, calibration = calibration, calibrate()
        speed = speed_between(previous, calibration)
        phase.speeds.append(speed)
        measured = ended - block_started
        waited = durable.seconds - waited_at_start
        reference = (measured - waited) / speed + (
            durable.fsyncs - flushed_at_start
        ) * FLUSH_REFERENCE
        phase.raw_wall += measured
        phase.flush_wait += waited
        phase.wall += reference
        if traced:
            phase.traced_wall += reference
        for offset, flushed in zip(range(index - start, block_end - start), flushes):
            if latencies[offset] is not None:
                latencies[offset] = latencies[offset] / speed + flushed * FLUSH_REFERENCE
        index = block_end
        block_number += 1
        if index == counted_end:
            phase.disk_bytes_at_counted = target.disk_bytes()
    phase.executed = index
    phase.last_acked_lsn = wal.last_lsn
    return phase


def crash_image(target: Service, durable: DurableSize, destination: str) -> int:
    """Copy the service directory as a power cut would leave it: the
    snapshot as is (it is fsynced before it is renamed into place) and
    ``wal.jsonl`` cut to the size it had at the last fsync the benchmark
    observed.  Returns the number of WAL bytes discarded."""
    os.makedirs(destination, exist_ok=True)
    discarded = 0
    for name in os.listdir(target.directory):
        source = os.path.join(target.directory, name)
        copy = os.path.join(destination, name)
        shutil.copyfile(source, copy)
        if name == WAL_FILENAME:
            size = os.path.getsize(copy)
            if size > durable.size:
                discarded = size - durable.size
                os.truncate(copy, durable.size)
    return discarded


def recover(directory: str, repeats: int) -> Tuple[List[float], List[float], RecoveryResult]:
    """Run ``recover_state`` ``repeats`` times on the crash image; returns
    the reference seconds of each, the machine-speed divisor of each and
    the last result."""
    samples: List[float] = []
    speeds: List[float] = []
    result: Optional[RecoveryResult] = None
    calibration = calibrate()
    for _ in range(repeats):
        result = None
        gc.collect()
        started = time.perf_counter()
        result = recover_state(directory)
        elapsed = time.perf_counter() - started
        previous, calibration = calibration, calibrate()
        speeds.append(speed_between(previous, calibration))
        samples.append(elapsed / speeds[-1])
    assert result is not None
    return samples, speeds, result


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (not empty)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def class_latencies(
    workload: Workload, phase: Phase, traced: Optional[bool] = None, skip: int = 0
) -> Dict[str, List[float]]:
    """Latency samples of the executed ops, grouped by op class; with
    ``traced`` given, only ops of traced (or of untraced) blocks, and
    without the first ``skip`` ops."""
    grouped: Dict[str, List[float]] = {}
    ops = workload.ops[phase.start + skip : phase.executed]
    for op, seconds, flag in zip(ops, phase.latencies[skip:], phase.traced[skip:]):
        if seconds is not None and (traced is None or flag == traced):
            grouped.setdefault(op.cls, []).append(seconds)
    return grouped


def payload_bytes(ops: List[TraceOp], count: int) -> int:
    """User bytes submitted by the first ``count`` ops of a trace."""
    return sum(op.payload_bytes for op in ops[:count])
