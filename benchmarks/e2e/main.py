"""One benchmark run: set-up, timed replay, crash + recover, verification.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's frozen op count and then whatever more fits into ``--seconds``.
``--trace 1`` replays exactly the frozen op count with one block of every
pair traced — through ``WorkbookService.trace_apply`` with the timing
shims of :mod:`benchmarks.e2e.spans` installed — and reports the
per-layer metrics; a sum of self times is only comparable over a fixed
set of operations, so ``--seconds`` does not lengthen a traced run.
Either way the run ends with the correctness and durability checks and
prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import harness, verify, workloads
from .harness import FLUSH_REFERENCE, Phase, Service
from .spans import LAYER_OF, DurableSize, Recorder, Shims, Tracing, attribute, flatten_tree
from .workloads import Workload

#: how many times set-up and recovery are repeated; the median is reported.
SETUP_REPEATS = 5
RECOVER_REPEATS = 5
#: operations replayed between a forced compaction and the crash, so that
#: every crash image has a WAL suffix of the same length to replay.
TAIL_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "apply_p50_ms": "ms",
    "recover_s": "s",
    "peak_rss_mb": "MiB",
    "disk_bytes_per_user_byte": "ratio",
}

OP_CLASSES = ("set_cell", "formula_set", "structural", "dml", "select", "txn", "region_edit")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if "ratio" in name or "_per_" in name:
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


class WorkArea:
    """Scratch directories inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.root = os.path.join(os.getcwd(), ".bench_work", f"run-{os.getpid()}")
        os.makedirs(self.root, exist_ok=True)
        self._count = 0

    def fresh(self, label: str) -> str:
        self._count += 1
        return os.path.join(self.root, f"{self._count:02d}-{label}")

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.root))
        except OSError:
            pass  # another run is using .bench_work


def _discard(target: Service) -> None:
    target.service.close()
    shutil.rmtree(target.directory, ignore_errors=True)


def _tail(target: Service, workload: Workload, durable: DurableSize, phase: Phase) -> Phase:
    """Untimed: bring the service to the same point of its compaction
    cycle in every run — a snapshot, then ``TAIL_OPS`` more operations —
    so that recovery always replays a WAL suffix of the same length.  A
    phase that logged nothing (read-only SQL) has no suffix to fix."""
    if phase.last_acked_lsn == phase.first_lsn:
        return Phase(
            start=phase.executed, executed=phase.executed,
            first_lsn=phase.last_acked_lsn, last_acked_lsn=phase.last_acked_lsn,
        )
    target.service.compact(force=True)
    return harness.replay(target, workload, durable, TAIL_OPS, start=phase.executed)


def _crash_and_recover(
    target: Service, durable: DurableSize, area: WorkArea, repeats: int
) -> Tuple[List[float], List[float], Any, int]:
    """Abandon ``target`` without ``close()`` and recover its crash image
    ``repeats`` times: the reference seconds and machine-speed divisor of
    each recovery, the last recovered state and the WAL bytes the image
    dropped.  One more record is appended without a flush first — an
    operation in flight when the power went — which the image must not
    contain."""
    target.service.wal.append(
        {"type": "set_cell", "sheet": workloads.SHEET, "ref": "A1", "raw": "in flight"},
        sync=False,
    )
    image = area.fresh("crash-image")
    discarded = harness.crash_image(target, durable, image)
    samples, speeds, recovered = harness.recover(image, repeats)
    return samples, speeds, recovered, discarded


def _check(
    workload: Workload,
    phases: List[Phase],
    target: Service,
    recovered: Any,
    discarded: int,
) -> Tuple[List[str], int]:
    """Correctness of the live state and durability of the crash image:
    the problems found, and the number of acknowledged ops lost."""
    acknowledged = [op for phase in phases for op in phase.acknowledged(workload)]
    last_acked_lsn = phases[-1].last_acked_lsn
    problems: List[str] = []
    failed = sum(phase.failed for phase in phases)
    if failed:
        first = next(phase.first_error for phase in phases if phase.first_error)
        problems.append(f"{failed} operations failed, the first: {first}")
    oracle = verify.Oracle(workload, acknowledged)
    try:
        difference = oracle.check(target.service.workbook)
        if difference:
            problems.append(f"live state: {difference}")
        difference = oracle.check(recovered.workbook)
        if difference:
            problems.append(f"recovered state: {difference}")
    finally:
        oracle.close()
    lost = sum(phase.undurable_acks for phase in phases)
    lost += max(0, last_acked_lsn - recovered.last_lsn)
    if lost:
        problems.append(f"{lost} acknowledged operations lost by the crash")
    if recovered.last_lsn > last_acked_lsn or not discarded:
        problems.append("the crash image kept bytes that were never flushed")
    return problems, lost


def _build(name: str, seed: int, scale: float, counted_ops: Optional[int]) -> Workload:
    workload = workloads.build(name, seed, scale)
    if counted_ops is not None:  # the self-test's shorter run
        workload.counted_ops = counted_ops
    return workload


def _result(
    name: str,
    seed: int,
    trace: int,
    phase: Phase,
    tail: Phase,
    values: Dict[str, float],
    units: Any,
    problems: List[str],
    lost: int,
    discarded: int,
    **info: Any,
) -> Dict[str, Any]:
    return {
        "correct": not problems,
        "attempted": tail.executed,
        "failed": phase.failed + tail.failed,
        "metrics": {
            key: {"value": value, "unit": units(key)} for key, value in values.items()
        },
        "info": {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "timed_ops": phase.executed,
            "timed_wall_s": phase.wall,
            "timed_wall_measured_s": phase.raw_wall,
            "flush_wait_measured_s": phase.flush_wait,
            "machine_speed_divisors": [round(speed, 4) for speed in phase.speeds],
            "lost_acknowledged_ops": lost,
            "unflushed_bytes_discarded": discarded,
            "problems": problems,
            **info,
        },
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(
    name: str,
    seed: int,
    seconds: float,
    scale: float = 1.0,
    counted_ops: Optional[int] = None,
) -> Dict[str, Any]:
    area = WorkArea()
    workload = _build(name, seed, scale, counted_ops)
    durable = DurableSize()
    shims = Shims()
    shims.watch_wal_fsync(durable)
    target: Optional[Service] = None
    try:
        setups: List[float] = []
        for _ in range(SETUP_REPEATS):
            if target is not None:
                _discard(target)
                target = None
                gc.collect()
            durable.reset()
            target = harness.open_service(workload, area.fresh("service"))
            setups.append(target.setup_seconds)
        phase = harness.replay(target, workload, durable, workload.counted_ops, seconds)
        tail = _tail(target, workload, durable, phase)
        recoveries, _, recovered, discarded = _crash_and_recover(
            target, durable, area, RECOVER_REPEATS
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, lost = _check(workload, [phase, tail], target, recovered, discarded)
    finally:
        shims.uninstall()
        if target is not None:
            target.service.close()
        area.remove()
    samples = [value for value in phase.latencies if value is not None]
    user_bytes = workload.setup.payload_bytes + harness.payload_bytes(
        workload.ops, workload.counted_ops
    )
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(samples) / phase.wall,
        "apply_p50_ms": harness.percentile(samples, 0.50) * 1000.0,
        "recover_s": statistics.median(recoveries),
        "peak_rss_mb": peak_rss_mb,
        "disk_bytes_per_user_byte": phase.disk_bytes_at_counted / user_bytes,
    }
    return _result(
        name, seed, 0, phase, tail, values, END_TO_END_UNITS.__getitem__,
        problems, lost, discarded,
        seconds=seconds, latency_samples=len(samples), setup_samples_s=setups,
        recover_samples_s=recoveries, recovered_wal_suffix_ops=recovered.ops_replayed,
    )


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def _registry(target: Service) -> Dict[str, Any]:
    """The program's own counters, from its registries."""
    service = target.service
    snap = dict(service.metrics.snapshot())
    skipped = scanned = 0
    for table in service.workbook.database.catalog.tables():
        store = table.store
        for group in range(store.n_groups):
            stats = store.group_skip_stats(group)
            skipped += stats["pages_skipped"]
            scanned += stats["pages_scanned"]
    snap["bench_pages_skipped"] = skipped
    snap["bench_pages_scanned"] = scanned
    return snap


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _overhead_ratio(workload: Workload, phase: Phase) -> float:
    """Traced speed as a share of untraced speed, from the class medians
    of the traced and the untraced blocks of one replay (a median is not
    moved by which block a compaction happened to fall into)."""
    warm_up = 2 * workload.block_size  # the first pair of blocks runs cold
    plain = harness.class_latencies(workload, phase, traced=False, skip=warm_up)
    traced = harness.class_latencies(workload, phase, traced=True, skip=warm_up)
    plain_seconds = traced_seconds = 0.0
    for cls in plain.keys() & traced.keys():
        weight = len(plain[cls]) + len(traced[cls])
        plain_seconds += weight * statistics.median(plain[cls])
        traced_seconds += weight * statistics.median(traced[cls])
    return _ratio(plain_seconds, traced_seconds)


def layer_metrics(
    workload: Workload,
    phase: Phase,
    tracing: Tracing,
    counts: Dict[str, int],
    recovery_speed: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced blocks of ``phase``.  ``counts`` are
    the recorder's event counts when the phase ended; the spans of the
    traced recovery are those filed under operation -2.  Times are in
    reference seconds, like every time the benchmark reports: a span is
    divided by the machine-speed divisor of the block it ran in."""
    by_op = tracing.recorder.spans_by_op()
    recovery = {
        span_name: value / recovery_speed
        for span_name, value in attribute(by_op.get(-2, ()))[1].items()
    }
    layer_seconds: Dict[str, float] = {metric: 0.0 for metric in LAYER_OF.values()}
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    in_apply = 0.0
    stall_max = 0.0
    rows_scanned = rows_out = 0
    traced_ops = []
    for position, trees in phase.trees.items():
        op = workload.ops[position]
        traced_ops.append(op)
        spans = list(by_op.get(position, ()))
        for tree in trees:
            timed, counters = flatten_tree(tree)
            spans.extend(timed)
            for span_name, values in counters:
                rows_scanned += values.get("rows_scanned", 0)
                if span_name == "execute":
                    rows_out += values.get("rows_out", 0)
        for span_name, _, _ in spans:
            calls[span_name] = calls.get(span_name, 0) + 1
        self_seconds, inclusive_seconds, roots = attribute(spans)
        # Reference seconds, as in the replay loop: processor time by the
        # block's speed, every WAL flush at its fixed charge.  (A flush
        # inside a region refresh would also have to come out of that
        # inclusive time; there is none.)
        speed = phase.speed_at(position)
        flush_wait = self_seconds.pop("wal.fsync", 0.0)
        flush_charge = sum(1 for span in spans if span[0] == "wal.fsync") * FLUSH_REFERENCE
        layer_seconds[LAYER_OF["wal.fsync"]] += flush_charge
        in_apply += (roots - flush_wait) / speed + flush_charge
        for span_name, value in self_seconds.items():
            layer_seconds[LAYER_OF[span_name]] += value / speed
        for span_name, value in inclusive_seconds.items():
            inclusive[span_name] = inclusive.get(span_name, 0.0) + value / speed
        latency = phase.latencies[position - phase.start]
        if "snapshot.write" in inclusive_seconds and latency:
            stall_max = max(stall_max, latency)

    def delta(key: str) -> float:
        return tracing.deltas.get(key, 0)

    by_class = harness.class_latencies(workload, phase, traced=False)
    plain = [value for values in by_class.values() for value in values]
    sql_ops = sum(1 for op in traced_ops for payload in op.ops if payload["type"] == "sql")
    edits = sum(
        1 for op in traced_ops
        if op.cls in ("set_cell", "formula_set", "region_edit", "structural")
    )
    dml = sum(1 for op in traced_ops if op.cls in ("dml", "txn", "region_edit"))
    metrics: Dict[str, float] = {
        metric: value
        for metric, value in layer_seconds.items()
        if not metric.startswith("server.recover.") and metric != "server.snapshot.load_s"
    }
    metrics.update(
        {
            "server.service.apply_p95_ms": harness.percentile(plain, 0.95) * 1000.0,
            "server.service.apply_p99_ms": harness.percentile(plain, 0.99) * 1000.0,
            "server.service.trace_overhead_ratio": _overhead_ratio(workload, phase),
            "server.wal.appends": delta("wal_appends"),
            "server.wal.syncs": delta("wal_syncs"),
            "server.wal.bytes_written": delta("wal_bytes_written"),
            "server.wal.bytes_per_op": _ratio(delta("wal_bytes_written"), len(traced_ops)),
            "server.wal.truncations": delta("wal_truncations"),
            "server.snapshot.writes": counts.get("snapshot.writes", 0),
            "server.snapshot.bytes": counts.get("snapshot.bytes", 0),
            "server.snapshot.stall_max_ms": stall_max * 1000.0,
            "server.snapshot.load_s": recovery.get("snapshot.load", 0.0),
            "server.recover.wal_read_s": recovery.get("read_wal", 0.0),
            "server.recover.restore_s": recovery.get("restore", 0.0),
            "server.recover.replay_s": recovery.get("apply_op", 0.0),
            "server.recover.recalc_all_s": recovery.get("recalc_all", 0.0),
            "server.broadcast.published": delta("broadcast_published"),
            "server.broadcast.delivered": delta("broadcast_delivered"),
            "server.broadcast.suppressed": delta("broadcast_suppressed"),
            "server.broadcast.delivered_ratio": _ratio(
                delta("broadcast_delivered"),
                delta("broadcast_delivered") + delta("broadcast_suppressed"),
            ),
            "core.sync.refresh_incl_s": inclusive.get("region.refresh", 0.0),
            "core.sync.events_received": delta("sync_events_received"),
            "core.sync.regions_refreshed": delta("sync_regions_refreshed"),
            "core.sync.refreshes_per_dml": _ratio(delta("sync_regions_refreshed"), dml),
            "compute.evaluations": delta("compute_evaluations"),
            "compute.reparses": delta("compute_reparses"),
            "compute.evaluations_per_edit": _ratio(delta("compute_evaluations"), edits),
            "formula.parse_calls": calls.get("parse_formula", 0),
            "engine.sql_parser.parse_calls": calls.get("parse_sql", 0),
            "engine.sql_parser.parses_per_sql_op": _ratio(calls.get("parse_sql", 0), sql_ops),
            "engine.planner.plans": calls.get("plan_select", 0),
            "engine.executor.rows_scanned": rows_scanned,
            "engine.executor.rows_out": rows_out,
            "engine.executor.rows_scanned_per_row_out": _ratio(rows_scanned, rows_out),
            "engine.table.index_lookups": delta("db_index_lookups"),
            "engine.table.rows_mutated": counts.get("rows_mutated", 0),
            "engine.store.batches": delta("db_batches"),
            "engine.store.bytes_decoded": delta("db_bytes_decoded"),
            "engine.store.pages_skipped": delta("bench_pages_skipped"),
            "engine.store.skip_ratio": _ratio(
                delta("bench_pages_skipped"),
                delta("bench_pages_skipped") + delta("bench_pages_scanned"),
            ),
            "engine.store.retired_pages": tracing.last.get("db_retired_pages", 0),
            "engine.pager.reads": delta("pager_reads"),
            "engine.pager.writes": delta("pager_writes"),
            "engine.pager.hits": delta("buffer_hits"),
            "engine.pager.misses": delta("buffer_misses"),
            "engine.pager.hit_ratio": _ratio(
                delta("buffer_hits"), delta("buffer_hits") + delta("buffer_misses")
            ),
            "engine.pager.bytes_read": delta("pager_bytes_read"),
            "engine.pager.bytes_written": delta("pager_bytes_written"),
            "engine.pager.pages": tracing.last.get("pager_pages", 0),
            "engine.maintenance.ticks": delta("db_maint_ticks"),
            "engine.maintenance.blocks_rewritten": delta("db_maint_blocks"),
            "engine.maintenance.layout_records": counts.get("layout_records", 0),
            "driver.self_s": phase.traced_wall - in_apply,
            "driver.traced_wall_s": phase.traced_wall,
            "driver.traced_ops": len(traced_ops),
        }
    )
    for cls in OP_CLASSES:
        values = by_class.get(cls)
        metrics[f"server.service.{cls}_p50_ms"] = (
            statistics.median(values) * 1000.0 if values else 0.0
        )
    return metrics


def run_traced(
    name: str,
    seed: int,
    scale: float = 1.0,
    counted_ops: Optional[int] = None,
    out: Optional[str] = None,
) -> Dict[str, Any]:
    area = WorkArea()
    workload = _build(name, seed, scale, counted_ops)
    durable = DurableSize()
    recorder = Recorder()
    shims = Shims()
    shims.watch_wal_fsync(durable)
    target: Optional[Service] = None
    try:
        target = harness.open_service(workload, area.fresh("service"))
        tracing = Tracing(recorder, durable, lambda: _registry(target), seed)
        phase = harness.replay(
            target, workload, durable, workload.counted_ops, tracing=tracing
        )
        counts = dict(recorder.counts)
        tail = _tail(target, workload, durable, phase)
        # One traced recovery; its spans are filed under operation -2.
        with Shims(recorder) as recovery_shims:
            recovery_shims.watch_wal_fsync(durable)
            recovery_shims.install_timing()
            recorder.current_op = -2
            _, speeds, recovered, discarded = _crash_and_recover(target, durable, area, 1)
        problems, lost = _check(workload, [phase, tail], target, recovered, discarded)
    finally:
        shims.uninstall()
        if target is not None:
            target.service.close()
        area.remove()
    values = layer_metrics(workload, phase, tracing, counts, speeds[0])
    values["server.recover.replayed_ops"] = recovered.ops_replayed
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": name,
                    "seed": seed,
                    "shim_span_columns": ["name", "start", "end", "op"],
                    "shim_spans": recorder.to_rows(),
                    "builtin_trees": {
                        position: [tree.to_dict() for tree in trees]
                        for position, trees in phase.trees.items()
                    },
                },
                handle,
            )
    return _result(
        name, seed, 1, phase, tail, dict(sorted(values.items())), unit_of,
        problems, lost, discarded,
    )


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_table(result: Dict[str, Any]) -> None:
    info = result["info"]
    print(
        f"# {info['workload']} seed={info['seed']} trace={info['trace']} "
        f"timed_ops={info['timed_ops']} attempted={result['attempted']} "
        f"failed={result['failed']} timed_wall={info['timed_wall_s']:.2f}s"
    )
    for key, metric in result["metrics"].items():
        print(f"{key:48s} {metric['value']:>16.6g} {metric['unit']}")
    if "latency_samples" in info:
        print(f"# latency samples: {info['latency_samples']}")
    print(f"# lost acknowledged ops: {info['lost_acknowledged_ops']}")


def _save(result: Dict[str, Any], out: str) -> None:
    os.makedirs(out, exist_ok=True)
    info = result["info"]
    stamp = f"{int(time.time() * 1000)}-{os.getpid()}"
    path = os.path.join(
        out, f"result-{info['workload']}-seed{info['seed']}-trace{info['trace']}-{stamp}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
        handle.write("\n")


def _default_seconds() -> float:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def run_one(args: argparse.Namespace) -> int:
    if args.trace:
        result = run_traced(args.workload, args.seed, out=args.out)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    _print_table(result)
    for problem in result["info"]["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if args.out:
        _save(result, args.out)
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: four session workloads through WorkbookService.",
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long an untraced run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=None, help="directory for result and span files")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.workload is not None and args.trace is not None:
        return run_one(args)
    # No single run named: every workload (or the one given), untraced then
    # traced, each in a process of its own so that peak_rss_mb is its own.
    status = 0
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            command = [
                sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.out:
                command += ["--out", args.out]
            status = max(status, subprocess.run(command, check=False).returncode)
    return status
