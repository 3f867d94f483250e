"""Observability overhead: metrics on vs off over the HTAP trace.

The observability subsystem (:mod:`repro.obs`) claims to be cheap enough
to leave on in production and *free* when disabled:

* metrics ENABLED: counters/gauges/histograms live, every statement
  timed into a log-bucket histogram, every server apply timed — the
  whole HTAP trace must slow down by **< 5%** versus disabled,
* metrics DISABLED: the only residual cost is one boolean test per
  instrument call — a disabled ``Counter.inc`` / ``Histogram.observe``
  must cost well under a microsecond (the "~0% off" claim, measured
  directly rather than lost in run-to-run noise),
* tracing costs nothing when no trace is active: the null-span fast
  path returns a shared singleton, asserted below by identity.

Each on/off comparison runs many *pairs* — one run of each configuration,
back to back, the order alternating from pair to pair — and gates the
median of the per-pair on/off ratios.  The two runs of a pair see the same
machine speed, so drift cancels inside the ratio, and a scheduling blip
moves one pair out of many instead of a best-of-N floor.  Results land in
``BENCH_observability.json`` via :func:`benchmarks.conftest.write_bench_json`.

Run ``BENCH_SMOKE=1`` (the CI smoke step) to shrink the trace while
keeping every assertion live.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.engine.database import Database
from repro.obs import MetricsRegistry
from repro.obs.trace import _NULL_SPAN

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N_ROWS = 120 if SMOKE else 400
N_ROUNDS = 20 if SMOKE else 30
# On/off pairs per comparison: the median of this many per-pair ratios.
PAIRS = 41 if SMOKE else 61
# The HTAP trace is statement-heavy on purpose: per-statement timing is
# the instrumentation's hot path, so this is the worst case for overhead.
OVERHEAD_CEILING = 1.05
DISABLED_CALL_CEILING_US = 1.0
# The runtime sanitizer (Database(sanitize=True)) asserts engine
# invariants on the buffer-pool and batch-scan hot paths; its budget is
# looser than the metrics one because each check inspects real data.
SANITIZER_CEILING = 1.10


def build_db(enabled: bool, sanitize: bool = False) -> Database:
    registry = MetricsRegistry(enabled=enabled)
    db = Database(
        page_capacity=32, buffer_frames=16, metrics=registry, sanitize=sanitize
    )
    db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
    table = db.table("t")
    for i in range(N_ROWS):
        table.insert((i, i * 2, i * 3, i * 5), emit=False)
    return db


def run_trace(db: Database) -> int:
    """The HTAP mix: narrow scans, point-ish reads, updates, inserts."""
    statements = 0
    value = N_ROWS
    for index in range(N_ROUNDS):
        db.execute(f"SELECT a, b FROM t WHERE a > {(index * 13) % N_ROWS}")
        db.execute(f"SELECT c FROM t WHERE d < {(index * 29) % (N_ROWS * 5)}")
        db.execute(f"UPDATE t SET b = {index} WHERE a = {(index * 7) % N_ROWS}")
        db.execute(f"INSERT INTO t VALUES ({value}, {value * 2}, {value * 3}, {value * 5})")
        value += 1
        statements += 4
    return statements


def timed_trace(enabled: bool, sanitize: bool = False) -> float:
    db = build_db(enabled, sanitize=sanitize)
    started = time.perf_counter()
    run_trace(db)
    return time.perf_counter() - started


def paired_ratio(run: Callable[[bool], float]) -> Tuple[float, Dict[str, float]]:
    """Median over ``PAIRS`` alternating pairs of ``run(True) / run(False)``,
    plus each configuration's median time."""
    run(False)  # warm-up: imports, code caches
    times: Dict[str, List[float]] = {"on": [], "off": []}
    ratios = []
    for pair in range(PAIRS):
        order = ("off", "on") if pair % 2 == 0 else ("on", "off")
        sample = {mode: run(mode == "on") for mode in order}
        for mode, seconds in sample.items():
            times[mode].append(seconds)
        ratios.append(sample["on"] / sample["off"])
    return statistics.median(ratios), {
        mode: statistics.median(samples) for mode, samples in times.items()
    }


def disabled_call_cost_us() -> float:
    """Average cost of one disabled instrument call, in microseconds."""
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("bench_disabled_total")
    histogram = registry.histogram("bench_disabled_seconds")
    n = 20_000 if SMOKE else 100_000
    started = time.perf_counter()
    for _ in range(n):
        counter.inc()
        histogram.observe(0.001)
    elapsed = time.perf_counter() - started
    return elapsed / (2 * n) * 1e6


def test_metrics_overhead_bounded():
    ratio, median = paired_ratio(lambda on: timed_trace(enabled=on))
    per_call_us = disabled_call_cost_us()

    # Tracing off the hot path: with no trace active the tracer hands out
    # the shared null span — no allocation, no timing.
    db = build_db(enabled=True)
    assert db.tracer.span("anything") is _NULL_SPAN
    assert db.tracer.current is _NULL_SPAN

    statements = N_ROUNDS * 4
    print(
        f"\nHTAP trace ({statements} statements, median of {PAIRS} pairs): "
        f"metrics off={median['off'] * 1e3:.1f}ms on={median['on'] * 1e3:.1f}ms "
        f"ratio={ratio:.3f}; disabled instrument call={per_call_us:.3f}us"
    )
    write_bench_json(
        "observability",
        {
            "statements": statements,
            "pairs": PAIRS,
            "metrics_off_ms": round(median["off"] * 1e3, 3),
            "metrics_on_ms": round(median["on"] * 1e3, 3),
            "overhead_ratio": round(ratio, 4),
            "disabled_call_us": round(per_call_us, 4),
        },
    )
    # Acceptance: <5% slowdown with metrics on, and a disabled instrument
    # call is sub-microsecond.
    assert ratio < OVERHEAD_CEILING, (
        f"metrics-on trace is {ratio:.3f}x metrics-off (ceiling {OVERHEAD_CEILING})"
    )
    assert per_call_us < DISABLED_CALL_CEILING_US, (
        f"disabled instrument call costs {per_call_us:.3f}us"
    )


def test_sanitizer_overhead_bounded():
    """Runtime sanitizer on vs off over the same HTAP trace, <10%."""
    ratio, median = paired_ratio(lambda on: timed_trace(enabled=False, sanitize=on))

    # The checks must actually have run — a silently disarmed sanitizer
    # would make the ratio meaningless.
    db = build_db(enabled=False, sanitize=True)
    run_trace(db)
    assert db.sanitizer.checks > 0
    assert db.sanitizer.failures == 0

    print(
        f"\nHTAP trace (median of {PAIRS} pairs): "
        f"sanitizer off={median['off'] * 1e3:.1f}ms on={median['on'] * 1e3:.1f}ms "
        f"ratio={ratio:.3f} ({db.sanitizer.checks} checks)"
    )
    write_bench_json(
        "observability_sanitizer",
        {
            "pairs": PAIRS,
            "sanitizer_off_ms": round(median["off"] * 1e3, 3),
            "sanitizer_on_ms": round(median["on"] * 1e3, 3),
            "sanitizer_overhead_ratio": round(ratio, 4),
            "sanitizer_checks": db.sanitizer.checks,
        },
    )
    assert ratio < SANITIZER_CEILING, (
        f"sanitizer-on trace is {ratio:.3f}x sanitizer-off "
        f"(ceiling {SANITIZER_CEILING})"
    )


def test_registry_counts_the_trace():
    """Sanity: with metrics on, the registry actually saw the workload."""
    db = build_db(enabled=True)
    statements = run_trace(db)
    snap = db.metrics()
    # +1 for the CREATE TABLE in build_db.
    assert snap["db_statements_total"] == statements + 1
    latency = snap["db_statement_seconds"]
    assert latency["count"] == statements + 1
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert snap["pager_reads"] >= 0 and snap["buffer_hits"] > 0


if __name__ == "__main__":
    test_metrics_overhead_bounded()
    test_sanitizer_overhead_bounded()
    test_registry_counts_the_trace()
