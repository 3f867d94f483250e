"""Unified observability: metrics registry, span tracer, event log.

The paper's claims are about *measured* page I/O and recalc cost; this
package is the substrate that makes every layer of the reproduction
report through one surface instead of five disconnected counter islands:

* :mod:`repro.obs.metrics` — a zero-dependency process registry of
  counters, gauges and streaming log-bucket histograms (p50/p95/p99
  without per-sample allocation), exported Prometheus-style or as a
  human table,
* :mod:`repro.obs.trace` — a lightweight span tracer for per-statement
  capture (``EXPLAIN TRACE <query>``) and the server apply path; when no
  trace is active every instrumentation point is a shared no-op,
* :mod:`repro.obs.counters` — :class:`Counters`, the dataclass base of
  every layer's counter struct; collectors export a struct with
  ``stats.metrics(prefix)``,
* :mod:`repro.obs.events` — a bounded structured log of maintenance
  events (layout advice, migration lifecycle, snapshot compaction, WAL
  repair, crash recovery) with timestamps and causes.
"""

from repro.obs.counters import Counters
from repro.obs.events import Event, EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counters",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "Span",
    "Tracer",
    "Event",
    "EventLog",
]
