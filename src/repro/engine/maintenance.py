"""Maintenance scheduling: when a beat runs, and on which thread.

The storage layer gives readers snapshot isolation (immutable
:class:`~repro.engine.store.StoreSnapshot` views, copy-on-write pages,
epoch-based reclamation); this module is the control side.  One
:class:`MaintenanceScheduler` per database (``database.maintenance``)
decides when budgeted ``layout_tick`` / ``encoding_tick`` beats run and
whether a :class:`MaintenanceWorker` thread runs them off the apply path
(the Polynesia-style separation of analytical maintenance from the
transactional path).  The bare database counts SQL statements; a durable
service that attaches counts applied ops and plugs in its
layout-transition observer, an after-beat hook and its apply lock.

Design constraints the worker encodes:

* **Wake-driven, not polling.**  The thread sleeps until the scheduler
  wakes it — an idle database costs nothing.
* **Beats are serialised.**  One beat runs at a time, under
  ``_beat_lock``; :meth:`MaintenanceScheduler.suspend` takes it, so
  "suspended" means *nothing is running*, not "nothing new starts".
* **The owner may die first.**  The beat callable is held through a
  :class:`weakref.WeakMethod` when it is a bound method, so a collected
  Database ends its worker instead of being kept alive by it.
* **Crashes are data.**  A beat that raises is counted, recorded as a
  ``maintenance_error`` event, and the loop keeps going — background
  maintenance must degrade, never take the process down.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

from repro.engine.hybridstore import suggested_tick_budget

__all__ = ["MaintenanceScheduler", "MaintenanceWorker"]


class MaintenanceWorker:
    """Owns the maintenance beat on a daemon thread.

    ``beat`` is a zero-argument callable doing one *bounded* unit of
    maintenance and returning truthy while more work remains — the
    worker beats again immediately (yielding ``backoff`` seconds so
    concurrent appliers interleave) and goes back to sleep once the beat
    reports quiescence.

    ``events`` (a :class:`repro.obs.EventLog`) receives
    ``maintenance_drain`` / ``maintenance_error`` records; ``histogram`` (a
    :class:`repro.obs.Histogram`) observes per-beat latency.  Both are
    optional."""

    def __init__(
        self,
        beat: Callable[[], Any],
        name: str = "repro-maintenance",
        events: Any = None,
        histogram: Any = None,
        backoff: float = 0.001,
    ):
        # A bound method would keep its owner (the Database/service)
        # alive forever through this long-lived thread; hold it weakly
        # and exit the loop when the owner is gone.
        if hasattr(beat, "__self__"):
            self._beat_ref: Callable[[], Optional[Callable[[], Any]]] = (
                weakref.WeakMethod(beat)
            )
        else:
            self._beat_ref = lambda: beat
        self.name = name
        self.backoff = backoff
        self._events = events
        self._histogram = histogram
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stop = threading.Event()
        # Held for the duration of every beat (worker- or drain-driven);
        # between_beats()/drain() serialise against in-flight work through it.
        self._beat_lock = threading.RLock()
        self.beats = 0
        self.errors = 0
        self.last_error: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MaintenanceWorker":
        """Start the worker thread; idempotent."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the thread (idempotent).  With ``drain=True`` (clean
        shutdown) remaining work is then run to quiescence on the
        caller's thread; ``drain=False`` models a crash — an in-flight
        step still completes (beats are atomic under the lock) but
        pending work is abandoned for recovery to resume."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            if thread is not threading.current_thread():
                thread.join(timeout=timeout)
        self._thread = None
        if drain:
            self.drain()

    # -- control ------------------------------------------------------------

    def wake(self) -> None:
        """Nudge the worker: there may be work (cheap, lock-free)."""
        self._wake.set()

    def between_beats(self) -> Any:
        """Context manager: on entry no beat is in flight, and none starts
        before exit.  A beat's effects become visible before the beat is
        counted, so a reader wanting both consistent (``beats`` and what
        the beats did) reads inside this — taken before any lock a beat
        takes, as the worker itself does."""
        return self._beat_lock

    def drain(self, max_beats: int = 10_000) -> int:
        """Run the remaining maintenance to quiescence on the *caller's*
        thread (serialised with the worker via the beat lock); returns
        beats run.  The shutdown and barrier primitive: after drain()
        there is no deferred maintenance left to lose."""
        count = 0
        with self._beat_lock:
            beat = self._beat_ref()
            if beat is not None:
                for _ in range(max_beats):
                    if not self._observed_beat(beat):
                        break
                    count += 1
            if self._events is not None:
                self._events.record(
                    "maintenance_drain", worker=self.name, beats=count
                )
        return count

    # -- the loop -----------------------------------------------------------

    def _observed_beat(self, beat: Callable[[], Any]) -> Any:
        """Run one beat under the lock, timed and error-isolated."""
        with self._beat_lock:
            started = time.perf_counter()
            try:
                did_work = beat()
            except Exception as error:
                self.errors += 1
                self.last_error = repr(error)
                if self._events is not None:
                    self._events.record(
                        "maintenance_error", worker=self.name, error=repr(error)
                    )
                return False
            self.beats += 1
            if self._histogram is not None:
                self._histogram.observe(time.perf_counter() - started)
            return did_work

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait()
            self._wake.clear()
            if self._stop.is_set():
                break
            beat = self._beat_ref()
            if beat is None:
                break  # the owner was garbage-collected
            if self._observed_beat(beat):
                # More work remains (e.g. a multi-step migration): keep
                # beating without waiting for another wake, but yield the
                # GIL so concurrent applies keep their latency.
                self._wake.set()
                if self.backoff:
                    time.sleep(self.backoff)


class MaintenanceScheduler:
    """The one maintenance cadence of a database (``database.maintenance``).

    Every ``interval`` units of the owner's work (0: off; an explicit
    :meth:`tick` still runs) a beat is due and the count restarts.  A due
    beat ticks inline or, in background mode, wakes the worker when some
    table wants maintenance.  Inside a transaction it is dropped: undo
    must replay against a stable store.  The unit is a SQL statement until
    a service attaches (:meth:`attach`); then it is an applied op, and
    every beat runs under the service's lock, reports layout transitions
    to its observer and ends with its after-beat hook."""

    def __init__(
        self, database: Any, interval: int, background: Optional[bool] = None
    ):
        if background is None:
            background = os.environ.get("REPRO_BG_MAINT", "") not in ("", "0")
        self._database = database
        self.interval = interval  #: units between beats (0: the cadence is off)
        self.background = background  #: beats run on the worker thread
        self.worker: Optional[MaintenanceWorker] = None  #: see ensure_worker
        self._since = self._suspended = 0
        self._beat_seconds = database.metrics_registry.histogram(
            "db_maint_tick_seconds", "maintenance beat latency (seconds)"
        )
        self.detach()

    def attach(
        self,
        observer: Callable[[str, str, List[List[str]]], None],
        after_beat: Callable[[], Any],
        lock: ContextManager[Any],
        background: Optional[bool] = None,
    ) -> None:
        """Hand the cadence to a service: it counts ``"op"`` units from
        zero, and beats run under ``lock``, pass ``observer`` to
        ``Database.maintenance_tick`` and end with ``after_beat``.
        ``background`` (None: unchanged) picks the beats' thread."""
        self.unit, self._since = "op", 0
        self._observer, self._after_beat, self._lock = observer, after_beat, lock
        if background is not None:
            self.background = background

    def detach(self) -> None:
        """Give the cadence back to the bare database's statements."""
        self.unit = "statement"
        self._observer: Optional[Callable[[str, str, List[List[str]]], None]] = None
        self._after_beat: Callable[[], Any] = lambda: None
        self._lock: ContextManager[Any] = nullcontext()

    @property
    def suspended(self) -> bool:
        return bool(self._suspended)

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Nothing is counted, woken or beaten inside, and no worker beat
        is in flight on entry: history replay must not run the advisor's
        own, unlogged migrations."""
        worker = self.worker
        with worker.between_beats() if worker is not None else nullcontext():
            self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def count(self, unit: str, idle: bool = False) -> None:
        """One ``unit`` of the owner's work went by (other units are not
        counted).  ``idle=True``, the serve loop's idle beat, is also due
        whenever a migration is in flight, so it progresses with no
        traffic."""
        if unit != self.unit or self._suspended or not self.interval:
            return
        self._since += 1
        if self._since < self.interval and not (
            idle and any(t.migration_active for t in self._database.catalog.tables())
        ):
            return
        self._since = 0
        if not self.background:
            self.tick()
        elif self._candidates():
            self.ensure_worker().wake()

    def _candidates(self) -> List[Any]:
        return [t for t in self._database.catalog.tables() if t.wants_maintenance]

    def tick(
        self, steps: int = 2, max_blocks: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """One beat on the caller's thread (the inline cadence, or an
        operator's explicit tick); returns the non-idle table reports."""
        if self._database.in_transaction:
            return []
        with self._lock:
            reports = self._database.maintenance_tick(
                steps, observer=self._observer, max_blocks=max_blocks
            )
            self._after_beat()
        return reports

    def _beat(self) -> bool:
        """One worker beat, its restructure work budgeted at
        ``suggested_tick_budget`` of the largest candidate so it holds the
        store lock for a fraction of a chain rewrite.  True while work
        remains."""
        with self._lock:
            candidates = [] if self._suspended else self._candidates()
            if not candidates:
                return False
            page_capacity = self._database.catalog.pool.page_capacity
            budget = max(
                suggested_tick_budget(t.n_rows, page_capacity) for t in candidates
            )
            return bool(self.tick(2, budget))

    def ensure_worker(self) -> MaintenanceWorker:
        """The background worker, created on first use (started on return)."""
        if self.worker is None:
            self.worker = MaintenanceWorker(
                self._beat, events=self._database.events, histogram=self._beat_seconds
            )
        return self.worker.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker, if one ever started (see MaintenanceWorker.stop)."""
        if self.worker is not None:
            self.worker.stop(drain=drain)
