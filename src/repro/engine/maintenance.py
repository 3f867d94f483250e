"""Background maintenance worker: the control side of HTAP isolation.

The storage layer gives readers snapshot isolation (immutable
:class:`~repro.engine.store.StoreSnapshot` views, copy-on-write pages,
epoch-based reclamation); this module moves the *maintenance* work —
budgeted ``layout_tick`` restructure steps, ``encoding_tick`` passes,
snapshot compaction — off the apply path onto a dedicated thread, the
Polynesia-style separation the ROADMAP's HTAP item calls for: one long
analytical migration step no longer stalls every editor session, because
the apply path only *wakes* the worker instead of running the beat
itself.

Design constraints the implementation encodes:

* **Wake-driven, not polling.**  With ``interval=None`` (the default)
  the thread sleeps on an event until an owner calls :meth:`wake` — an
  idle database costs nothing.  A numeric interval adds a periodic
  heartbeat on top (a server that wants progress with zero traffic).
* **Beats are serialised.**  One beat runs at a time, under
  ``_beat_lock``; :meth:`pause` blocks until any in-flight beat
  finishes, so "paused" means *nothing is running*, not "nothing new
  starts".
* **The owner may die first.**  The beat callable is held through a
  :class:`weakref.WeakMethod` when it is a bound method, so a collected
  Database ends its worker instead of being kept alive by it.
* **Crashes are data.**  A beat that raises is counted, recorded as a
  ``maintenance_error`` event, and the loop keeps going — background
  maintenance must degrade, never take the process down.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Callable, Optional

__all__ = ["MaintenanceWorker"]


class MaintenanceWorker:
    """Owns the maintenance beat on a daemon thread.

    ``beat`` is a zero-argument callable doing one *bounded* unit of
    maintenance and returning truthy while more work remains — the
    worker beats again immediately (yielding ``backoff`` seconds so
    concurrent appliers interleave) and goes back to sleep once the beat
    reports quiescence.

    ``events`` (a :class:`repro.obs.EventLog`) receives
    ``maintenance_pause`` / ``maintenance_resume`` / ``maintenance_drain``
    / ``maintenance_error`` records; ``histogram`` (a
    :class:`repro.obs.Histogram`) observes per-beat latency.  Both are
    optional."""

    def __init__(
        self,
        beat: Callable[[], Any],
        interval: Optional[float] = None,
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
        self.interval = interval
        self.name = name
        self.backoff = backoff
        self._events = events
        self._histogram = histogram
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._paused = False
        # Held for the duration of every beat (worker- or drain-driven);
        # pause()/drain() serialise against in-flight work through it.
        self._beat_lock = threading.RLock()
        self.beats = 0
        self.errors = 0
        self.last_error: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def paused(self) -> bool:
        return self._paused

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

    def pause(self) -> None:
        """Suspend beating; returns only once no beat is in flight."""
        with self._beat_lock:
            if not self._paused:
                self._paused = True
                if self._events is not None:
                    self._events.record("maintenance_pause", worker=self.name)

    def resume(self) -> None:
        """Lift a pause and wake the worker to catch up."""
        if self._paused:
            self._paused = False
            if self._events is not None:
                self._events.record("maintenance_resume", worker=self.name)
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
            fired = self._wake.wait(self.interval)
            if fired:
                self._wake.clear()
            if self._stop.is_set():
                break
            beat = self._beat_ref()
            if beat is None:
                break  # the owner was garbage-collected
            with self._beat_lock:
                # Re-checked under the lock: a pause() that won the lock
                # first must not be followed by one more beat.
                did_work = False if self._paused else self._observed_beat(beat)
            if did_work:
                # More work remains (e.g. a multi-step migration): keep
                # beating without waiting for another wake, but yield the
                # GIL so concurrent applies keep their latency.
                self._wake.set()
                if self.backoff:
                    time.sleep(self.backoff)
