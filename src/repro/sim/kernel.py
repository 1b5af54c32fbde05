"""A small deterministic simulation kernel.

:class:`Clock` is virtual time: RPCs and service executions advance it
explicitly, so latency and detection-time metrics are exact and runs are
reproducible.  :class:`EventQueue` holds deferred callbacks (periodic
service invocations, delayed notifications) ordered by (time, sequence);
ties break by insertion order, never by object identity.

Cancellation is lazy: a cancelled event stays in the heap until a pop
skips it, or until cancelled entries outnumber live ones — then the
queue compacts in one pass (filter + re-heapify).  Long-running chaos
sweeps cancel timeouts for every transaction that completes normally;
without compaction those tombstones accumulate for the whole run and
every push/pop pays log(dead + alive) instead of log(alive).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.obs.prof import PROF

#: Never compact below this many tombstones — filtering a tiny heap
#: costs more in constant factors than the tombstones cost in log terms.
_COMPACT_FLOOR = 8

#: Events one ``run_until``/``run_all`` may fire before it calls the
#: run an event storm (a callback that keeps rescheduling itself).
MAX_EVENTS = 100_000


class Clock:
    """Monotonic virtual time in simulated seconds."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by *dt* (≥ 0); returns the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance the clock by {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to *t* if it is in the future."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:
        return f"Clock(t={self._now:.6f})"


class _Event:
    """A scheduled callback.  The heap holds ``(time, seq, event)``
    tuples, so ordering is tuple comparison (``seq`` is unique: the
    event itself is never compared)."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback
        self.cancelled = False


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; supports cancel."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: _Event, queue: "EventQueue"):
        self._event = event
        self._queue = queue

    def cancel(self) -> None:
        """Cancel the event (idempotent; fired events cancel silently)."""
        if self._event.cancelled:
            return
        self._event.cancelled = True
        self._queue._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class EventQueue:
    """Deferred callbacks ordered by virtual time."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: List[Tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        #: Tombstones believed to still sit in the heap; drives compaction.
        self._cancelled = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        event = _Event(callback)
        heapq.heappush(self._heap, (self.clock.now + delay, next(self._seq), event))
        PROF.incr("eventq_scheduled")
        return EventHandle(event, self)

    def _note_cancelled(self) -> None:
        """Count a new tombstone; compact when the dead outnumber the live.

        The 2x threshold keeps amortized cost O(1) per cancellation; the
        floor keeps tiny queues on the trivial path.  Compaction preserves
        (time, seq) order exactly — it only removes entries a pop would
        have skipped anyway — so interleavings are unchanged.
        """
        self._cancelled += 1
        PROF.incr("eventq_cancelled")
        if self._cancelled >= _COMPACT_FLOOR and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and restore the heap invariant."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        PROF.incr("eventq_compactions")

    def _pop_skipped(self) -> None:
        """Book-keeping for a cancelled event removed by a pop."""
        if self._cancelled > 0:
            self._cancelled -= 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* at absolute virtual time *time*."""
        return self.schedule(max(0.0, time - self.clock.now), callback)

    def step(self) -> bool:
        """Fire exactly one event (the earliest live one).

        Returns False when the queue is drained.  This is the
        step-driven interleaving primitive the concurrent scheduler
        builds on: each peer work unit is one event, so stepping the
        queue interleaves the in-flight transactions deterministically
        in (time, sequence) order.
        """
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._pop_skipped()
                continue
            self.clock.advance_to(time)
            PROF.incr("eventq_fired")
            event.callback()
            return True
        return False

    def run_until(self, deadline: float) -> int:
        """Fire events with time ≤ *deadline*; returns how many fired.

        The clock jumps to each event's time; after the last event it
        rests at *deadline* (or stays put if nothing fired beyond now).
        """
        fired = self._run(deadline)
        self.clock.advance_to(deadline)
        return fired

    def run_all(self) -> int:
        """Fire every pending event regardless of time."""
        return self._run(None)

    def _run(self, deadline: Optional[float]) -> int:
        """Fire events in order, up to *deadline* (``None``: all of them);
        more than :data:`MAX_EVENTS` is an event storm."""
        fired = 0
        while self._heap and (deadline is None or self._heap[0][0] <= deadline):
            time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._pop_skipped()
                continue
            self.clock.advance_to(time)
            PROF.incr("eventq_fired")
            event.callback()
            fired += 1
            if fired >= MAX_EVENTS:
                before = "" if deadline is None else f" before {deadline}"
                raise RuntimeError(f"event storm: more than {MAX_EVENTS} events{before}")
        return fired


class OneShotTimer:
    """A re-armable single-pending-event timer over an :class:`EventQueue`.

    ``arm(delay)`` schedules the callback once; further ``arm`` calls
    while a firing is pending are no-ops (the earliest deadline wins).
    After the callback fires — or after :meth:`cancel` — the timer can
    be armed again.  This is the shape group commit needs for its
    virtual-time flush quantum: a periodic self-rescheduling event would
    keep ``run_all()`` spinning forever, while a one-shot armed only
    when work is actually buffered drains naturally.
    """

    __slots__ = ("_events", "_callback", "_handle")

    def __init__(self, events: EventQueue, callback: Callable[[], None]):
        self._events = events
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def arm(self, delay: float) -> None:
        """Schedule the callback *delay* from now unless already pending."""
        if self.armed:
            return
        self._handle = self._events.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Drop the pending firing, if any (idempotent)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class ScratchSpace:
    """Deterministically-named scratch directories under one random root.

    Durable-WAL simulations need real directories on disk, but nothing
    about the *root* path may leak into run summaries or the WAL frames
    themselves, or byte-identical reruns would diverge.  The root is a
    fresh ``tempfile.mkdtemp``; everything below it is named by the
    caller (``path("AP1")``, ``path("AP1", "wal")``), so two runs with
    the same seed produce identical relative layouts under different
    roots.
    """

    def __init__(self):
        import tempfile

        self.root = tempfile.mkdtemp(prefix="repro-scratch-")

    def path(self, *parts: str) -> str:
        """Directory ``<root>/<parts...>``, created on first use."""
        import os

        if not parts:
            return self.root
        target = os.path.join(self.root, *parts)
        os.makedirs(target, exist_ok=True)
        return target

    def cleanup(self) -> None:
        import shutil

        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ScratchSpace":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()
