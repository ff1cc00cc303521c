"""Event queue and simulator driving the IoT world.

A small, deterministic discrete-event engine: events are ``(time, seq,
callback)`` triples in a heap; ties break by insertion order so runs are
reproducible.  The :class:`Simulator` owns the clock, a seeded RNG, and
the queue, and offers ``run_until`` / ``run_for`` / ``step`` drivers.

The queue is on the transport hot path (one event per network delivery
batch, see ``docs/transport_plane.md``), so the event machinery is
deliberately lean: :class:`ScheduledEvent` is a ``__slots__`` class
comparing by ``(time, seq)`` only, ``len(queue)`` is a maintained live
counter rather than a heap scan, and same-deadline callbacks can share
one heap entry through the *bucket* API (:meth:`EventQueue.push_bucket`
/ :meth:`Simulator.schedule_bucket`).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.clock import Clock

EventCallback = Callable[[], None]


class ScheduledEvent:
    """An event in the queue; ordering is (time, sequence number).

    A plain ``__slots__`` class (not a dataclass): heap pushes compare
    events with :meth:`__lt__` on every sift, and the transport plane
    schedules one of these per delivery batch, so construction and
    comparison are kept as close to tuple-speed as Python objects get.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: EventCallback,
        cancelled: bool = False,
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.label = label
        self._queue = queue

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"<ScheduledEvent t={self.time} seq={self.seq}{label}{state}>"

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1


class _EventBucket:
    """Callbacks sharing one heap entry at one exact deadline.

    ``state`` distinguishes an open bucket (appendable), a bucket that
    is currently firing (appends still run this step, exactly as a
    same-time heap push would), and a spent one (appends must open a
    fresh event).
    """

    __slots__ = ("callbacks", "state", "queue", "time")

    OPEN = 0
    FIRING = 1
    DONE = 2

    def __init__(self, queue: "EventQueue", time: float):
        self.callbacks: List[EventCallback] = []
        self.state = _EventBucket.OPEN
        self.queue = queue
        self.time = time

    def __call__(self) -> None:
        self.state = _EventBucket.FIRING
        callbacks = self.callbacks
        i = 0
        # Index loop: a callback appending to this bucket mid-fire is
        # equivalent to scheduling at the current time, so it runs too.
        while i < len(callbacks):
            callbacks[i]()
            i += 1
        self.state = _EventBucket.DONE
        entry = self.queue._buckets.get(self.time)
        if entry is not None and entry[1] is self:
            del self.queue._buckets[self.time]


class EventQueue:
    """A heap of scheduled events with stable ordering."""

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._seq = itertools.count()
        # Live (non-cancelled) entries — maintained so __len__ is O(1)
        # instead of a heap scan.
        self._live = 0
        # deadline → (event, bucket) for the open bucketed events.
        self._buckets: Dict[float, Tuple[ScheduledEvent, _EventBucket]] = {}

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated ``time``."""
        event = ScheduledEvent(time, next(self._seq), callback, label=label, queue=self)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def push_bucket(
        self, time: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at ``time``, sharing one heap entry with
        every other bucketed callback at that exact deadline.

        Callbacks in a bucket run in append order — the same order a
        series of individual pushes at that time would fire in.  The
        returned event is the *shared* entry: cancelling it cancels the
        whole bucket, so callers that need individual cancellation
        should use :meth:`push`.
        """
        entry = self._buckets.get(time)
        if entry is not None:
            event, bucket = entry
            if not event.cancelled and bucket.state != _EventBucket.DONE:
                bucket.callbacks.append(callback)
                return event
        bucket = _EventBucket(self, time)
        bucket.callbacks.append(callback)
        event = self.push(time, bucket, label=label)
        self._buckets[time] = (event, bucket)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next live event, or None when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._live -= 1
                return event
        return None


class Simulator:
    """Clock + queue + seeded RNG: the deterministic heart of the world.

    Example::

        sim = Simulator(seed=42)
        sim.schedule_in(5.0, lambda: print("five seconds in"))
        sim.run_for(10.0)
    """

    def __init__(self, seed: int = 0, start: float = 0.0):
        self.clock = Clock(start)
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.events_processed = 0

    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now()

    def schedule_at(
        self, time: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule at an absolute time (>= now)."""
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule at {time}, now is {self.clock.now()}"
            )
        return self.queue.push(time, callback, label)

    def schedule_in(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.clock.now() + delay, callback, label)

    def schedule_bucket(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``delay`` seconds from now on a shared same-deadline
        bucket (:meth:`EventQueue.push_bucket`): all callbacks landing on
        one exact deadline cost a single heap entry and fire in append
        order.  The transport plane's batch flushes ride this."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push_bucket(self.clock.now() + delay, callback, label)

    def schedule_every(
        self,
        interval: float,
        callback: EventCallback,
        label: str = "",
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Schedule a recurring event; returns a cancel function.

        The recurrence re-arms itself after each firing **from the
        scheduled fire time**, not from ``clock.now()`` after the
        callback ran — a callback that advances the clock (a nested
        ``run_until``, a drain) must not stretch the period.  When a
        callback overruns one or more whole periods the recurrence
        skips to the next grid point strictly after ``now``
        (periods stay on the ``start + k*interval`` grid; missed points
        are not replayed).  Stops once ``until`` (absolute time) is
        passed or the cancel function runs.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        state = {"stopped": False, "event": None, "at": 0.0}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            next_time = state["at"] + interval
            now = self.clock.now()
            while next_time <= now:
                next_time += interval
            if until is None or next_time <= until:
                state["at"] = next_time
                state["event"] = self.schedule_at(next_time, fire, label)

        state["at"] = self.clock.now() + interval
        state["event"] = self.schedule_at(state["at"], fire, label)

        def cancel() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.callback()
        self.events_processed += 1
        return True

    def run_until(self, time: float, max_events: int = 1_000_000) -> int:
        """Run events with time <= ``time``; returns events processed.

        The clock always ends at exactly ``time`` even if the queue
        drains early.
        """
        processed = 0
        while processed < max_events:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
            processed += 1
        if self.clock.now() < time:
            self.clock.advance_to(time)
        return processed

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Run for a relative duration from the current time."""
        return self.run_until(self.clock.now() + duration, max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty (or the safety cap is hit)."""
        processed = 0
        while processed < max_events and self.step():
            processed += 1
        return processed
