"""The simulation calendar and run loop.

:class:`Simulation` owns simulated time.  Events are ordered by
``(time, priority, sequence)``: the sequence — the order in which
events were scheduled — breaks ties among simultaneous equal-priority
events (FIFO), which in turn makes every experiment in this repository
reproducible bit-for-bit.

The calendar is a *bucket calendar*: the binary heap holds one entry
per distinct ``(time, priority)`` key, and each key maps to a FIFO
bucket of the events scheduled under it.  Discrete-event workloads are
dominated by same-instant floods — zero-delay cascades, simultaneous
checkpoint stages, fleet-wide quantum ticks — so coalescing them makes
heap traffic O(distinct timestamps) instead of O(events) while
producing exactly the historical ``(time, priority, sequence)`` order:
buckets preserve scheduling order internally, and the heap orders the
keys.  An urgent event scheduled mid-bucket still preempts the rest of
a normal bucket at the same instant, because its *key* sorts first.

One private loop, :meth:`Simulation._dispatch`, processes every event.
It skims the heap once per bucket and then drains that bucket in FIFO
order for as long as its key is still the heap top; an urgent push at
the current instant replaces the top and so preempts the rest of the
bucket.  :meth:`~Simulation.run`, :meth:`~Simulation.run_until_triggered`
and :meth:`~Simulation.step` all go through it, so the unhandled-failure
rule and the ``sim.event`` counter exist in one place.

Simulated time is a float measured in **seconds**.  Real wall-clock time
is never consulted.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from ..telemetry import TelemetryBus
from .errors import StopSimulation, UnhandledEventFailure
from .events import AllOf, AnyOf, Event, Timeout
from .processes import PRIORITY_URGENT, Process
from .random import RandomRegistry

#: Priority for ordinary events (:data:`PRIORITY_URGENT` lives with the
#: processes that schedule it).
PRIORITY_NORMAL = 1


class Simulation:
    """A discrete-event simulation: a clock plus a calendar of events.

    Parameters
    ----------
    seed:
        Master seed for the simulation's named random streams (see
        :class:`~repro.simkernel.random.RandomRegistry`).  Two runs with
        the same seed and the same process structure produce identical
        traces.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        #: Heap of distinct ``(when, priority)`` bucket keys.
        self._queue: list = []
        #: ``(when, priority)`` -> ``[cursor, [event, ...]]``.  The
        #: bucket list is FIFO in scheduling order; ``cursor`` marks the
        #: next unprocessed event.  A key is in the heap iff it is here.
        self._buckets: dict = {}
        #: Scheduled-but-unprocessed event count (the heap only counts
        #: distinct keys, so pending bookkeeping is explicit).
        self._pending = 0
        self.random = RandomRegistry(seed)
        #: Number of events processed so far (diagnostic).
        self.events_processed = 0
        #: The simulation-wide telemetry bus.  Zero-overhead until a
        #: subscriber attaches; see :mod:`repro.telemetry`.
        self.telemetry = TelemetryBus(self)

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event` on this simulation."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process.

        The process begins executing at the current simulated time (as an
        urgent event), and the returned :class:`Process` is itself an
        event that triggers when the generator finishes.
        """
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event succeeding once all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event succeeding once any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Place a triggered event on the calendar ``delay`` from now.

        ``delay`` must be non-negative: the calendar never travels into
        the past.  :class:`~repro.simkernel.events.Timeout` validates
        its own delay, but :meth:`Event.succeed`/:meth:`Event.fail`
        forward theirs here, so this is the single choke point.

        Ordering contract (pinned): events are processed in ascending
        ``(time, priority, sequence)`` order, where *sequence* is the
        order of ``_schedule`` calls.  Two events at the same time and
        priority therefore fire FIFO; a :data:`PRIORITY_URGENT` event
        scheduled at the current instant preempts any not-yet-processed
        :data:`PRIORITY_NORMAL` event at that same instant.  The bucket
        calendar realises this order with one heap entry per distinct
        ``(time, priority)`` key: appending to an existing bucket is
        O(1), so same-instant floods cost no heap traffic at all.
        """
        if delay < 0:
            raise ValueError(f"negative schedule delay: {delay}")
        if event._scheduled:
            return
        event._scheduled = True
        key = (self._now + delay, priority)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [0, [event]]
            heapq.heappush(self._queue, key)
        else:
            bucket[1].append(event)
        self._pending += 1

    def _skim(self):
        """Drop exhausted buckets off the heap top; return the live one.

        Buckets are retired *lazily*: a bucket whose cursor has caught
        up stays on the heap until it surfaces, because a same-instant
        callback may still append to it (reviving it in place, exactly
        where its sequence numbers would have sorted).  Returns ``None``
        when the calendar is empty.
        """
        queue = self._queue
        buckets = self._buckets
        while queue:
            bucket = buckets[queue[0]]
            if bucket[0] < len(bucket[1]):
                return bucket
            del buckets[queue[0]]
            heapq.heappop(queue)
        return None

    def schedule_callback(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Run ``callback()`` after ``delay`` simulated seconds.

        A convenience for instrumentation that does not warrant a full
        process.  The returned event triggers just before the callback.
        """
        event = self.timeout(delay)
        event.callbacks.append(lambda _evt: callback())
        if name:
            event.name = name
        return event

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        After ``run(until=h)`` returns, ``peek() > h`` strictly: any
        event scheduled *exactly at* the horizon has already fired (see
        :meth:`run` for the pinned horizon contract).
        """
        return self._queue[0][0] if self._skim() is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event from the calendar.

        The event is the pending one with the smallest
        ``(time, priority, sequence)`` — the head of the live bucket at
        the top of the key heap.  Raises ``RuntimeError`` on an empty
        calendar: stepping an idle simulation is always a caller bug
        (nothing was scheduled), and the error should say so rather
        than leak a ``heapq`` IndexError.
        """
        bucket = self._skim()
        if bucket is None:
            raise RuntimeError(
                "step() on an empty calendar: no events are scheduled "
                "(start a process or a timeout first)"
            )
        self._dispatch(float("inf"), bucket[1][bucket[0]])

    def _dispatch(self, horizon: float, target: Optional[Event]) -> None:
        """Process events in calendar order; the one dispatch loop.

        Returns when the calendar empties, when the next key is later
        than ``horizon``, or right after ``target`` has been processed.
        The heap is skimmed once per bucket; the bucket is then drained
        in FIFO order while its key is still the heap top, so a
        same-instant urgent push (a smaller key) preempts the rest of
        it.  The cursor lives in the bucket, not in a local, so a
        callback that steps the calendar itself leaves no stale state.
        """
        queue = self._queue
        buckets = self._buckets
        telemetry = self.telemetry
        while queue:
            key = queue[0]
            bucket = buckets[key]
            events = bucket[1]
            if bucket[0] == len(events):
                # Exhausted: retire it now that it has surfaced.
                del buckets[key]
                heapq.heappop(queue)
                continue
            when = key[0]
            if when > horizon:
                return
            if when < self._now:  # pragma: no cover - guarded by _schedule
                raise RuntimeError("calendar went backwards")
            self._now = when
            while True:
                cursor = bucket[0]
                bucket[0] = cursor + 1
                event = events[cursor]
                events[cursor] = None  # release the reference promptly
                self._pending -= 1
                callbacks, event.callbacks = event.callbacks, None
                self.events_processed += 1
                # Read per event: a mid-run subscribe can flip it.
                if telemetry.kernel_enabled:
                    telemetry.counter("sim.event", 1.0, event=event.name)
                if not callbacks and not event._ok:
                    raise UnhandledEventFailure(event._value) from event._value
                for callback in callbacks:
                    callback(event)
                if event is target:
                    return
                if queue[0] is not key or bucket[0] == len(events):
                    break

    def run(self, until: Optional[float] = None) -> Any:
        """Run the simulation.

        ``until=None`` runs to calendar exhaustion; a number runs until
        that simulated time (the clock is advanced exactly to ``until``).
        A process may also end the run early by calling :meth:`stop`,
        whose value is then returned.

        Horizon contract (pinned — quantum stepping depends on it):

        * An event scheduled **exactly at** ``until`` fires inside this
          call, and so does any zero-delay cascade it triggers at the
          same instant; only events strictly *later* than ``until``
          survive on the calendar (``peek() > until`` afterwards).
        * The clock reads exactly ``until`` when the call returns, even
          if the calendar emptied earlier (or was empty throughout).

        Together these make horizon stepping *exact*: running to ``h1``
        and then to ``h2`` is indistinguishable from one run to ``h2``.
        :class:`~repro.simkernel.sharded.ShardedSimulation` advances
        every shard in bounded quanta on the strength of this — a
        coincident event must never fire twice, be skipped, or slide
        into the next quantum.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} lies in the past (now={self._now})")
        try:
            self._dispatch(float("inf") if until is None else until, None)
        except StopSimulation as stop:
            return stop.value
        if until is not None:
            self._now = max(self._now, until)
        return None

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` has been processed; return its value.

        Raises ``RuntimeError`` if the calendar empties (or ``limit`` is
        reached) first — that means the event can never trigger.
        """
        if not event.processed:
            # Mark the event observed so a failure is delivered to us
            # (below) rather than raised as an unhandled failure.
            event.callbacks.append(lambda _evt: None)
            self._dispatch(limit, event)
            if not event.processed:
                raise RuntimeError(f"{event!r} cannot trigger before {limit}")
        if not event.ok:
            raise event.value
        return event.value

    def stop(self, value: Any = None) -> None:
        """End :meth:`run` immediately, making it return ``value``."""
        raise StopSimulation(value)

    def __repr__(self) -> str:
        return (
            f"<Simulation now={self._now:.6f} pending={self._pending} "
            f"processed={self.events_processed}>"
        )
