"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence living on a
:class:`~repro.simkernel.core.Simulation` timeline.  Processes (see
:mod:`repro.simkernel.processes`) ``yield`` events to suspend themselves
until the event *triggers* — either successfully (carrying a value) or
with a failure (carrying an exception, which is re-raised inside every
waiting process).

The module also provides composite events (:class:`AllOf`,
:class:`AnyOf`) and the ubiquitous :class:`Timeout`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from .errors import EventAlreadyTriggered

#: Sentinel for "no value set yet"; ``None`` is a legitimate event value.
_UNSET = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Life cycle::

        pending --succeed(value)--> succeeded (ok=True)
                --fail(exc)-------> failed    (ok=False)

    Once triggered, the event is scheduled on the simulation calendar at
    the current simulated time and its callbacks run in FIFO order when
    the calendar reaches it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "name")

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has left the calendar)."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is _UNSET:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful, delivering ``value`` to waiters.

        ``delay`` postpones *processing* by the given amount of simulated
        time (the trigger itself is immediate and final).
        """
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; ``exception`` is raised in each waiter."""
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # The slots of Event.__init__, set directly (hot path).
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self.name = ""
        self.delay = delay
        sim._schedule(self, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`.

    The condition's value is a dict mapping each *triggered* child event
    to its value, in trigger order.  A failing child fails the whole
    condition immediately.
    """

    __slots__ = ("events", "_results", "_pending_count")

    def __init__(self, sim, events: Iterable[Event]):
        # The slots of Event.__init__, set directly (hot path).
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = None
        self._scheduled = False
        self.name = ""
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("conditions cannot mix simulations")
        self._results = {}
        self._pending_count = len(self.events)
        if not self.events:
            # Empty conditions are vacuously satisfied.
            self.succeed({})
            return
        child_done = self._child_done
        for event in self.events:
            if event.callbacks is None:
                child_done(event)
            else:
                event.callbacks.append(child_done)

    def _child_done(self, event: Event) -> None:
        if self._value is not _UNSET:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._results[event] = event._value
        self._pending_count -= 1
        if self._satisfied():
            # Snapshot results of all already-triggered children.
            self.succeed(dict(self._results))

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *every* child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending_count == 0


class AnyOf(_Condition):
    """Succeeds as soon as *any* child event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._results) >= 1
