"""Generator-backed simulation processes.

A *process* is a Python generator that ``yield``\\ s
:class:`~repro.simkernel.events.Event` objects.  Yielding suspends the
process until the event triggers; a successful event resumes the
generator with ``event.value`` as the result of the ``yield``
expression, while a failed event re-raises the failure inside the
generator (where it may be caught).

A :class:`Process` is itself an event: it succeeds with the generator's
return value, or fails with any exception that escapes the generator.
This lets processes wait on each other (fork/join) with plain ``yield``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..telemetry import NULL_SPAN
from .errors import Interrupt, SimulationError, StopSimulation
from .events import Event

#: Priority used for "urgent" bookkeeping events (process start,
#: interrupts, re-waits) that must run before normal events scheduled
#: at the same instant.  Defined here rather than in ``core`` (which
#: imports this module) so no call imports it at run time: a process
#: interrupted by a generator's cleanup at interpreter exit would find
#: the import machinery gone.
PRIORITY_URGENT = 0


class Process(Event):
    """Drives a generator along the simulation timeline."""

    __slots__ = ("_generator", "_waiting_on", "_telemetry_span")

    def __init__(self, sim, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        # Per-process runtime span (creation -> completion).  Dense, so
        # only emitted under the bus's kernel-events opt-in; the null
        # span costs one no-op call at completion otherwise.
        if sim.telemetry.kernel_enabled:
            self._telemetry_span = sim.telemetry.span(
                "sim.process", process=self.name
            )
        else:
            self._telemetry_span = NULL_SPAN
        #: The event this process is currently suspended on (None when
        #: running or finished).
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current instant, ahead of normal
        # events scheduled for the same time.
        start = Event(sim, name=f"start:{self.name}")
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        sim._schedule(start, 0.0, PRIORITY_URGENT)

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes collapses into the latest cause.
        The event the process was waiting on remains pending — the
        process may re-wait on it after handling the interrupt.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        wrapper = Event(self.sim, name=f"interrupt:{self.name}")
        wrapper._ok = False
        wrapper._value = Interrupt(cause)
        wrapper.callbacks.append(self._deliver_interrupt)
        self.sim._schedule(wrapper, 0.0, PRIORITY_URGENT)

    def _deliver_interrupt(self, wrapper: Event) -> None:
        if self.triggered:
            # The process finished in between scheduling and delivery;
            # the interrupt is moot.
            return
        # Detach from whatever we were waiting on so a later trigger of
        # that event does not resume us twice.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(wrapper)

    # -- generator driving ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Send ``event``'s outcome into the generator; wait on its next yield."""
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as exit_:
            self._telemetry_span.end(outcome="ok")
            self.succeed(exit_.value)
            return
        except StopSimulation:
            raise
        except BaseException as error:
            self._telemetry_span.end(outcome="failed", error=str(error))
            self.fail(error)
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield events"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulation"))
            return
        if target.processed:
            # Already-processed events resume immediately (urgently) so
            # waiting on a done event is free and safe.
            self._waiting_on = target
            wrapper = Event(self.sim, name=f"rewait:{self.name}")
            wrapper._ok = target._ok
            wrapper._value = target._value
            wrapper.callbacks.append(self._resume)
            self.sim._schedule(wrapper, 0.0, PRIORITY_URGENT)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"
