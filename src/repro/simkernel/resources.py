"""Shared resources for simulation processes.

:class:`Gate` is a reusable open/closed barrier (e.g. "VM is running"),
cheaper than churning one-shot events for frequently-toggled state.
"""

from __future__ import annotations

from typing import List

from .events import Event


class Gate:
    """A reusable open/closed barrier.

    ``wait_open()`` returns an event that succeeds immediately when the
    gate is open, or once :meth:`open` is next called.  Used to model VM
    pause/resume: workload processes wait on the "running" gate.
    """

    def __init__(self, sim, is_open: bool = True, name: str = ""):
        self.sim = sim
        self.name = name
        self._open = is_open
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        """Open the gate, releasing every waiter."""
        if self._open:
            return
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed(None)

    def close(self) -> None:
        """Close the gate; subsequent waiters block until reopened."""
        self._open = False

    def wait_open(self) -> Event:
        """Event succeeding when the gate is (or becomes) open."""
        event = Event(self.sim, name=f"gate:{self.name}")
        if self._open:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def __repr__(self) -> str:
        state = "open" if self._open else f"closed({len(self._waiters)} waiting)"
        return f"<Gate {self.name!r} {state}>"
