"""Deterministic discrete-event simulation kernel.

The kernel underpins every simulated subsystem in this repository
(hardware, hypervisors, networks, workloads).  Public surface:

* :class:`Simulation` — the clock and calendar; create one per experiment.
* :class:`ShardedSimulation` — many per-pair shard calendars advanced in
  lockstep quanta under one fleet clock (fleet-scale runs).
* :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` —
  waitable occurrences.
* :class:`Process` — generator-backed concurrent activities.
* :class:`Gate` — a reusable open/closed barrier.
* :class:`Interrupt` — delivered by ``process.interrupt()``.
* :class:`RandomRegistry` and the YCSB generators — deterministic chance.

Example
-------
>>> from repro.simkernel import Simulation
>>> sim = Simulation(seed=42)
>>> log = []
>>> def worker(sim, label, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, label))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from .core import PRIORITY_NORMAL, PRIORITY_URGENT, Simulation
from .errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopSimulation,
    UnhandledEventFailure,
)
from .events import AllOf, AnyOf, Event, Timeout
from .processes import Process
from .random import (
    RandomRegistry,
    ScrambledZipfian,
    ZipfianGenerator,
    derive_seed,
    fnv1a_64,
    largest_remainder_allocation,
)
from .resources import Gate
from .sharded import ShardedSimulation

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventAlreadyTriggered",
    "Gate",
    "Interrupt",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "RandomRegistry",
    "ScrambledZipfian",
    "ShardedSimulation",
    "Simulation",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "UnhandledEventFailure",
    "ZipfianGenerator",
    "derive_seed",
    "fnv1a_64",
    "largest_remainder_allocation",
]
