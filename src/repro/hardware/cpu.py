"""CPU models and CPU-time accounting.

The evaluation machines in the paper carry two Intel Xeon Gold 6130
packages (16 cores / 32 threads each).  For the simulation we only need
(a) a core inventory for placement decisions and (b) an accounting
surface so we can answer the paper's §8.7 question — how much host CPU
the replication engine's threads burn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class CpuModel:
    """Static description of a host CPU complex."""

    name: str = "Intel Xeon Gold 6130"
    sockets: int = 2
    cores_per_socket: int = 16
    threads_per_core: int = 2
    base_clock_ghz: float = 2.1

    @property
    def cores(self) -> int:
        """Total physical cores."""
        return self.sockets * self.cores_per_socket


class CpuAccounting:
    """Tracks simulated CPU-seconds consumed per named component.

    Components call :meth:`charge` whenever they model work that would
    occupy a host core (page scans, copies, compression, protocol
    handling).  The §8.7 overhead benchmark reads utilisation back out:
    ``62 %`` in the paper means 0.62 core-seconds consumed per elapsed
    second.
    """

    def __init__(self, sim, owner: str = ""):
        self.sim = sim
        #: Host (or other scope) the accounting belongs to; becomes the
        #: ``owner`` attribute on emitted telemetry records.
        self.owner = owner
        self._busy: Dict[str, float] = {}
        #: Timestamped charge log per component: [(time, cpu_seconds)].
        self._charges: Dict[str, list] = {}

    def charge(self, component: str, cpu_seconds: float) -> None:
        """Record ``cpu_seconds`` of core time burnt by ``component``."""
        if cpu_seconds < 0:
            raise ValueError(f"negative CPU charge: {cpu_seconds}")
        self._busy[component] = self._busy.get(component, 0.0) + cpu_seconds
        self._charges.setdefault(component, []).append(
            (self.sim.now, cpu_seconds)
        )
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter(
                "host.cpu.charge",
                cpu_seconds,
                component=component,
                owner=self.owner,
            )

    def total(self, component: str) -> float:
        """Total CPU-seconds charged to ``component`` since creation."""
        return self._busy.get(component, 0.0)

    def utilisation(self, component: str, since: float = 0.0) -> float:
        """Average core-utilisation of ``component`` over ``[since, now]``.

        1.0 == one fully-loaded core; values above 1.0 mean more than
        one core's worth of work (multithreaded components).  Charges
        are attributed to the instant they were recorded.
        """
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        busy = sum(
            amount
            for when, amount in self._charges.get(component, [])
            if when >= since
        )
        return busy / elapsed

    def components(self):
        """Names of every component that has been charged."""
        return sorted(self._busy)


@dataclass
class MemoryAccounting:
    """Resident-set bookkeeping for host-side engines (paper §8.7).

    The replication engine registers the buffers it holds (staging
    areas, PML ring mirrors, egress queues); ``resident_bytes`` is then
    the simulated RSS of the engine process.
    """

    _allocations: Dict[str, int] = field(default_factory=dict)
    #: Optional telemetry bus; every allocation change emits a gauge of
    #: the new resident size when a bus is attached and enabled.
    bus: Optional[object] = None
    owner: str = ""

    def allocate(self, label: str, nbytes: int) -> None:
        """Register (or resize) a named allocation."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        self._allocations[label] = nbytes
        self._emit(label)

    def free(self, label: str) -> None:
        """Drop a named allocation (missing labels are ignored)."""
        self._allocations.pop(label, None)
        self._emit(label)

    def _emit(self, label: str) -> None:
        if self.bus is not None and self.bus.enabled:
            self.bus.gauge(
                "host.memory.resident",
                float(self.resident_bytes),
                owner=self.owner,
                label=label,
            )

    @property
    def resident_bytes(self) -> int:
        """Sum of all live allocations."""
        return sum(self._allocations.values())

    def breakdown(self) -> Dict[str, int]:
        """Copy of the per-label allocation map."""
        return dict(self._allocations)
