"""Host physical memory description (size + NUMA layout)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .units import GIB, PAGE_SIZE


@dataclass(frozen=True)
class MemorySpec:
    """Static description of a host's physical memory.

    The paper's testbed machines carry 192 GB split over two NUMA nodes
    (96 GB each); Dom0 reserves 10 GB on the Xen hosts.
    """

    total_bytes: int = 192 * GIB
    numa_nodes: int = 2
    reserved_bytes: int = 0

    def __post_init__(self):
        if self.total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive: {self.total_bytes}")
        if self.numa_nodes < 1:
            raise ValueError(f"numa_nodes must be >= 1: {self.numa_nodes}")
        if not 0 <= self.reserved_bytes <= self.total_bytes:
            raise ValueError(
                f"reserved_bytes {self.reserved_bytes} outside "
                f"[0, {self.total_bytes}]"
            )

    @property
    def usable_bytes(self) -> int:
        """Memory available to guest VMs after host reservations."""
        return self.total_bytes - self.reserved_bytes

    @property
    def total_pages(self) -> int:
        """Total 4 KiB page frames."""
        return self.total_bytes // PAGE_SIZE


class MemoryPool:
    """Tracks guest memory allocations out of a :class:`MemorySpec`.

    When a telemetry ``bus`` is attached, every allocation change emits
    a ``host.memory.pool`` gauge of the allocated total (attrs: the
    owning host and the guest whose allocation moved).
    """

    def __init__(self, spec: MemorySpec, bus=None, owner: str = ""):
        self.spec = spec
        self.bus = bus
        self.owner = owner
        self._allocations: dict = {}

    def _emit(self, guest: str) -> None:
        if self.bus is not None and self.bus.enabled:
            self.bus.gauge(
                "host.memory.pool",
                float(self.allocated_bytes),
                owner=self.owner,
                guest=guest,
            )

    @property
    def allocated_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.spec.usable_bytes - self.allocated_bytes

    def allocate(self, owner: str, nbytes: int) -> None:
        """Reserve ``nbytes`` for ``owner``; raises MemoryError if full."""
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive: {nbytes}")
        if owner in self._allocations:
            raise ValueError(f"{owner!r} already holds an allocation")
        if nbytes > self.free_bytes:
            raise MemoryError(
                f"cannot allocate {nbytes} bytes for {owner!r}: "
                f"only {self.free_bytes} free"
            )
        self._allocations[owner] = nbytes
        self._emit(owner)

    def release(self, owner: str) -> int:
        """Free ``owner``'s allocation, returning its size."""
        try:
            released = self._allocations.pop(owner)
        except KeyError:
            raise KeyError(f"{owner!r} holds no allocation") from None
        self._emit(owner)
        return released

    def owners(self) -> Tuple[str, ...]:
        return tuple(sorted(self._allocations))
