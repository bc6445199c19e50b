"""A libvirt-style management facade (§7.7).

The paper argues HERE fits existing data centers because tools like
OpenStack already manage heterogeneous hypervisors through libvirt.
:class:`VirtConnection` mimics that surface: connection URIs per host,
domain definition from declarative specs, lookup and lifecycle — so
operators integrate HERE the way they integrate everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hardware.host import Host
from ..hardware.units import GIB
from ..hypervisor import registry
from ..hypervisor.base import Hypervisor
from ..vm.machine import VirtualMachine


@dataclass
class DomainSpec:
    """Declarative guest description (a libvirt XML stand-in)."""

    name: str
    vcpus: int = 4
    memory_gib: float = 8.0
    seed: int = 0

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gib * GIB)


class VirtConnection:
    """Management connection to one hypervisor host."""

    def __init__(self, uri: str, hypervisor: Hypervisor):
        self.uri = uri
        self.hypervisor = hypervisor

    # -- domain lifecycle ------------------------------------------------------
    def define_domain(self, spec: DomainSpec) -> VirtualMachine:
        """Create a guest from a spec (defined but not started)."""
        return self.hypervisor.create_vm(
            spec.name,
            vcpus=spec.vcpus,
            memory_bytes=spec.memory_bytes,
            seed=spec.seed,
        )

    def start_domain(self, name: str) -> VirtualMachine:
        vm = self.hypervisor.get_vm(name)
        vm.start()
        return vm

    def destroy_domain(self, name: str) -> None:
        self.hypervisor.destroy_vm(name)

    def list_domains(self) -> List[str]:
        return sorted(self.hypervisor.vms)

    # -- host info ------------------------------------------------------------
    def host_info(self) -> dict:
        host = self.hypervisor.host
        return {
            "hostname": host.name,
            "hypervisor": self.hypervisor.product,
            "version": self.hypervisor.version,
            "cpu_model": host.cpu.name,
            "cores": host.cpu.cores,
            "memory_bytes": host.memory.total_bytes,
            "state": self.hypervisor.state.value,
        }


class VirtManager:
    """Connects to every hypervisor host in a data center."""

    def __init__(self, sim):
        self.sim = sim
        self._connections: Dict[str, VirtConnection] = {}

    def provision_host(
        self, host: Host, flavor: str, **hypervisor_kwargs
    ) -> VirtConnection:
        """Install a hypervisor on a bare host and connect to it."""
        hypervisor = registry.install(
            flavor, self.sim, host, **hypervisor_kwargs
        )
        return self.connect_existing(hypervisor)

    def connect_existing(self, hypervisor: Hypervisor) -> VirtConnection:
        """Open a connection to an already-installed hypervisor."""
        uri = f"{hypervisor.flavor}://{hypervisor.host.name}/system"
        if uri in self._connections:
            raise ValueError(f"already connected to {uri}")
        connection = VirtConnection(uri, hypervisor)
        self._connections[uri] = connection
        return connection

    def connection(self, uri: str) -> VirtConnection:
        try:
            return self._connections[uri]
        except KeyError:
            raise KeyError(
                f"no connection {uri!r}; open ones: {self.list_uris()}"
            ) from None

    def list_uris(self) -> List[str]:
        return sorted(self._connections)

    def heterogeneous_pairs(self) -> List[tuple]:
        """(primary_uri, secondary_uri) pairs with differing flavors.

        The deployment planner's view: which host pairs can form a
        heterogeneous replication pair.
        """
        uris = self.list_uris()
        pairs = []
        for i, first in enumerate(uris):
            for second in uris[i + 1:]:
                a = self._connections[first].hypervisor
                b = self._connections[second].hypervisor
                if a.flavor != b.flavor:
                    pairs.append((first, second))
        return pairs
