"""The ``xl``-style Xen toolstack.

Xen administration flows through a userspace toolstack living in Dom0
(``xl``/``libxl``/``libxc``).  HERE's userspace changes live here in
the real system; in the simulation the toolstack provides the timed,
logged command surface that the migration and replication engines
drive, and is also a component of the attack surface ("Tools" in the
paper's Table 5 analysis).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Base latency of a trivial toolstack command (fork xl, connect to
#: the daemon, issue the libxl call).
COMMAND_BASE_LATENCY = 2e-3
#: Extra latency for commands that pause/unpause all vCPUs.
VCPU_SYNC_LATENCY = 0.4e-3


class XlToolstack:
    """Timed command interface to a :class:`XenHypervisor`."""

    def __init__(self, hypervisor):
        self.hypervisor = hypervisor
        #: Audit trail of (time, command, argument) triples.
        self.command_log: List[Tuple[float, str, str]] = []

    def _log(self, command: str, argument: str) -> None:
        self.command_log.append((self.hypervisor.sim.now, command, argument))

    def _delay(self, base: float):
        return self.hypervisor.sim.timeout(self.hypervisor.operation_delay(base))

    # Each command is a generator to be run under a simulation process.
    def pause(self, vm_name: str):
        """``xl pause`` — stop all vCPUs of the guest."""
        hypervisor = self.hypervisor
        hypervisor._check_responsive()
        vm = hypervisor.get_vm(vm_name)
        self._log("pause", vm_name)
        yield self._delay(VCPU_SYNC_LATENCY)
        vm.pause()

    def unpause(self, vm_name: str):
        """``xl unpause`` — resume all vCPUs of the guest."""
        hypervisor = self.hypervisor
        hypervisor._check_responsive()
        vm = hypervisor.get_vm(vm_name)
        self._log("unpause", vm_name)
        yield self._delay(VCPU_SYNC_LATENCY)
        vm.resume()

    def create(
        self,
        vm_name: str,
        vcpus: int,
        memory_bytes: int,
        seed: int = 0,
        features: Optional[frozenset] = None,
    ):
        """``xl create`` — build and start a new guest."""
        hypervisor = self.hypervisor
        self._log("create", vm_name)
        yield self._delay(COMMAND_BASE_LATENCY)
        vm = hypervisor.create_vm(
            vm_name,
            vcpus=vcpus,
            memory_bytes=memory_bytes,
            seed=seed,
            features=features,
        )
        vm.start()
        return vm

    def destroy(self, vm_name: str):
        """``xl destroy`` — tear down a guest."""
        hypervisor = self.hypervisor
        self._log("destroy", vm_name)
        yield self._delay(COMMAND_BASE_LATENCY)
        hypervisor.destroy_vm(vm_name)

