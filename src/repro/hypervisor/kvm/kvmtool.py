"""The kvmtool userspace component.

kvmtool (``lkvm``) is a deliberately small KVM userspace — no QEMU
device-model lineage, tiny startup path.  The paper attributes the
~10 ms replica resumption time (Fig. 7) mostly to "the more efficient
userspace component kvmtool"; this module models that activation path.
"""

from __future__ import annotations

from typing import List, Tuple

from ...vm.machine import VirtualMachine


class KvmtoolUserspace:
    """Timed userspace operations of the KVM side."""

    def __init__(self, hypervisor):
        self.hypervisor = hypervisor
        self.command_log: List[Tuple[float, str, str]] = []

    def _log(self, command: str, argument: str) -> None:
        self.command_log.append((self.hypervisor.sim.now, command, argument))

    def activate_replica(self, vm: VirtualMachine):
        """Generator: start executing the replica (failover moment).

        Cost is the kvmtool activation constant — flat in memory size
        and load level, as Fig. 7 reports — plus the guest agent's
        device-model switch.
        """
        hypervisor = self.hypervisor
        hypervisor._check_responsive()
        self._log("activate-replica", vm.name)
        yield hypervisor.sim.timeout(
            hypervisor.operation_delay(
                hypervisor.host.cost_model.replica_activation_time
            )
        )
        vm.start()
        # Swap the guest's devices from the primary hypervisor's models
        # to ours (heterogeneous device model strategy, §7.3).
        if vm.device_flavor != hypervisor.flavor:
            switch = hypervisor.sim.process(
                vm.guest_agent.switch_device_models(hypervisor.flavor),
                name=f"devswitch:{vm.name}",
            )
            yield switch
        return vm
