"""The simulated Xen hypervisor.

Xen is a type-1 hypervisor: a small hypervisor core plus a privileged
``Dom0`` Linux VM hosting the toolstack and PV device backends (§3.2).
Our model reserves Dom0 memory on the host, exposes Xen's state format,
and — when built with HERE's patches — provides the per-vCPU PML dirty
rings of §7.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ...hardware.host import Host
from ...hardware.units import GIB
from ...vm.machine import VirtualMachine
from ..base import Hypervisor
from ..features import XEN_FEATURES
from . import formats


@dataclass
class Dom0:
    """The privileged control domain."""

    memory_bytes: int = 10 * GIB
    vcpus: int = 8
    kernel: str = "Linux 4.19 (Debian 10)"


class XenHypervisor(Hypervisor):
    """Xen 4.12 with (optionally) HERE's kernel patches applied."""

    flavor = "xen"
    product = "Xen"
    version = "4.12"
    components = (
        "hypervisor-core",
        "dom0",
        "toolstack",
        "hypercall",
        "vcpu-mgmt",
        "shadow-paging",
        "vmexit",
        "device-emulated",
        "device-pv",
        "device-passthrough",
        "xenstore",
    )
    #: Xen HVM guests get their emulated device models from QEMU — a
    #: lineage shared with QEMU-KVM, which is why HERE pairs Xen with
    #: kvmtool rather than QEMU on the KVM side (§8.2).
    device_model_lineage = "qemu"
    formats = formats

    def __init__(self, sim, host: Host, here_patches: bool = True):
        super().__init__(sim, host)
        self.dom0 = Dom0()
        host.memory_pool.allocate("dom0", self.dom0.memory_bytes)
        #: Whether HERE's ~800-line Xen kernel patch (per-vCPU PML
        #: rings + multithreaded migration hooks) is present.
        self.here_patches = here_patches

    # -- feature surface ----------------------------------------------------
    def cpuid_features(self) -> FrozenSet[str]:
        return XEN_FEATURES

    # -- dirty tracking -------------------------------------------------------
    def supports_per_vcpu_dirty_rings(self) -> bool:
        return self.here_patches

    # -- failover -----------------------------------------------------------
    def activate_replica(self, vm: VirtualMachine):
        """Start a replica through the xl/libxl restore path.

        Slower than kvmtool's (Fig. 7's ~10 ms is credited to the
        light kvmtool userspace); used when the secondary is Xen
        (e.g. the Remus baseline or a KVM→Xen deployment).
        """
        self._check_responsive()
        yield self.sim.timeout(
            self.operation_delay(
                self.host.cost_model.xen_replica_activation_time
            )
        )
        vm.start()
        if vm.device_flavor != self.flavor:
            switch = self.sim.process(
                vm.guest_agent.switch_device_models(self.flavor),
                name=f"devswitch:{vm.name}",
            )
            yield switch
        return vm
