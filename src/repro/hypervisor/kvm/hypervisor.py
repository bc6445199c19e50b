"""The simulated Linux KVM hypervisor with kvmtool userspace.

KVM is a type-2-style hypervisor: a kernel module turning Linux into
the hypervisor, driven by a userspace VMM.  HERE pairs it with kvmtool
(not QEMU) precisely so the two replication sides share no device-model
code — and therefore no device-model vulnerabilities (§8.2).
"""

from __future__ import annotations

from typing import FrozenSet

from ...hardware.host import Host
from ...vm.machine import VirtualMachine
from ..base import Hypervisor
from ..features import KVM_FEATURES
from . import formats
from .kvmtool import KvmtoolUserspace


class KvmHypervisor(Hypervisor):
    """Linux KVM + kvmtool, the heterogeneous secondary of the paper."""

    flavor = "kvm"
    product = "Linux KVM"
    version = "5.10/kvmtool"
    components = (
        "kvm-module",
        "kvmtool",
        "ioctl-surface",
        "vcpu-mgmt",
        "mmu",
        "irqchip",
        "device-virtio",
        "vhost",
    )
    device_model_lineage = "kvmtool"
    formats = formats

    def __init__(self, sim, host: Host):
        super().__init__(sim, host)
        self.userspace = KvmtoolUserspace(self)

    # -- feature surface ----------------------------------------------------
    def cpuid_features(self) -> FrozenSet[str]:
        return KVM_FEATURES

    # -- dirty tracking -------------------------------------------------------
    def supports_per_vcpu_dirty_rings(self) -> bool:
        # KVM's dirty-ring interface is per-vCPU by design; the replica
        # side does not need it for replication, but reverse protection
        # (KVM -> Xen) can use it.
        return True

    # -- failover -----------------------------------------------------------
    def activate_replica(self, vm: VirtualMachine):
        """Start a replica through kvmtool's fast activation path."""
        result = yield from self.userspace.activate_replica(vm)
        return result
