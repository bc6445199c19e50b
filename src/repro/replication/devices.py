"""The device manager (§5.2, §7.3).

Host-side component owning the I/O aspects of replication for one
protected VM:

* **admission** — rejects device configurations that cannot be
  replicated (passthrough devices have no back-trackable state);
* **output commit** — owns the VM's egress buffer, sealing an epoch at
  every checkpoint and releasing it on acknowledgement;
* **heterogeneous device switch** — on failover, instructs the guest
  agent to unplug the primary hypervisor's device models and install
  the secondary's.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.egress import EgressBuffer
from ..net.packet import Packet
from ..vm.devices import ReplicationUnsupported
from ..vm.machine import VirtualMachine
from .storage import DiskReplicator


class DeviceManager:
    """Per-protected-VM device-level replication logic."""

    def __init__(self, sim, vm: VirtualMachine, egress: Optional[EgressBuffer] = None):
        self.sim = sim
        self.vm = vm
        self.egress = egress if egress is not None else EgressBuffer(
            sim, name=f"egress:{vm.name}"
        )
        #: Disk-write replication channel (Remus-style speculative
        #: buffering on the secondary; see replication.storage).
        self.disk = DiskReplicator(sim, name=f"disk:{vm.name}")
        self._admitted = False

    # -- admission ----------------------------------------------------------
    def admit(self) -> None:
        """Verify every device of the VM can take part in replication.

        Raises :class:`~repro.vm.devices.ReplicationUnsupported` for
        passthrough devices, as HERE does (§7.3).
        """
        self.vm.replicable_devices()
        self._admitted = True

    @property
    def admitted(self) -> bool:
        return self._admitted

    # -- output commit ---------------------------------------------------------
    def begin_protection(self) -> None:
        """Start buffering all outgoing traffic (replication active)."""
        if not self._admitted:
            raise ReplicationUnsupported(
                f"VM {self.vm.name!r} was not admitted for replication"
            )
        self.egress.enable_buffering()
        self.vm.disk_replicator = self.disk
        self.sim.telemetry.counter(
            "devices.protection_started", 1.0, vm=self.vm.name
        )

    def end_protection(self) -> None:
        """Stop buffering (replication cleanly stopped)."""
        self.egress.disable_buffering()
        self.vm.disk_replicator = None
        self.sim.telemetry.counter(
            "devices.protection_ended", 1.0, vm=self.vm.name
        )

    def seal_epoch(self) -> int:
        """Checkpoint starting: close the open traffic + disk epochs.

        Network and disk share one epoch numbering — the commit barrier
        is the same checkpoint acknowledgement.
        """
        epoch = self.egress.seal_epoch()
        disk_epoch = self.disk.barrier()
        if disk_epoch != epoch:
            raise RuntimeError(
                f"egress epoch {epoch} and disk epoch {disk_epoch} "
                "desynchronised"
            )
        self.sim.telemetry.counter(
            "devices.epoch_sealed", 1.0, vm=self.vm.name, epoch=epoch
        )
        return epoch

    def release_epoch(self, epoch: int) -> List[Packet]:
        """Checkpoint acked: release traffic and commit disk writes."""
        self.disk.commit_through(epoch)
        released = self.egress.release_through(epoch)
        self.sim.telemetry.counter(
            "devices.packets_released",
            float(len(released)),
            vm=self.vm.name,
            epoch=epoch,
        )
        return released

    def discard_unreleased(self) -> List[Packet]:
        """Primary failed: unacknowledged output must never be seen,
        and speculative disk writes must never hit the replica image."""
        self.disk.discard_speculative()
        dropped = self.egress.drop_unreleased()
        self.sim.telemetry.counter(
            "devices.packets_dropped", float(len(dropped)), vm=self.vm.name
        )
        return dropped
