"""The guest virtual machine model.

A :class:`VirtualMachine` owns the guest-visible state that replication
must capture and restore: vCPU architectural states, page-granular
memory (tracked at chunk granularity, see :mod:`repro.vm.dirty`),
virtual devices, and a tiny in-guest agent (the paper's 150-line guest
kernel module) that reacts to migration/failover events.

Workloads (see :mod:`repro.workloads`) execute *inside* a VM: they make
progress only while the VM runs, and report memory writes through
:meth:`VirtualMachine.touch_spread`, which feeds dirty tracking.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hardware.units import CHUNK_SIZE, PAGE_SIZE, chunks_for, pages_for
from ..simkernel.resources import Gate
from .devices import VirtualDevice, standard_pv_devices
from .dirty import DirtyLog, DirtySnapshot, PmlRing
from .vcpu import VcpuArchState, sample_running_state


class VmLifecycleError(Exception):
    """Invalid lifecycle transition (e.g. resuming a destroyed VM)."""


class VirtualMachine:
    """A guest VM: vCPUs, memory, devices, and execution accounting."""

    def __init__(
        self,
        sim,
        name: str,
        vcpus: int = 4,
        memory_bytes: int = 8 * 1024**3,
        device_flavor: str = "xen",
        seed: int = 0,
        pml_ring_capacity: int = 1_000_000,
    ):
        if vcpus < 1:
            raise ValueError(f"vcpus must be >= 1, got {vcpus}")
        if memory_bytes < CHUNK_SIZE:
            raise ValueError(
                f"memory must be at least one chunk ({CHUNK_SIZE} bytes), "
                f"got {memory_bytes}"
            )
        self.sim = sim
        self.name = name
        self.vcpu_count = vcpus
        self.memory_bytes = memory_bytes
        self.total_pages = pages_for(memory_bytes)
        self.n_chunks = chunks_for(memory_bytes)
        self.pages_per_chunk = CHUNK_SIZE // PAGE_SIZE
        self._vcpu_seed = seed
        self._vcpu_states: Optional[List[VcpuArchState]] = None
        self.devices: List[VirtualDevice] = standard_pv_devices(device_flavor)
        self.device_flavor = device_flavor
        self.dirty_log = DirtyLog(self.n_chunks, self.pages_per_chunk)
        self.pml_rings: Dict[int, PmlRing] = {
            i: PmlRing(i, capacity_entries=pml_ring_capacity)
            for i in range(vcpus)
        }
        #: Pre-copy passes with dirty logging armed.  The PML rings log
        #: only while this is positive: hardware PML is enabled only in
        #: log-dirty mode (DESIGN §15, "PML logging only in log-dirty
        #: mode").
        self._dirty_logging = 0
        #: Open while the VM executes; workloads wait on it when paused.
        self.running_gate = Gate(sim, is_open=False, name=f"run:{name}")
        self._started = False
        self._destroyed = False
        #: True once the *guest OS itself* has failed (kernel panic,
        #: fork bomb, …).  The VM keeps "running" at the hypervisor
        #: level, but serves nothing — and replication faithfully
        #: copies the broken state (Table 2's uncovered rows).
        self.guest_os_failed = False
        self._paused_at: Optional[float] = None
        self._started_at: Optional[float] = None
        self.total_paused_time = 0.0
        self.pause_count = 0
        #: Attached workloads (for reporting; workloads register here).
        self.workloads: List = []
        #: The in-guest agent handling device switch events.
        self.guest_agent = None  # set by GuestAgent.__init__
        #: Disk replication channel, attached by the device manager
        #: when the VM is protected; None means writes stay local.
        self.disk_replicator = None
        self.disk_bytes_written = 0
        self._disk_write_cursor = 0

    @property
    def vcpu_states(self) -> List[VcpuArchState]:
        """The vCPU architectural states.

        Sampled on first read: a replica shell whose first
        :meth:`~repro.hypervisor.base.Hypervisor.load_guest_state`
        replaces them never draws them.  Each state comes from its own
        ``(seed, index)`` RNG, so when they are drawn moves no other
        stream.
        """
        states = self._vcpu_states
        if states is None:
            states = self._vcpu_states = [
                sample_running_state(i, seed=self._vcpu_seed)
                for i in range(self.vcpu_count)
            ]
        return states

    @vcpu_states.setter
    def vcpu_states(self, states: List[VcpuArchState]) -> None:
        self._vcpu_states = states

    # -- lifecycle ----------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return (
            self._started
            and not self._destroyed
            and self.running_gate.is_open
        )

    @property
    def is_paused(self) -> bool:
        return self._started and not self._destroyed and not self.running_gate.is_open

    @property
    def is_destroyed(self) -> bool:
        return self._destroyed

    def start(self) -> None:
        """Begin guest execution (power on / unpause at boot)."""
        if self._destroyed:
            raise VmLifecycleError(f"VM {self.name!r} is destroyed")
        if self._started:
            raise VmLifecycleError(f"VM {self.name!r} already started")
        self._started = True
        self._started_at = self.sim.now
        self.running_gate.open()

    def pause(self) -> None:
        """Suspend guest execution (checkpoint stop phase)."""
        self._check_alive()
        if self._paused_at is not None:
            raise VmLifecycleError(f"VM {self.name!r} already paused")
        self._paused_at = self.sim.now
        self.pause_count += 1
        self.running_gate.close()

    def resume(self) -> None:
        """Resume guest execution after a pause."""
        self._check_alive()
        if self._paused_at is None:
            raise VmLifecycleError(f"VM {self.name!r} is not paused")
        self.total_paused_time += self.sim.now - self._paused_at
        self._paused_at = None
        self.running_gate.open()

    def destroy(self) -> None:
        """Tear the VM down (host failure or explicit shutdown)."""
        if self._destroyed:
            return
        if self._paused_at is not None:
            self.total_paused_time += self.sim.now - self._paused_at
            self._paused_at = None
        self._destroyed = True
        self.running_gate.close()

    def guest_os_crash(self, reason: str = "guest kernel panic") -> None:
        """The guest OS fails from within (self-inflicted failure).

        Unlike :meth:`destroy`, the VM object survives and the
        hypervisor still schedules it — there is simply no healthy OS
        inside.  Replication checkpoints taken after this point carry
        the failed state to the replica.
        """
        del reason  # recorded by callers that care
        self.guest_os_failed = True

    def _check_alive(self) -> None:
        if not self._started:
            raise VmLifecycleError(f"VM {self.name!r} not started")
        if self._destroyed:
            raise VmLifecycleError(f"VM {self.name!r} is destroyed")

    # -- execution accounting -------------------------------------------------
    def elapsed_time(self) -> float:
        """Wall time since the VM started."""
        if self._started_at is None:
            return 0.0
        return self.sim.now - self._started_at

    def paused_time(self) -> float:
        """Total time spent paused, including an ongoing pause."""
        ongoing = (
            self.sim.now - self._paused_at if self._paused_at is not None else 0.0
        )
        return self.total_paused_time + ongoing

    def running_time(self) -> float:
        """Total time spent executing."""
        return self.elapsed_time() - self.paused_time()

    def degradation(self) -> float:
        """Lifetime fraction of time lost to pauses, t/(t+T) aggregated."""
        elapsed = self.elapsed_time()
        if elapsed <= 0:
            return 0.0
        return self.paused_time() / elapsed

    # -- memory activity -------------------------------------------------------
    def touch_spread(
        self,
        n_vcpus: int,
        touches_per_vcpu: float,
        wss_pages: Optional[int] = None,
        offset_pages: int = 0,
    ) -> None:
        """Record ``touches_per_vcpu`` writes by each of vCPUs ``0..n-1``.

        The writes land uniformly in a working set of ``wss_pages``
        starting ``offset_pages`` into guest memory (defaults to the
        whole VM).  One validation pass, then each vCPU's share feeds
        the shared dirty log and, while dirty logging is armed, that
        vCPU's PML ring, in ascending vCPU order.  This is the workload
        flush path: from the first spread after a checkpoint on, a
        steady spread (same window and vCPU count) only advances the
        dirty log's pending scalars, and the chunk arrays are written
        when the next checkpoint reads them.
        """
        if not 1 <= n_vcpus <= self.vcpu_count:
            raise IndexError(
                f"n_vcpus {n_vcpus} out of range [1, {self.vcpu_count}]"
            )
        if self._paused_at is not None:
            raise VmLifecycleError(
                f"VM {self.name!r} is paused; paused guests cannot dirty memory"
            )
        if wss_pages is None:
            wss_pages = self.total_pages - offset_pages
        if wss_pages <= 0:
            raise ValueError(f"working set must be positive: {wss_pages}")
        if offset_pages < 0 or offset_pages + wss_pages > self.total_pages:
            raise ValueError(
                f"working set [{offset_pages}, {offset_pages + wss_pages}) "
                f"outside VM memory [0, {self.total_pages})"
            )
        first_chunk = offset_pages // self.pages_per_chunk
        last_chunk = (offset_pages + wss_pages - 1) // self.pages_per_chunk
        n_chunks = last_chunk - first_chunk + 1
        self.dirty_log.record_uniform_spread(
            n_vcpus, first_chunk, n_chunks, touches_per_vcpu
        )
        if self._dirty_logging:
            rings = self.pml_rings
            for vcpu in range(n_vcpus):
                rings[vcpu].log_range(first_chunk, n_chunks, touches_per_vcpu)

    def record_disk_write(self, length: int, offset: Optional[int] = None) -> None:
        """A guest block-device write (PV ``vbd``/``virtio-blk`` path).

        Forwards to the attached disk replication channel when the VM
        is protected; otherwise only the local byte counter moves.
        """
        if length <= 0:
            raise ValueError(f"write length must be positive: {length}")
        if offset is None:
            # Sequential log-style default placement (512-byte sectors).
            offset = self._disk_write_cursor
            self._disk_write_cursor += max(1, (length + 511) // 512)
        self.disk_bytes_written += length
        if self.disk_replicator is not None:
            self.disk_replicator.record_write(offset, length)

    def arm_dirty_logging(self) -> None:
        """Enter log-dirty mode: the PML rings log from now on.

        Entries logged outside an armed window would be drained and
        discarded unread (by the arming read, a clearing snapshot or
        the next arming), so the rings skip them.  Arms nest: logging
        stops when every armer has disarmed.
        """
        self._dirty_logging += 1

    def disarm_dirty_logging(self) -> None:
        """Leave log-dirty mode (one :meth:`arm_dirty_logging` each)."""
        if self._dirty_logging <= 0:
            raise VmLifecycleError(
                f"VM {self.name!r} dirty logging is not armed"
            )
        self._dirty_logging -= 1

    @property
    def dirty_logging_armed(self) -> bool:
        """Whether the PML rings are logging (log-dirty mode)."""
        return self._dirty_logging > 0

    def dirty_snapshot(self, clear: bool = True) -> DirtySnapshot:
        """Capture (and by default reset) the dirty state."""
        if clear:
            for ring in self.pml_rings.values():
                ring.drain()
            return self.dirty_log.snapshot_and_clear()
        return self.dirty_log.peek()

    # -- state capture -----------------------------------------------------------
    def capture_vcpu_states(self) -> List[VcpuArchState]:
        """The vCPU architectural states (the VM should be paused)."""
        return self.vcpu_states

    def replicable_devices(self) -> List[VirtualDevice]:
        """Devices taking part in replication; rejects passthrough."""
        for device in self.devices:
            device.check_replicable()
        return self.devices

    def __repr__(self) -> str:
        if self._destroyed:
            state = "destroyed"
        elif not self._started:
            state = "created"
        else:
            state = "running" if self.running_gate.is_open else "paused"
        return (
            f"<VM {self.name!r} {state} vcpus={self.vcpu_count} "
            f"mem={self.memory_bytes // 1024**2}MiB flavor={self.device_flavor}>"
        )
