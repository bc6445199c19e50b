"""Abstract hypervisor: the surface the replication layer programs against.

A hypervisor in this simulation is the union of

* a **guest manager** (create/start/pause/resume/destroy VMs),
* a **dirty-tracking facility** (shared bitmap scan or per-vCPU PML
  rings) consumed by migration and replication,
* a **state extraction/injection** surface producing/consuming the
  hypervisor's *own* state format (heterogeneity lives here),
* a **platform feature surface** (CPUID flags) that the state
  translator must reconcile across hypervisors, and
* a **failure surface**: the hypervisor can crash, hang or starve —
  accidentally or because a DoS exploit landed (see
  :mod:`repro.security.exploits`).

Concrete subclasses: :class:`repro.hypervisor.xen.XenHypervisor` and
:class:`repro.hypervisor.kvm.KvmHypervisor`.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, List, Optional

from ..hardware.host import Host
from ..vm.guest_agent import GuestAgent
from ..vm.machine import VirtualMachine
from .errors import GuestNotFound, HypervisorDown, IncompatibleGuest
from .features import incompatibilities


class HypervisorState(Enum):
    """Operational state of the hypervisor."""

    RUNNING = "running"
    CRASHED = "crashed"
    HUNG = "hung"
    STARVED = "starved"  # degraded but limping (resource-starvation DoS)


def parse_vcpus(records, parse_record, cache: Optional[Dict]) -> List:
    """Parse vCPU records, reusing prior parses of identical records.

    Serialisers memoise records on the immutable vCPU states, so every
    checkpoint of an unchanged guest presents the *same* record dicts.
    ``cache`` maps ``id(record)`` to ``(record, state)``; the strong
    reference pins the id against recycling.  ``cache=None`` parses
    every record afresh.
    """
    if cache is None:
        return [parse_record(record) for record in records]
    vcpus = []
    for record in records:
        hit = cache.get(id(record))
        if hit is not None and hit[0] is record:
            vcpus.append(hit[1])
        else:
            state = parse_record(record)
            cache[id(record)] = (record, state)
            vcpus.append(state)
    return vcpus


class Hypervisor:
    """Base class; subclasses set the class attributes below."""

    #: Short family name, e.g. "xen" or "kvm".
    flavor: str = "abstract"
    #: Marketing-style product name for reports.
    product: str = "Abstract Hypervisor"
    #: Version string, used by vulnerability applicability checks.
    version: str = "0.0"
    #: Software components forming the attack surface (overridden).
    components: tuple = ()
    #: Device-model source shared with other products (e.g. "qemu") —
    #: sharing one means sharing its vulnerabilities (§8.2).
    device_model_lineage: str = "none"
    #: The state-format module (``pack``/``unpack`` plus the record
    #: converters) of this family's payload layout.
    formats = None

    def __init__(self, sim, host: Host):
        self.sim = sim
        self.host = host
        if host.hypervisor is not None:
            raise RuntimeError(f"host {host.name!r} already runs a hypervisor")
        host.hypervisor = self
        self.state = HypervisorState.RUNNING
        self.failure_reason: Optional[str] = None
        self.vms: Dict[str, VirtualMachine] = {}
        #: Multiplier applied to toolstack operation latencies when
        #: starved (resource-exhaustion DoS outcome).
        self.starvation_factor = 1.0
        #: ReHype-style preservation (armed by
        #: :class:`repro.recovery.MicrorebootEngine`): when True, a
        #: hypervisor-core :meth:`crash` pauses guests in place instead
        #: of destroying them — their pages and vCPU state stay
        #: resident so an in-place microreboot can resume them.  Host
        #: power loss still destroys guests: RAM does not survive it.
        self.guest_preservation = False
        #: Fault kind of the last failure, tagged onto the reboot span
        #: ("hypervisor-crash" | "hypervisor-hang" |
        #: "hypervisor-starve" | "host-power-loss").
        self.last_fault_kind: Optional[str] = None
        #: Simulation time of the last failure (None while healthy).
        self.failed_at: Optional[float] = None
        self._outage_span = None
        #: Listeners notified as ``listener(hypervisor, state, reason)``.
        self._failure_listeners: List = []
        #: Parsed-vCPU reuse across guest loads; see :func:`parse_vcpus`.
        self._vcpu_parse_cache: Dict[int, tuple] = {}

    # -- feature surface ----------------------------------------------------
    def cpuid_features(self) -> FrozenSet[str]:
        """Platform features this hypervisor can expose to guests."""
        raise NotImplementedError

    def default_guest_features(self) -> FrozenSet[str]:
        """Features exposed to a freshly created guest."""
        return self.cpuid_features()

    # -- guest management ------------------------------------------------------
    def create_vm(
        self,
        name: str,
        vcpus: int = 4,
        memory_bytes: int = 8 * 1024**3,
        seed: int = 0,
        features: Optional[FrozenSet[str]] = None,
        pml_ring_capacity: int = 1_000_000,
    ) -> VirtualMachine:
        """Create (but do not start) a guest on this hypervisor."""
        self._check_responsive()
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists on {self.product}")
        requested = features if features is not None else self.default_guest_features()
        unsupported = requested - self.cpuid_features()
        if unsupported:
            raise IncompatibleGuest(
                f"{self.product} cannot expose features: {sorted(unsupported)}"
            )
        self.host.memory_pool.allocate(f"vm:{name}", memory_bytes)
        vm = VirtualMachine(
            self.sim,
            name,
            vcpus=vcpus,
            memory_bytes=memory_bytes,
            device_flavor=self.flavor,
            seed=seed,
            pml_ring_capacity=pml_ring_capacity,
        )
        vm.enabled_features = frozenset(requested)
        GuestAgent(vm)
        self.vms[name] = vm
        return vm

    def adopt_vm(self, vm: VirtualMachine) -> None:
        """Take over an existing VM object (failover activation path)."""
        self._check_responsive()
        if vm.name in self.vms:
            raise ValueError(f"VM {vm.name!r} already on {self.product}")
        self.host.memory_pool.allocate(f"vm:{vm.name}", vm.memory_bytes)
        self.vms[vm.name] = vm

    def get_vm(self, name: str) -> VirtualMachine:
        try:
            return self.vms[name]
        except KeyError:
            raise GuestNotFound(
                f"no VM {name!r} on {self.product} (have {sorted(self.vms)})"
            ) from None

    def destroy_vm(self, name: str) -> None:
        """Destroy a guest and release its memory."""
        vm = self.get_vm(name)
        vm.destroy()
        del self.vms[name]
        self.host.memory_pool.release(f"vm:{name}")

    def evict_vm(self, name: str) -> VirtualMachine:
        """Release a guest *without* destroying it (migration hand-off).

        The VM object stays alive so the destination hypervisor can
        adopt it; only this hypervisor's bookkeeping is dropped.
        """
        vm = self.get_vm(name)
        del self.vms[name]
        self.host.memory_pool.release(f"vm:{name}")
        return vm

    # -- dirty tracking ------------------------------------------------------
    def supports_per_vcpu_dirty_rings(self) -> bool:
        """Whether HERE's per-vCPU PML ring patch is present (§7.2)."""
        return False

    def read_dirty_bitmap(self, vm: VirtualMachine, clear: bool = True):
        """Read (and by default reset) the VM's shared dirty bitmap."""
        self._check_responsive()
        return vm.dirty_snapshot(clear=clear)

    def drain_pml_ring(self, vm: VirtualMachine, vcpu: int):
        """Drain one vCPU's PML ring without touching the others."""
        self._check_responsive()
        if not self.supports_per_vcpu_dirty_rings():
            raise NotImplementedError(
                f"{self.product} lacks per-vCPU dirty rings"
            )
        return vm.pml_rings[vcpu].drain()

    # -- state extraction (heterogeneity surface) ------------------------------
    def extract_guest_state(self, vm: VirtualMachine) -> dict:
        """Serialise vCPU + device state in this hypervisor's format.

        The VM must be paused; the result is a ``{"format": ..., ...}``
        payload that only this hypervisor family can load directly —
        the state translator converts it for the other family.
        """
        self._check_responsive()
        codec = self.formats
        return codec.pack(
            [codec.vcpu_to_record(state) for state in vm.capture_vcpu_states()],
            [codec.device_to_record(device) for device in vm.replicable_devices()],
            vm.enabled_features,
            vm.total_pages,
        )

    def load_guest_state(self, vm: VirtualMachine, payload: dict) -> None:
        """Load a payload produced by (or translated to) this format.

        Loads the vCPUs and the feature set; the payload's device
        records are not applied.
        """
        self._check_responsive()
        codec = self.formats
        if payload.get("format") != codec.FORMAT:
            raise IncompatibleGuest(
                f"{self.product} cannot load state format "
                f"{payload.get('format')!r}; "
                "run it through the state translator first"
            )
        vcpus, _devices, features, _pages = codec.unpack(payload)
        missing = incompatibilities(features, self.cpuid_features())
        if missing:
            raise IncompatibleGuest(
                f"guest uses features {self.product} cannot expose: "
                f"{sorted(missing)}"
            )
        vm.vcpu_states = parse_vcpus(
            vcpus, codec.record_to_vcpu, self._vcpu_parse_cache
        )
        vm.enabled_features = features

    @property
    def state_format(self) -> str:
        """Identifier of this hypervisor's serialisation format."""
        return self.formats.FORMAT

    def activate_replica(self, vm: VirtualMachine):
        """Generator: start a replica VM shell after failover.

        Subclasses implement their userspace's activation path; the
        guest agent's device-model switch is included when the replica
        carries the other family's devices.
        """
        raise NotImplementedError

    # -- failure surface ---------------------------------------------------------
    @property
    def is_responsive(self) -> bool:
        """Whether the hypervisor answers requests (heartbeat probe)."""
        return self.state in (HypervisorState.RUNNING, HypervisorState.STARVED)

    @property
    def is_running_normally(self) -> bool:
        return self.state is HypervisorState.RUNNING

    def _check_responsive(self) -> None:
        self.host.check_up()
        if not self.is_responsive:
            raise HypervisorDown(self.product, self.state.value)

    def on_failure(self, listener) -> None:
        """Register ``listener(hypervisor, state, reason)``."""
        self._failure_listeners.append(listener)

    def crash(self, reason: str) -> None:
        """The hypervisor core crashes.

        Without :attr:`guest_preservation`, every guest dies with it.
        With preservation armed (the ReHype premise: a hypervisor-core
        failure needn't scribble guest memory), guests are paused in
        place exactly as under a :meth:`hang` — pages and
        ``VcpuArchState`` stay resident for an in-place microreboot.
        """
        if self.state is HypervisorState.CRASHED:
            return
        self.state = HypervisorState.CRASHED
        self.failure_reason = reason
        self._mark_failure("hypervisor-crash", reason)
        if self.guest_preservation:
            for vm in self.vms.values():
                if vm.is_running:
                    vm.pause()
        else:
            for vm in self.vms.values():
                vm.destroy()
        self._notify_failure(reason)

    def hang(self, reason: str) -> None:
        """The hypervisor stops responding; guests stall but survive
        in memory (indistinguishable from a crash to remote observers)."""
        if self.state in (HypervisorState.CRASHED, HypervisorState.HUNG):
            return
        self.state = HypervisorState.HUNG
        self.failure_reason = reason
        self._mark_failure("hypervisor-hang", reason)
        for vm in self.vms.values():
            if vm.is_running:
                vm.pause()
        self._notify_failure(reason)

    def starve(self, reason: str, factor: float = 8.0) -> None:
        """Starve the hypervisor of resources: operations slow by ``factor``."""
        if self.state is not HypervisorState.RUNNING:
            return
        if factor < 1.0:
            raise ValueError(f"starvation factor must be >= 1: {factor}")
        self.state = HypervisorState.STARVED
        self.failure_reason = reason
        self.starvation_factor = factor
        self._mark_failure("hypervisor-starve", reason)
        self._notify_failure(reason)

    def host_power_lost(self, reason: str) -> None:
        """Called by the host when it fails underneath us.

        RAM does not survive a power loss, so guests are destroyed even
        when :attr:`guest_preservation` is armed — there is nothing
        left for a microreboot to resume.
        """
        if self.state is HypervisorState.CRASHED:
            return
        self.state = HypervisorState.CRASHED
        self.failure_reason = f"host power lost: {reason}"
        self._mark_failure("host-power-loss", self.failure_reason)
        for vm in self.vms.values():
            vm.destroy()
        self._notify_failure(self.failure_reason)

    def _mark_failure(self, fault_kind: str, reason: str) -> None:
        """Record the failure class and open the outage-spanning span.

        The span is ended by :meth:`reboot`, so its duration is the
        failure -> reboot outage; a hypervisor that never reboots emits
        no record (spans only materialise when ended).
        """
        self.last_fault_kind = fault_kind
        self.failed_at = self.sim.now
        self._outage_span = self.sim.telemetry.span(
            "hypervisor.reboot",
            host=self.host.name,
            flavor=self.flavor,
            fault=fault_kind,
            failure_reason=reason,
        )

    def host_power_restored(self, reason: str) -> None:
        """Called by the host when power returns after an outage."""
        self.reboot(f"host power restored: {reason}")

    def abandon_preserved_guests(self, reason: str) -> None:
        """A failed microreboot: the preserved guests are lost after all.

        The rebuilt structures never came up consistent, so the paused
        guests can never be resumed — they are destroyed in place.  The
        hypervisor stays in its failed state; only a full
        :meth:`reboot` (or host power cycle) brings it back.
        """
        for vm in self.vms.values():
            if not vm.is_destroyed:
                vm.destroy()
        self.sim.telemetry.counter(
            "hypervisor.guests_abandoned", 1.0, host=self.host.name,
            flavor=self.flavor, reason=reason,
        )

    def reboot(self, reason: str = "reboot", preserve_guests: bool = False) -> None:
        """Restart a failed hypervisor into a healthy state.

        By default guests do not survive: whatever
        :meth:`crash`/:meth:`hang` left behind is destroyed and its
        memory released, mirroring a real reboot wiping RAM.  A
        responsive hypervisor reboots too (losing its guests), so
        transient host faults can use one code path.

        With ``preserve_guests=True`` (the microreboot path — see
        :mod:`repro.recovery`) guests that survived the outage paused
        in memory come back running: only the hypervisor structures
        were torn down and rebuilt around them.  Guests destroyed
        before or during the outage stay gone.
        """
        preserved = 0
        if preserve_guests:
            for name, vm in list(self.vms.items()):
                if vm.is_destroyed:
                    del self.vms[name]
                    self.host.memory_pool.release(f"vm:{name}")
            for vm in self.vms.values():
                if vm.is_paused:
                    vm.resume()
                preserved += 1
        else:
            for name, vm in list(self.vms.items()):
                if not vm.is_destroyed:
                    vm.destroy()
                self.host.memory_pool.release(f"vm:{name}")
            self.vms.clear()
        self.state = HypervisorState.RUNNING
        self.failure_reason = None
        self.starvation_factor = 1.0
        span = self._outage_span
        if span is None:
            # Rebooted while healthy (transient host fault path): emit
            # a zero-duration span so the reboot still shows on the bus.
            span = self.sim.telemetry.span(
                "hypervisor.reboot", host=self.host.name,
                flavor=self.flavor, fault="none", failure_reason="",
            )
        span.end(
            reboot_reason=reason,
            preserve_guests=preserve_guests,
            preserved_vms=preserved,
        )
        self._outage_span = None
        self.last_fault_kind = None
        self.failed_at = None
        self.sim.telemetry.counter(
            "hypervisor.reboot", 1.0, host=self.host.name,
            flavor=self.flavor, reason=reason,
        )

    def _notify_failure(self, reason: str) -> None:
        for listener in list(self._failure_listeners):
            listener(self, self.state, reason)

    # -- misc ----------------------------------------------------------------
    def operation_delay(self, base_delay: float) -> float:
        """Toolstack operation latency, inflated under starvation."""
        return base_delay * self.starvation_factor

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.product} v{self.version} "
            f"on {self.host.name} state={self.state.value} vms={len(self.vms)}>"
        )
