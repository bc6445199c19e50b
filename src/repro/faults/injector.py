"""Executes fault schedules against a live simulation.

The :class:`FaultInjector` is the one place a fault is armed, applied,
recorded and reverted.  It resolves each :class:`FaultSpec`'s target
name against registries of hosts, links and VMs (for the corruption
kinds, against a resolver of the VM's current integrity monitor),
arms one simulation process per spec, applies the fault at its
trigger time, and — for transient faults — reverts it after the
spec's duration.  Every injection and revert is published on the
calendar's telemetry bus: a ``fault`` span (``kind``, ``target``,
``transient``) opened at injection and ended at the revert (or at
once, for a permanent fault), a ``fault.injected`` counter and, on
revert, a ``fault.reverted`` counter — so campaigns can reconstruct
what happened from the trace alone.

The fleet's :class:`~repro.fleet.faults.FleetFaultInjector` runs this
same process on the fleet calendar; it overrides only target
validation and the expansion of a host or failure domain into shard
materializations.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

from ..hardware.host import Host
from ..hardware.link import Link, LinkPair
from ..security.exploits import ExploitInjector
from ..telemetry import NULL_SPAN
from ..vm.machine import VirtualMachine
from .spec import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    HOST_KINDS,
    HYPERVISOR_KINDS,
    InjectedFault,
    LINK_KINDS,
    ZONE_KINDS,
)

AnyLink = Union[Link, LinkPair]

#: Kinds that power hosts off: one host, or every host of a domain.
_POWER_KINDS = ZONE_KINDS | {FaultKind.HOST_CRASH, FaultKind.HOST_TRANSIENT}
#: Link kinds whose revert clears only the impairment.
_IMPAIRMENT_KINDS = frozenset(
    {FaultKind.LINK_LOSS, FaultKind.PACKET_CORRUPT, FaultKind.LATENCY_JITTER}
)


class FaultInjector:
    """Applies declarative fault specs to registered targets."""

    def __init__(
        self,
        sim,
        hosts: Iterable[Host] = (),
        links: Iterable[AnyLink] = (),
        vms: Iterable[VirtualMachine] = (),
    ):
        self.sim = sim
        self.hosts: Dict[str, Host] = {host.name: host for host in hosts}
        self.links: Dict[str, AnyLink] = {link.name: link for link in links}
        self.vms: Dict[str, VirtualMachine] = {vm.name: vm for vm in vms}
        self.exploit_injector = ExploitInjector(sim)
        #: VM name -> callable returning its current IntegrityMonitor:
        #: the dispatch surface of the silent-corruption kinds.
        self.integrity: Dict[str, Callable[[], object]] = {}
        #: Chronological record of every applied fault.
        self.injected: List[InjectedFault] = []

    def register_integrity(self, vm_name: str, current) -> None:
        """Make a VM a corruption-fault target; ``current()`` returns,
        at each injection and revert, the IntegrityMonitor of the engine
        replicating the VM then (after a failover, the re-seed's)."""
        self.integrity[vm_name] = current

    # -- arming -------------------------------------------------------------
    def schedule(self, schedule: FaultSchedule) -> None:
        """Arm every spec; trigger times count from *now*."""
        for spec in schedule:
            self.inject(spec)

    def inject(self, spec: FaultSpec) -> None:
        """Arm one spec (``spec.at`` seconds from now)."""
        self._resolve_targets(spec)  # fail fast on unknown names
        self.sim.process(
            self._fault_process(spec), name=f"fault:{spec.kind.value}"
        )

    def _resolve_targets(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.CORRELATED:
            for part in spec.parts:
                self._resolve_targets(part)
            return
        if spec.kind in ZONE_KINDS:
            raise ValueError(
                f"{spec.kind.value} is a fleet-scale fault: this "
                "injector has no topology to fan it out over — arm it "
                "through repro.fleet's FleetFaultInjector instead"
            )
        if spec.kind in HOST_KINDS:
            registry, label = self.hosts, "host"
        elif spec.kind in LINK_KINDS:
            registry, label = self.links, "link"
        elif spec.kind in CORRUPTION_KINDS:
            registry, label = self.integrity, "integrity-monitored VM"
        else:
            registry, label = self.vms, "VM"
        if spec.target not in registry:
            raise KeyError(
                f"unknown {label} target {spec.target!r} for "
                f"{spec.kind.value} (have: {sorted(registry)})"
            )

    # -- execution ----------------------------------------------------------
    def _fault_process(self, spec: FaultSpec):
        if spec.at > 0:
            yield self.sim.timeout(spec.at)
        bus = self.sim.telemetry
        if spec.kind is FaultKind.CORRELATED:
            if bus.enabled:
                bus.counter(
                    "fault.correlated", 1.0, parts=len(spec.parts),
                    detail=spec.describe(),
                )
            self.injected.append(
                InjectedFault(spec, self.sim.now, detail=spec.describe())
            )
            for part in spec.parts:
                self.inject(part)
            return
        if bus.enabled:
            span = bus.span(
                "fault", kind=spec.kind.value, target=spec.target,
                transient=spec.reverts,
            )
            bus.counter(
                "fault.injected", 1.0, kind=spec.kind.value, target=spec.target
            )
        else:
            span = NULL_SPAN
        reason = spec.reason or f"injected {spec.kind.value}"
        record = InjectedFault(
            spec, self.sim.now, detail=self._dispatch(spec, reason)
        )
        self.injected.append(record)
        if not spec.reverts:
            span.end(detail=record.detail)
            return
        yield self.sim.timeout(spec.duration)
        self._undo(spec, reason)
        record.reverted_at = self.sim.now
        span.end(detail=record.detail, reverted=True)
        if bus.enabled:
            bus.counter(
                "fault.reverted", 1.0, kind=spec.kind.value, target=spec.target
            )

    def _dispatch(self, spec: FaultSpec, reason: str) -> str:
        kind = spec.kind
        if kind in HYPERVISOR_KINDS:
            return self._fault_hypervisors(spec, reason)
        if kind in _POWER_KINDS:
            return self._fail_hosts(spec, reason)
        if kind is FaultKind.GUEST_CRASH:
            vm = self.vms[spec.target]
            if vm.is_destroyed:
                return f"guest {spec.target} already destroyed: fault is a no-op"
            vm.guest_os_crash(reason)
            return f"guest {spec.target} crashed itself: {reason}"
        if kind is FaultKind.LINK_DEGRADE:
            self.links[spec.target].degrade(
                bandwidth_factor=spec.bandwidth_factor,
                extra_latency_s=spec.extra_latency_s,
            )
            return (
                f"link {spec.target} degraded to "
                f"{spec.bandwidth_factor:.0%} bandwidth"
            )
        if kind is FaultKind.LINK_PARTITION:
            self.links[spec.target].partition()
            return f"link {spec.target} partitioned"
        if kind is FaultKind.LINK_LOSS:
            self.links[spec.target].impair(loss_rate=spec.loss_rate)
            return (
                f"link {spec.target} dropping {spec.loss_rate:.0%} of packets"
            )
        if kind is FaultKind.PACKET_CORRUPT:
            self.links[spec.target].impair(corrupt_rate=spec.corrupt_rate)
            return (
                f"link {spec.target} corrupting {spec.corrupt_rate:.0%} "
                "of chunks"
            )
        if kind is FaultKind.LATENCY_JITTER:
            self.links[spec.target].impair(latency_jitter_s=spec.jitter_s)
            return (
                f"link {spec.target} jittering messages by up to "
                f"{spec.jitter_s:g}s"
            )
        if kind in CORRUPTION_KINDS:
            return self.integrity[spec.target]().inject(kind.value)
        if kind is FaultKind.EXPLOIT:
            hypervisor = self.hosts[spec.target].hypervisor
            if hypervisor is None:
                return f"host {spec.target} runs no hypervisor: exploit bounced"
            result = self.exploit_injector.launch(spec.exploit, hypervisor)
            return result.detail
        raise AssertionError(f"unhandled fault kind {kind}")

    def _undo(self, spec: FaultSpec, reason: str) -> None:
        kind = spec.kind
        if kind in _POWER_KINDS:  # HOST_TRANSIENT or a finite outage
            self._recover_hosts(spec, reason)
        elif kind is FaultKind.TRANSLATOR_DRIFT:
            self.integrity[spec.target]().clear_drift()
        elif kind in _IMPAIRMENT_KINDS:
            # Impairments clear without touching degradation/partition
            # state a concurrent fault may have applied to the same link.
            self.links[spec.target].clear_impairment()
        else:  # LINK_DEGRADE / LINK_PARTITION
            self.links[spec.target].restore()

    # -- host-target kinds (the fleet expands these) -------------------------
    def _fail_hosts(self, spec: FaultSpec, reason: str) -> str:
        """Power off the spec's host (HOST_CRASH / HOST_TRANSIENT)."""
        self.hosts[spec.target].fail(reason)
        return f"host {spec.target} down: {reason}"

    def _recover_hosts(self, spec: FaultSpec, reason: str) -> None:
        """Reboot what :meth:`_fail_hosts` powered off (empty)."""
        self.hosts[spec.target].recover(
            f"transient fault over: {spec.reason or 'reboot'}"
        )

    def _fault_hypervisors(self, spec: FaultSpec, reason: str) -> str:
        """Crash, hang or starve the spec's host's hypervisor."""
        hypervisor = self.hosts[spec.target].hypervisor
        if hypervisor is None:
            return f"host {spec.target} runs no hypervisor: fault is a no-op"
        detail = self._fault_hypervisor(hypervisor, spec, reason)
        if detail is None:
            return (
                f"{hypervisor.product} already {hypervisor.state.value}: "
                "fault is a no-op"
            )
        return detail

    @staticmethod
    def _fault_hypervisor(hypervisor, spec: FaultSpec, reason: str) -> Optional[str]:
        """Apply one hypervisor kind; ``None`` when the hypervisor is
        already unresponsive (crashed or hung), which makes the fault a
        no-op: a dead hypervisor is not killed a second time."""
        if not hypervisor.is_responsive:
            return None
        if spec.kind is FaultKind.HYPERVISOR_CRASH:
            hypervisor.crash(reason)
            if hypervisor.guest_preservation:
                # A recovery engine armed preservation: the crash
                # paused the guests in RAM instead of killing them.
                return (
                    f"{hypervisor.product} crashed: {reason} "
                    "(guests preserved in RAM)"
                )
            return f"{hypervisor.product} crashed: {reason}"
        if spec.kind is FaultKind.HYPERVISOR_HANG:
            hypervisor.hang(reason)
            return f"{hypervisor.product} hung: {reason}"
        hypervisor.starve(reason, factor=spec.starvation_factor)
        return f"{hypervisor.product} starved x{spec.starvation_factor:g}"
