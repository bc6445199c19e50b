"""Executes fault schedules against a live simulation.

The :class:`FaultInjector` resolves each :class:`FaultSpec`'s target
name against registries of hosts, links and VMs, arms one simulation
process per spec, applies the fault at its trigger time, and — for
transient faults — reverts it after the spec's duration.  Every
injection and revert is published on the telemetry bus (``fault``
spans, ``fault.injected`` counters) so campaigns can reconstruct what
happened from the trace alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

from ..hardware.host import Host
from ..hardware.link import Link, LinkPair
from ..security.exploits import ExploitInjector
from ..telemetry import NULL_SPAN
from ..vm.machine import VirtualMachine
from .spec import FaultKind, FaultSchedule, FaultSpec, InjectedFault

AnyLink = Union[Link, LinkPair]


class FaultInjector:
    """Applies declarative fault specs to registered targets."""

    def __init__(
        self,
        sim,
        hosts: Iterable[Host] = (),
        links: Iterable[AnyLink] = (),
        vms: Iterable[VirtualMachine] = (),
        exploit_injector: Optional[ExploitInjector] = None,
    ):
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[str, AnyLink] = {}
        self.vms: Dict[str, VirtualMachine] = {}
        for host in hosts:
            self.register_host(host)
        for link in links:
            self.register_link(link)
        for vm in vms:
            self.register_vm(vm)
        self.exploit_injector = exploit_injector or ExploitInjector(sim)
        #: VM name -> callable returning its current IntegrityMonitor:
        #: the dispatch surface of the silent-corruption kinds.
        self.integrity: Dict[str, Callable[[], object]] = {}
        #: Chronological record of every applied fault.
        self.injected: List[InjectedFault] = []
        self._processes: List = []

    # -- registries ---------------------------------------------------------
    def register_host(self, host: Host) -> None:
        self.hosts[host.name] = host

    def register_link(self, link: AnyLink) -> None:
        self.links[link.name] = link

    def register_vm(self, vm: VirtualMachine) -> None:
        self.vms[vm.name] = vm

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
        process = self.sim.process(
            self._fault_process(spec), name=f"fault:{spec.kind.value}"
        )
        self._processes.append(process)

    def _resolve_targets(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.CORRELATED:
            for part in spec.parts:
                self._resolve_targets(part)
            return
        from .spec import ZONE_KINDS

        if spec.kind in ZONE_KINDS:
            raise ValueError(
                f"{spec.kind.value} is a fleet-scale fault: this "
                "injector has no topology to fan it out over — arm it "
                "through repro.fleet's FleetFaultInjector instead"
            )
        registry, label = self._registry_for(spec)
        if spec.target not in registry:
            raise KeyError(
                f"unknown {label} target {spec.target!r} for "
                f"{spec.kind.value} (have: {sorted(registry)})"
            )

    def _registry_for(self, spec: FaultSpec):
        from .spec import CORRUPTION_KINDS, HOST_KINDS, LINK_KINDS

        if spec.kind in HOST_KINDS:
            return self.hosts, "host"
        if spec.kind in LINK_KINDS:
            return self.links, "link"
        if spec.kind in CORRUPTION_KINDS:
            return self.integrity, "integrity-monitored VM"
        return self.vms, "VM"

    # -- execution ----------------------------------------------------------
    def _fault_process(self, spec: FaultSpec):
        if spec.at > 0:
            yield self.sim.timeout(spec.at)
        if spec.kind is FaultKind.CORRELATED:
            bus = self.sim.telemetry
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
        record, span = self._apply(spec)
        if spec.reverts:
            yield self.sim.timeout(spec.duration)
            self._revert(spec, record, span)

    def _apply(self, spec: FaultSpec) -> InjectedFault:
        bus = self.sim.telemetry
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
        detail = self._dispatch(spec, reason)
        if not spec.reverts:
            span.end(detail=detail)
        record = InjectedFault(spec, self.sim.now, detail=detail)
        self.injected.append(record)
        return record, span

    def _dispatch(self, spec: FaultSpec, reason: str) -> str:
        kind = spec.kind
        if kind is FaultKind.HOST_CRASH or kind is FaultKind.HOST_TRANSIENT:
            self.hosts[spec.target].fail(reason)
            return f"host {spec.target} down: {reason}"
        if kind in (
            FaultKind.HYPERVISOR_CRASH,
            FaultKind.HYPERVISOR_HANG,
            FaultKind.HYPERVISOR_STARVE,
        ):
            hypervisor = self.hosts[spec.target].hypervisor
            if hypervisor is None:
                return f"host {spec.target} runs no hypervisor: fault is a no-op"
            if kind is FaultKind.HYPERVISOR_CRASH:
                hypervisor.crash(reason)
                if hypervisor.guest_preservation:
                    # A recovery engine armed preservation: the crash
                    # paused the guests in RAM instead of killing them.
                    return (
                        f"{hypervisor.product} crashed: {reason} "
                        "(guests preserved in RAM)"
                    )
                return f"{hypervisor.product} crashed: {reason}"
            if kind is FaultKind.HYPERVISOR_HANG:
                hypervisor.hang(reason)
                return f"{hypervisor.product} hung: {reason}"
            hypervisor.starve(reason, factor=spec.starvation_factor)
            return f"{hypervisor.product} starved x{spec.starvation_factor:g}"
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
        if kind in (
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ):
            return self.integrity[spec.target]().inject(kind.value)
        if kind is FaultKind.EXPLOIT:
            hypervisor = self.hosts[spec.target].hypervisor
            if hypervisor is None:
                return f"host {spec.target} runs no hypervisor: exploit bounced"
            result = self.exploit_injector.launch(spec.exploit, hypervisor)
            return result.detail
        raise AssertionError(f"unhandled fault kind {kind}")

    _IMPAIRMENT_KINDS = (
        FaultKind.LINK_LOSS,
        FaultKind.PACKET_CORRUPT,
        FaultKind.LATENCY_JITTER,
    )

    def _revert(self, spec: FaultSpec, record: InjectedFault, span) -> None:
        if spec.kind is FaultKind.HOST_TRANSIENT:
            self.hosts[spec.target].recover(
                f"transient fault over: {spec.reason or 'reboot'}"
            )
        elif spec.kind is FaultKind.TRANSLATOR_DRIFT:
            self.integrity[spec.target]().clear_drift()
        elif spec.kind in self._IMPAIRMENT_KINDS:
            # Impairments clear without touching degradation/partition
            # state a concurrent fault may have applied to the same link.
            self.links[spec.target].clear_impairment()
        else:  # LINK_DEGRADE / LINK_PARTITION
            self.links[spec.target].restore()
        record.reverted_at = self.sim.now
        span.end(detail=record.detail, reverted=True)
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter(
                "fault.reverted", 1.0, kind=spec.kind.value, target=spec.target
            )
