"""Correlated fault fan-out across shards.

The per-pair :class:`~repro.faults.injector.FaultInjector` refuses
zone-scale faults because it cannot see past its own calendar.  The
:class:`FleetFaultInjector` can: it runs on the **fleet calendar**, so
a zone outage fires at a quantum boundary and brings down every
materialization of every host in the failure domain — across all
shards *and* in the planning model, so the planner immediately stops
placing re-seeds onto dead spares.  A finite ``duration`` recovers the
domain the same way (hosts reboot empty, per
:meth:`~repro.hardware.host.Host.recover`); an infinite one leaves it
dark.

Plain per-host kinds (``HOST_CRASH`` / ``HOST_TRANSIENT``) are also
accepted and fan out over that one host's materializations — a
convenience so one schedule can mix host- and zone-scale events.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from ..faults.spec import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    InjectedFault,
    ZONE_KINDS,
)

if TYPE_CHECKING:
    from .orchestrator import FleetOrchestrator

#: Host-scale kinds the fleet injector also accepts.
_HOST_POWER_KINDS = frozenset(
    {FaultKind.HOST_CRASH, FaultKind.HOST_TRANSIENT}
)

#: Hypervisor-scale kinds: the host's power stays on (guest RAM
#: survives), only the hypervisor dies — the faults an in-place
#: recovery policy can answer.  Fans out to every shard
#: materialization of the target host's hypervisor.
_HYPERVISOR_KINDS = frozenset(
    {FaultKind.HYPERVISOR_CRASH, FaultKind.HYPERVISOR_HANG}
)


class FleetFaultInjector:
    """Expands zone/rack outages into per-host failures at boundaries."""

    def __init__(self, orchestrator: "FleetOrchestrator"):
        self.orchestrator = orchestrator
        self.sim = orchestrator.fleet_sim
        self.injected: List[InjectedFault] = []

    # -- arming -------------------------------------------------------------
    def schedule(self, schedule: FaultSchedule) -> None:
        for spec in schedule:
            self.inject(spec)

    def inject(self, spec: FaultSpec) -> None:
        """Arm one spec on the fleet calendar (fires at a boundary)."""
        self._validate(spec)
        self.sim.process(
            self._fault_process(spec), name=f"fleet-fault:{spec.kind.value}"
        )

    def _validate(self, spec: FaultSpec) -> None:
        if spec.kind in ZONE_KINDS:
            if not self._domain_hosts(spec):
                raise KeyError(
                    f"{spec.kind.value} target {spec.target!r} matches no "
                    f"host (zones: {self.orchestrator.topology.zones()})"
                )
            return
        if spec.kind in _HOST_POWER_KINDS or spec.kind in _HYPERVISOR_KINDS:
            if spec.target not in self.orchestrator.logical:
                raise KeyError(
                    f"unknown host target {spec.target!r} "
                    f"(have: {sorted(self.orchestrator.logical)})"
                )
            return
        if spec.kind in CORRUPTION_KINDS:
            if self._integrity_monitor(spec.target) is None:
                raise KeyError(
                    f"{spec.kind.value} target {spec.target!r} is not an "
                    "integrity-monitored VM — arm FleetSpec.integrity"
                )
            return
        raise ValueError(
            f"the fleet injector handles zone/rack outages, host power "
            f"faults, hypervisor crash/hang and silent corruption, not "
            f"{spec.kind.value} — arm per-shard faults through a "
            "shard's own FaultInjector"
        )

    def _integrity_monitor(self, vm_name: str):
        """The monitor of the engine replicating ``vm_name`` now: its
        re-seed once a failover has promoted the replica."""
        for shard in self.orchestrator.shards.values():
            engine = shard.engines.get(vm_name)
            if engine is not None:
                engine = shard.reseed_engines.get(vm_name, engine)
                return engine.integrity_monitor
        return None

    def _domain_hosts(self, spec: FaultSpec) -> List[str]:
        topology = self.orchestrator.topology
        if spec.kind is FaultKind.ZONE_OUTAGE:
            return topology.hosts_in_zone(spec.target)
        zone, _, rack = spec.target.partition("/")
        if not rack:
            raise ValueError(
                f"a rack-outage target must be 'zone/rack', got "
                f"{spec.target!r}"
            )
        return topology.hosts_in_rack(zone, rack)

    # -- execution ----------------------------------------------------------
    def _fault_process(self, spec: FaultSpec):
        if spec.at > 0:
            yield self.sim.timeout(spec.at)
        if spec.kind in CORRUPTION_KINDS:
            yield from self._corrupt(spec)
            return
        if spec.kind in ZONE_KINDS:
            hosts = self._domain_hosts(spec)
        else:
            hosts = [spec.target]
        reason = spec.reason or f"injected {spec.kind.value}"
        blast = 0
        if spec.kind in _HYPERVISOR_KINDS:
            for host_name in hosts:
                blast += self._fail_hypervisor(host_name, spec.kind, reason)
        else:
            for host_name in hosts:
                blast += self._fail_host(host_name, reason)
        record = InjectedFault(
            spec,
            self.sim.now,
            detail=(
                f"{spec.kind.value} on {spec.target!r}: {len(hosts)} "
                f"host(s), {blast} shard materialization(s) down"
            ),
        )
        self.injected.append(record)
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter(
                "fleet.fault.injected", 1.0,
                kind=spec.kind.value, target=spec.target, hosts=len(hosts),
            )
        revertable = spec.kind in ZONE_KINDS or spec.reverts
        if revertable and math.isfinite(spec.duration):
            yield self.sim.timeout(spec.duration)
            for host_name in hosts:
                self._recover_host(
                    host_name, f"{spec.kind.value} over: {reason}"
                )
            record.reverted_at = self.sim.now
            if bus.enabled:
                bus.counter(
                    "fleet.fault.reverted", 1.0,
                    kind=spec.kind.value, target=spec.target,
                )

    def _corrupt(self, spec: FaultSpec):
        """Dispatch a silent-corruption kind to the VM's monitor.

        Corruption is shard-local by construction — exactly one engine
        protects the target VM — but it is armed on the fleet calendar
        like every other campaign fault, so it fires at a quantum
        boundary and shows up in the fleet trace.
        """
        monitor = self._integrity_monitor(spec.target)
        detail = monitor.inject(spec.kind.value)
        record = InjectedFault(spec, self.sim.now, detail=detail)
        self.injected.append(record)
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter(
                "fleet.fault.injected", 1.0,
                kind=spec.kind.value, target=spec.target, hosts=0,
            )
        if spec.reverts and math.isfinite(spec.duration):
            yield self.sim.timeout(spec.duration)
            monitor.clear_drift()
            record.reverted_at = self.sim.now
            if bus.enabled:
                bus.counter(
                    "fleet.fault.reverted", 1.0,
                    kind=spec.kind.value, target=spec.target,
                )

    def _fail_hypervisor(
        self, host_name: str, kind: FaultKind, reason: str
    ) -> int:
        """Crash/hang every shard materialization of one hypervisor.

        Shard-local only: the host stays up in the planning model, so
        the planner keeps treating it as alive — exactly right, since
        a microreboot (or full reboot) can bring it back without
        re-provisioning.
        """
        orchestrator = self.orchestrator
        count = 0
        for shard, host in orchestrator.materializations.get(host_name, []):
            candidates = [shard.primary, shard.secondary]
            candidates.extend(shard.spares.values())
            for hypervisor in candidates:
                if hypervisor.host is not host:
                    continue
                if not hypervisor.is_responsive:
                    continue  # already dead in this shard
                if kind is FaultKind.HYPERVISOR_CRASH:
                    hypervisor.crash(reason)
                else:
                    hypervisor.hang(reason)
                count += 1
        return count

    def _fail_host(self, host_name: str, reason: str) -> int:
        """Fail the logical host and every shard materialization."""
        orchestrator = self.orchestrator
        orchestrator.logical[host_name].host.fail(reason)
        replicas = orchestrator.materializations.get(host_name, [])
        for _shard, host in replicas:
            host.fail(reason)
        return len(replicas)

    def _recover_host(self, host_name: str, reason: str) -> None:
        orchestrator = self.orchestrator
        orchestrator.logical[host_name].host.recover(reason)
        for _shard, host in orchestrator.materializations.get(host_name, []):
            host.recover(reason)
