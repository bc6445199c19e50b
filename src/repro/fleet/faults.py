"""Fleet fault targets: failure domains fanned out across shards.

The :class:`FleetFaultInjector` is the chaos
:class:`~repro.faults.injector.FaultInjector` run on the **fleet
calendar**: the same fault process and records, on the fleet bus only,
so a fault fires at a quantum boundary.  It adds target validation and
expansion.  A zone or rack outage (or a host power fault on one host)
fails each logical host *and* every shard materialization of it, so
the planner at once stops placing re-seeds onto dead spares; a finite
``duration`` reboots them empty.  A hypervisor crash or hang hits only
the materializations' hypervisors: the logical host stays up, since a
microreboot can bring it back without re-provisioning.  A corruption
kind goes to the monitor of the engine replicating the VM now.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List

from ..faults.injector import FaultInjector
from ..faults.spec import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSpec,
    HOST_KINDS,
    ZONE_KINDS,
)

if TYPE_CHECKING:
    from .orchestrator import FleetOrchestrator, PairShard

#: Every kind the fleet injector accepts: failure domains, host power
#: faults, hypervisor crash/hang and silent corruption.  Starvation and
#: exploits stay per-shard.
FLEET_KINDS = ZONE_KINDS | CORRUPTION_KINDS | (
    HOST_KINDS - {FaultKind.HYPERVISOR_STARVE, FaultKind.EXPLOIT}
)


class FleetFaultInjector(FaultInjector):
    """Expands fleet fault targets into shard materializations."""

    def __init__(self, orchestrator: "FleetOrchestrator"):
        super().__init__(orchestrator.fleet_sim)
        self.orchestrator = orchestrator
        # An engine builds its monitor when it starts, so a resolver
        # returns None before then (and for good without
        # FleetSpec.integrity).
        for shard in orchestrator.shards.values():
            for vm_name in shard.engines:
                self.register_integrity(
                    vm_name, partial(_current_monitor, shard, vm_name)
                )

    def _resolve_targets(self, spec: FaultSpec) -> None:
        if spec.kind not in FLEET_KINDS:
            raise ValueError(
                f"the fleet injector handles zone/rack outages, host power "
                f"faults, hypervisor crash/hang and silent corruption, not "
                f"{spec.kind.value} — arm per-shard faults through a "
                "shard's own FaultInjector"
            )
        if spec.kind in ZONE_KINDS:
            if not self._domain_hosts(spec):
                raise KeyError(
                    f"{spec.kind.value} target {spec.target!r} matches no "
                    f"host (zones: {self.orchestrator.topology.zones()})"
                )
        elif spec.kind in CORRUPTION_KINDS:
            current = self.integrity.get(spec.target)
            if current is None or current() is None:
                raise KeyError(
                    f"{spec.kind.value} target {spec.target!r} is not an "
                    "integrity-monitored VM — arm FleetSpec.integrity"
                )
        elif spec.target not in self.orchestrator.logical:
            raise KeyError(
                f"unknown host target {spec.target!r} "
                f"(have: {sorted(self.orchestrator.logical)})"
            )

    def _domain_hosts(self, spec: FaultSpec) -> List[str]:
        """The logical host names a host-target spec covers."""
        if spec.kind not in ZONE_KINDS:
            return [spec.target]
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

    @staticmethod
    def _summary(spec: FaultSpec, hosts: List[str], down: int) -> str:
        return (
            f"{spec.kind.value} on {spec.target!r}: {len(hosts)} "
            f"host(s), {down} shard materialization(s) down"
        )

    # -- host-target kinds ---------------------------------------------------
    def _fail_hosts(self, spec: FaultSpec, reason: str) -> str:
        """Fail each logical host and every shard materialization."""
        hosts = self._domain_hosts(spec)
        down = 0
        for host_name in hosts:
            self.orchestrator.logical[host_name].host.fail(reason)
            for _shard, host in self.orchestrator.materializations.get(host_name, ()):
                host.fail(reason)
                down += 1
        return self._summary(spec, hosts, down)

    def _recover_hosts(self, spec: FaultSpec, reason: str) -> None:
        reason = f"{spec.kind.value} over: {reason}"
        for host_name in self._domain_hosts(spec):
            self.orchestrator.logical[host_name].host.recover(reason)
            for _shard, host in self.orchestrator.materializations.get(host_name, ()):
                host.recover(reason)

    def _fault_hypervisors(self, spec: FaultSpec, reason: str) -> str:
        """Crash/hang the hypervisor of every shard materialization;
        one already dead in its shard is not counted."""
        down = 0
        for _shard, host in self.orchestrator.materializations.get(spec.target, ()):
            if self._fault_hypervisor(host.hypervisor, spec, reason) is not None:
                down += 1
        return self._summary(spec, [spec.target], down)


def _current_monitor(shard: "PairShard", vm_name: str):
    """The monitor of the engine replicating ``vm_name`` now."""
    engine = shard.reseed_engines.get(vm_name, shard.engines[vm_name])
    return engine.integrity_monitor
