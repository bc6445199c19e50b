"""FaultInjector execution: apply, revert, correlate, detect."""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultSpec
from repro.fleet import FleetFaultInjector, FleetOrchestrator, FleetSpec
from repro.hardware.units import GIB, MIB
from repro.hypervisor.base import HypervisorState
from repro.telemetry import Recorder


def build(seed=7, **spec_kwargs):
    defaults = dict(
        engine="here",
        period=2.0,
        target_degradation=0.0,
        memory_bytes=2 * GIB,
        seed=seed,
    )
    defaults.update(spec_kwargs)
    deployment = ProtectedDeployment(DeploymentSpec(**defaults))
    deployment.start_protection(wait_ready=True)
    return deployment


def injector_for(deployment):
    return FaultInjector(
        deployment.sim,
        hosts=[deployment.testbed.primary, deployment.testbed.secondary],
        links=[deployment.testbed.interconnect],
        vms=[deployment.vm],
    )


class TestTargetResolution:
    def test_unknown_target_fails_fast(self):
        deployment = build()
        injector = injector_for(deployment)
        with pytest.raises(KeyError, match="unknown host"):
            injector.inject(
                FaultSpec(FaultKind.HOST_CRASH, target="no-such-host")
            )

    def test_unknown_correlated_part_fails_fast(self):
        deployment = build()
        injector = injector_for(deployment)
        with pytest.raises(KeyError):
            injector.inject(
                FaultSpec(
                    FaultKind.CORRELATED,
                    parts=(
                        FaultSpec(FaultKind.LINK_PARTITION, target="bogus"),
                    ),
                )
            )

    def test_registries_index_by_name(self):
        deployment = build()
        injector = injector_for(deployment)
        assert deployment.testbed.primary.name in injector.hosts
        assert deployment.testbed.interconnect.name in injector.links

    def test_zone_faults_rejected_with_a_pointer_to_the_fleet(self):
        deployment = build()
        injector = injector_for(deployment)
        for kind in (FaultKind.ZONE_OUTAGE, FaultKind.RACK_OUTAGE):
            with pytest.raises(ValueError, match="fleet-scale"):
                injector.inject(FaultSpec(kind, target="z0", duration=5.0))
        assert deployment.vm.name in injector.vms


class TestHostFaults:
    def test_host_crash_downs_host_and_triggers_failover(self):
        deployment = build()
        sim = deployment.sim
        injector_for(deployment).schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.HOST_CRASH,
                    target=deployment.testbed.primary.name,
                    at=3.0,
                    reason="power loss",
                )
            )
        )
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        assert not deployment.testbed.primary.is_up
        assert not report.failed
        assert deployment.replica.is_running

    def test_host_transient_reboots_empty(self):
        deployment = build()
        sim = deployment.sim
        recorder = Recorder.attach(sim.telemetry)
        injector = injector_for(deployment)
        injector.schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.HOST_TRANSIENT,
                    target=deployment.testbed.primary.name,
                    at=2.0,
                    duration=4.0,
                    reason="brownout",
                )
            )
        )
        armed_at = sim.now
        sim.run(until=armed_at + 3.0)
        assert not deployment.testbed.primary.is_up
        sim.run(until=armed_at + 8.0)
        # Power is back, the hypervisor rebooted, but guests are gone:
        # a transient host fault still kills the primary VM.
        assert deployment.testbed.primary.is_up
        assert deployment.primary.is_responsive
        assert deployment.primary.vms == {}
        record = injector.injected[0]
        assert record.reverted_at == pytest.approx(armed_at + 6.0)
        assert len(recorder.counters("fault.reverted")) == 1
        assert len(recorder.counters("host.recovery")) == 1

    def test_guest_crash_noop_when_vm_destroyed(self):
        deployment = build()
        deployment.vm.guest_os_crash("already broken")
        deployment.primary.destroy_vm(deployment.vm.name)
        injector = injector_for(deployment)
        injector.inject(
            FaultSpec(FaultKind.GUEST_CRASH, target=deployment.vm.name)
        )
        deployment.run_for(1.0)
        assert "no-op" in injector.injected[0].detail


class TestHypervisorFaults:
    def test_crash_of_a_hung_hypervisor_is_a_recorded_noop(self):
        deployment = build()
        target = deployment.testbed.primary.name
        injector = injector_for(deployment)
        injector.inject(FaultSpec(FaultKind.HYPERVISOR_HANG, target=target, at=1.0))
        injector.inject(FaultSpec(FaultKind.HYPERVISOR_CRASH, target=target, at=2.0))
        deployment.run_for(3.0)
        # The hung hypervisor is not killed a second time: its state
        # stays hung, and the record says the crash did nothing.
        assert deployment.primary.state is HypervisorState.HUNG
        assert [record.detail for record in injector.injected] == [
            "Xen hung: injected hypervisor-hang",
            "Xen already hung: fault is a no-op",
        ]


class TestLinkFaults:
    def test_degrade_scales_capacity_then_restores(self):
        deployment = build()
        sim = deployment.sim
        link = deployment.testbed.interconnect
        nominal = link.forward.capacity
        armed_at = sim.now
        injector_for(deployment).schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.LINK_DEGRADE,
                    target=link.name,
                    at=1.0,
                    duration=2.0,
                    bandwidth_factor=0.25,
                    extra_latency_s=1e-3,
                )
            )
        )
        sim.run(until=armed_at + 2.0)
        assert link.forward.capacity == pytest.approx(nominal * 0.25)
        assert link.forward.latency > link.forward.nic.base_latency_s
        sim.run(until=armed_at + 4.0)
        assert link.forward.capacity == pytest.approx(nominal)
        assert link.forward.latency == pytest.approx(
            link.forward.nic.base_latency_s
        )

    def test_partition_detected_within_bound(self):
        # Acceptance regression: a full network partition must be
        # declared within the monitor's detection_latency_bound even
        # though no probe ack ever comes back.
        deployment = build()
        sim = deployment.sim
        partition_at = sim.now + 5.0
        injector_for(deployment).schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.LINK_PARTITION,
                    target=deployment.testbed.interconnect.name,
                    at=5.0,
                )
            )
        )
        reason = sim.run_until_triggered(
            deployment.monitor.failure_detected, limit=sim.now + 20.0
        )
        latency = sim.now - partition_at
        assert latency <= deployment.monitor.detection_latency_bound + 0.05
        assert "unreachable" in str(reason)

    def test_partition_reverts_and_probes_resume(self):
        deployment = build(heartbeat_misses=30)  # tolerate the outage
        sim = deployment.sim
        link = deployment.testbed.interconnect
        armed_at = sim.now
        injector_for(deployment).schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.LINK_PARTITION,
                    target=link.name,
                    at=2.0,
                    duration=0.2,
                )
            )
        )
        sim.run(until=armed_at + 2.1)
        assert link.is_partitioned
        assert link.forward.capacity == 0.0
        sim.run(until=armed_at + 10.0)
        assert not link.is_partitioned
        assert not deployment.monitor.failure_detected.triggered
        assert deployment.monitor.consecutive_misses == 0


class TestCorrelatedFaults:
    def test_parts_fire_relative_to_parent(self):
        deployment = build()
        sim = deployment.sim
        recorder = Recorder.attach(sim.telemetry)
        injector = injector_for(deployment)
        armed_at = sim.now
        injector.schedule(
            FaultSchedule.single(
                FaultSpec(
                    FaultKind.CORRELATED,
                    at=2.0,
                    parts=(
                        FaultSpec(
                            FaultKind.LINK_PARTITION,
                            target=deployment.testbed.interconnect.name,
                        ),
                        FaultSpec(
                            FaultKind.HOST_CRASH,
                            target=deployment.testbed.primary.name,
                            at=1.5,
                            reason="cascading outage",
                        ),
                    ),
                )
            )
        )
        sim.run(until=armed_at + 10.0)
        assert len(recorder.counters("fault.correlated")) == 1
        fired = {
            record.spec.kind: record.fired_at for record in injector.injected
        }
        assert fired[FaultKind.LINK_PARTITION] == pytest.approx(armed_at + 2.0)
        assert fired[FaultKind.HOST_CRASH] == pytest.approx(armed_at + 3.5)
        assert not deployment.testbed.primary.is_up
        # The failover still completes: partition then host loss.
        assert deployment.failover.completed.triggered


def _chaos_fault(kind, **spec_kwargs):
    """A chaos injector's fault on the primary host: (bus recorder,
    shard recorders, target)."""
    deployment = build()
    recorder = Recorder.attach(deployment.sim.telemetry)
    target = deployment.testbed.primary.name
    injector_for(deployment).inject(
        FaultSpec(kind, target=target, at=1.0, **spec_kwargs)
    )
    deployment.run_for(8.0)
    return recorder, [], target


def _fleet_zone_outage():
    """A finite fleet zone outage, with a recorder on every bus."""
    orchestrator = FleetOrchestrator(FleetSpec(
        zones=2, racks_per_zone=2, hosts_per_rack=2, spares=2, vms=4,
        vm_memory_bytes=128 * MIB, quantum=0.5, seed=3,
    ))
    recorder = Recorder.attach(orchestrator.fleet_sim.telemetry)
    shard_recorders = [
        Recorder.attach(shard.sim.telemetry)
        for shard in orchestrator.shards.values()
    ]
    FleetFaultInjector(orchestrator).inject(
        FaultSpec(FaultKind.ZONE_OUTAGE, target="z0", at=1.0, duration=3.0)
    )
    orchestrator.sharded.run(until=6.0)
    return recorder, shard_recorders, "z0"


#: Case id -> (kind, transient, run): both injectors publish the same
#: records, the fleet's on the fleet bus only.
TELEMETRY_CASES = {
    "chaos": (
        FaultKind.HYPERVISOR_CRASH, False,
        lambda: _chaos_fault(FaultKind.HYPERVISOR_CRASH),
    ),
    "chaos-transient": (
        FaultKind.HOST_TRANSIENT, True,
        lambda: _chaos_fault(FaultKind.HOST_TRANSIENT, duration=4.0),
    ),
    "fleet": (FaultKind.ZONE_OUTAGE, True, _fleet_zone_outage),
}


class TestTelemetry:
    @pytest.mark.parametrize("case", sorted(TELEMETRY_CASES))
    def test_fault_spans_and_counters_on_bus(self, case):
        kind, transient, run = TELEMETRY_CASES[case]
        recorder, shard_recorders, target = run()
        spans = recorder.spans("fault")
        assert len(spans) == 1
        assert spans[0].attrs["kind"] == kind.value
        assert spans[0].attrs["target"] == target
        assert spans[0].attrs["transient"] is transient
        counters = recorder.counters("fault.injected")
        assert len(counters) == 1
        assert counters[0].attrs["target"] == target
        assert len(recorder.counters("fault.reverted")) == int(transient)
        assert not [n for n in recorder.names() if n.startswith("fleet.fault")]
        for shard_recorder in shard_recorders:
            assert not shard_recorder.counters("fault.injected")
