"""Automated re-protection: redundancy restored after failover."""

import math

import pytest

from repro.cluster.deployment import ProtectedFleet
from repro.cluster.planner import PlacementRequest, ReplicationPlanner
from repro.faults import ReprotectionController
from repro.hardware.host import Host
from repro.hardware.memory import MemorySpec
from repro.hardware.units import GIB
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe
from repro.replication.failover import FailoverController
from repro.replication.heartbeat import HeartbeatMonitor
from repro.simkernel.core import Simulation
from repro.telemetry import Recorder


def build_cluster(seed=3, vms=1, with_spare=True):
    """xen-0 primaries, kvm-0 secondary, optional xen-1 spare."""
    sim = Simulation(seed=seed)
    recorder = Recorder.attach(sim.telemetry)
    memory = MemorySpec(total_bytes=64 * GIB)
    xen0 = XenHypervisor(
        sim, Host(sim, "xen-0", memory=memory), here_patches=True
    )
    kvm0 = KvmHypervisor(sim, Host(sim, "kvm-0", memory=memory))
    hypervisors = [xen0, kvm0]
    if with_spare:
        hypervisors.append(
            XenHypervisor(
                sim, Host(sim, "xen-1", memory=memory), here_patches=True
            )
        )
    requests = []
    for number in range(vms):
        vm = xen0.create_vm(
            f"vm-{number}", vcpus=2, memory_bytes=GIB, seed=seed
        )
        vm.start()
        requests.append(PlacementRequest(vm.name, xen0, GIB))
    plan = ReplicationPlanner(hypervisors).plan(requests)
    assert plan.fully_placed
    recipe = EngineRecipe(target_degradation=0.0, t_max=2.0)
    fleet = ProtectedFleet(sim, plan, recipe)
    fleet.start_protection(wait_ready=True)
    controllers = {}
    for vm_name, engine in fleet.engines.items():
        monitor = HeartbeatMonitor(
            sim, engine.primary.host, engine.primary, engine.link,
            interval=0.03, miss_threshold=3,
        )
        monitor.start()
        failover = FailoverController(sim, engine, monitor)
        failover.arm()
        reprotection = ReprotectionController(
            sim, failover, spares=hypervisors, recipe=recipe
        )
        reprotection.arm()
        controllers[vm_name] = (monitor, failover, reprotection)
    return sim, hypervisors, fleet, controllers, recorder


class TestValidation:
    def test_needs_spares(self):
        sim, _, fleet, controllers, _ = build_cluster()
        (_, failover, _) = controllers["vm-0"]
        with pytest.raises(ValueError):
            ReprotectionController(
                sim, failover, spares=[],
                recipe=EngineRecipe(target_degradation=0.0, t_max=2.0),
            )

    def test_double_arm_rejected(self):
        _, _, _, controllers, _ = build_cluster()
        (_, _, reprotection) = controllers["vm-0"]
        with pytest.raises(RuntimeError):
            reprotection.arm()


class TestReprotection:
    def test_redundancy_restored_on_a_spare(self):
        sim, hypervisors, fleet, controllers, recorder = build_cluster()
        xen0 = hypervisors[0]
        sim.schedule_callback(2.0, lambda: xen0.host.fail("power loss"))
        (_, failover, reprotection) = controllers["vm-0"]
        report = sim.run_until_triggered(
            reprotection.completed, limit=sim.now + 60.0
        )
        assert not report.failed
        assert report.vm_name == "vm-0"
        # The new primary is the old KVM secondary, so the fresh backup
        # must land on the heterogeneous Xen spare.
        assert report.spare_host == "xen-1"
        assert report.spare_hypervisor != "Linux KVM"
        assert report.unprotected_window > 0
        assert report.ready_at == report.detected_at + report.unprotected_window
        assert reprotection.engine.ready.triggered
        assert reprotection.engine.replica_session.has_consistent_state

    def test_reprotection_span_measures_the_window(self):
        sim, hypervisors, fleet, controllers, recorder = build_cluster()
        sim.schedule_callback(2.0, lambda: hypervisors[0].host.fail("loss"))
        (_, _, reprotection) = controllers["vm-0"]
        report = sim.run_until_triggered(
            reprotection.completed, limit=sim.now + 60.0
        )
        spans = recorder.spans("reprotection")
        assert len(spans) == 1
        assert spans[0].attrs["failed"] is False
        assert spans[0].attrs["unprotected_window"] == pytest.approx(
            report.unprotected_window
        )
        gauges = recorder.gauges("reprotection.unprotected_window")
        assert len(gauges) == 1
        assert gauges[0].value == pytest.approx(report.unprotected_window)

    def test_fleet_reprotects_every_vm(self):
        # Acceptance: one host fault on a multi-VM fleet; redundancy
        # comes back automatically for every protected VM.
        sim, hypervisors, fleet, controllers, _ = build_cluster(vms=2)
        sim.schedule_callback(2.0, lambda: hypervisors[0].host.fail("loss"))
        events = [
            controllers[name][2].completed for name in fleet.engines
        ]
        sim.run_until_triggered(sim.all_of(events), limit=sim.now + 120.0)
        for vm_name, (_, failover, reprotection) in controllers.items():
            assert not failover.report.failed
            assert not reprotection.report.failed
            assert reprotection.engine.ready.triggered
            assert reprotection.engine.replica_session.has_consistent_state
            assert reprotection.report.unprotected_window > 0

    def test_failed_failover_means_nothing_to_reprotect(self):
        sim, hypervisors, fleet, controllers, _ = build_cluster()
        xen0, kvm0 = hypervisors[0], hypervisors[1]

        def double_failure():
            xen0.host.fail("rack power loss")
            kvm0.host.fail("rack power loss")

        sim.schedule_callback(2.0, double_failure)
        (_, failover, reprotection) = controllers["vm-0"]
        report = sim.run_until_triggered(
            reprotection.completed, limit=sim.now + 60.0
        )
        assert failover.report.failed
        assert report.failed
        assert "nothing to re-protect" in report.failure_reason
        assert math.isnan(report.unprotected_window)

    def test_no_eligible_spare_reports_failure(self):
        # Without xen-1 the only candidates after failover are the dead
        # primary and the (homogeneous) new primary itself.
        sim, hypervisors, fleet, controllers, _ = build_cluster(
            with_spare=False
        )
        sim.schedule_callback(2.0, lambda: hypervisors[0].host.fail("loss"))
        (_, failover, reprotection) = controllers["vm-0"]
        report = sim.run_until_triggered(
            reprotection.completed, limit=sim.now + 60.0
        )
        assert not failover.report.failed
        assert report.failed
        assert "no spare" in report.failure_reason
